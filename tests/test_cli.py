import numpy as np
import scipy.io
import scipy.sparse as sp

from ebhess import GallerySpec, ShiftedProblem, gallery, residual_direct, solve_shifted
from ebhess.cli import main


def _read_csv(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


def _strip_times(path, time_cols):
    comments, header, rows = _read_csv(path)
    keep = [i for i, h in enumerate(header) if h not in time_cols]
    return comments, [header[i] for i in keep], [[r[i] for i in keep] for r in rows]


class TestMatfunCommand:
    def test_table_shape_and_determinism(self, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        args = [
            "matfun", "--gallery", "rot2", "--n", "60", "--p", "2", "--m", "2,3",
            "--funcs", "exp,sqrt", "--seed", "7", "--repeat", "1",
        ]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        comments, header, rows = _read_csv(out1)
        assert header == ["function", "method", "m", "time_s", "time_mean_s", "rel_err", "status"]
        assert len(rows) == 2 * 2 * 2  # funcs x methods x m
        assert any("seed=7" in c for c in comments)
        assert all(r[-1] == "ok" for r in rows)
        assert _strip_times(out1, {"time_s", "time_mean_s"}) == _strip_times(
            out2, {"time_s", "time_mean_s"}
        )

    def test_empty_function_list_gives_header_only(self, tmp_path):
        out = str(tmp_path / "empty.csv")
        rc = main(
            ["matfun", "--gallery", "rot2", "--n", "40", "--p", "2", "--m", "2",
             "--funcs", "", "--repeat", "1", "--out", out]
        )
        assert rc == 0
        _, header, rows = _read_csv(out)
        assert header is not None and rows == []

    def test_oracle_infeasible_is_bad_config(self, tmp_path, capsys):
        rc = main(
            ["matfun", "--gallery", "toeplitz", "--n", "5000", "--p", "2", "--m", "2",
             "--funcs", "exp", "--repeat", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2
        assert "rel-err" in capsys.readouterr().err

    def test_tridiag_above_dense_limit_has_exact_reference(self, tmp_path):
        out = str(tmp_path / "tri.csv")
        assert main(
            ["matfun", "--gallery", "tridiag", "--n", "5000", "--p", "5", "--m", "10",
             "--funcs", "sqrt", "--methods", "ebh", "--seed", "7", "--repeat", "1",
             "--out", out]
        ) == 0
        _, _, (row,) = _read_csv(out)
        assert row[-1] == "ok" and float(row[5]) < 0.1

    def test_small_full_run_errors_below_one(self, tmp_path):
        out = str(tmp_path / "five.csv")
        assert main(
            ["matfun", "--gallery", "toeplitz", "--n", "60", "--p", "2", "--m", "4",
             "--funcs", "exp,sqrt,expnegsqrt,log,expinvx", "--repeat", "1", "--out", out]
        ) == 0
        _, _, rows = _read_csv(out)
        assert len(rows) == 10
        for r in rows:
            assert r[-1] == "ok"
            assert float(r[5]) < 1.0

    def test_overflowing_reference_marks_only_its_function(self, tmp_path):
        # exp of n^2 tridiag(-1, 2, -1) overflows at n = 500; sqrt does not.
        common = ["--gallery", "tridiag", "--n", "500", "--p", "5", "--funcs", "sqrt,exp",
                  "--repeat", "1"]
        out = str(tmp_path / "t.csv")
        assert main(["matfun"] + common + ["--m", "10", "--methods", "ebh", "--out", out]) == 0
        _, _, (sqrt_row, exp_row) = _read_csv(out)
        assert sqrt_row[0] == "sqrt" and sqrt_row[-1] == "ok" and float(sqrt_row[5]) < 1.0
        assert exp_row == ["exp", "EBH", "10", "", "", "", "Overflow"]

        curves = str(tmp_path / "c.dat")
        assert main(["curves"] + common + ["--m-max", "2", "--out", curves]) == 0
        lines = [l.strip() for l in open(str(tmp_path / "c_exp.dat")) if l.startswith("# m=")]
        assert lines == ["# m=1 skipped: Overflow", "# m=2 skipped: Overflow"]
        assert (tmp_path / "c_sqrt.dat").exists()

    def test_matrix_market_input(self, tmp_path):
        rng = np.random.default_rng(0)
        S = sp.csr_matrix(rng.standard_normal((30, 30)) * (rng.random((30, 30)) < 0.2))
        S = S + sp.eye(30) * 10
        mtx = tmp_path / "op.mtx"
        scipy.io.mmwrite(str(mtx), S)
        out = str(tmp_path / "mm.csv")
        assert main(
            ["matfun", "--input", str(mtx), "--p", "2", "--m", "3", "--funcs", "exp",
             "--repeat", "1", "--out", out]
        ) == 0
        _, _, rows = _read_csv(out)
        assert rows and all(r[-1] == "ok" for r in rows)


class TestShiftedCommand:
    def test_table_and_audit(self, tmp_path):
        out = str(tmp_path / "s.csv")
        args = [
            "shifted", "--gallery", "convdiff_l1", "--grid", "8", "--p", "2",
            "--shifts", "0:5:25", "--m", "3", "--eps", "2e-8", "--seed", "0",
            "--repeat", "1", "--out", out,
        ]
        assert main(args) == 0
        _, header, rows = _read_csv(out)
        assert header == ["operator", "n", "m", "restarts", "time_s", "time_mean_s",
                          "max_final_residual", "audit_residual", "status"]
        (row,) = rows
        assert row[0] == "convdiff_l1" and row[1] == "64" and row[-1] == "ok"
        assert float(row[6]) <= 2e-8

        # audit parity: rerun the same problem and compare the formula
        # residuals against direct ones, shift by shift
        A = gallery(GallerySpec("convdiff_l1", size=8))
        rng = np.random.default_rng(0)
        C = rng.random((64, 2))
        sigmas = np.linspace(0, 5, 25)
        state = solve_shifted(ShiftedProblem(A, C, sigmas, eps=2e-8, m=3))
        normC = np.linalg.norm(C)
        for i, s in enumerate(sigmas):
            direct = residual_direct(A, C, s, state.X[i])
            assert abs(direct - state.residual_history[i][-1]) <= 1e-9 * normC
        assert float(row[7]) <= max(h[-1] for h in state.residual_history) + 1e-9 * normC

    def test_zero_shifts_bad_config(self, tmp_path, capsys):
        rc = main(
            ["shifted", "--gallery", "convdiff_l1", "--grid", "8", "--p", "2",
             "--shifts", "0:5:0", "--m", "3", "--repeat", "1",
             "--out", str(tmp_path / "z.csv")]
        )
        assert rc == 2
        assert "shift" in capsys.readouterr().err


class TestCurvesCommand:
    def test_monotone_trend_and_single_point(self, tmp_path):
        out = str(tmp_path / "c.dat")
        assert main(
            ["curves", "--gallery", "toeplitz", "--n", "80", "--p", "2", "--m-max", "6",
             "--funcs", "sqrt,log", "--seed", "3", "--repeat", "1", "--out", out]
        ) == 0
        for fn in ("sqrt", "log"):
            lines = [
                l for l in open(str(tmp_path / f"c_{fn}.dat")) if not l.startswith("#")
            ]
            series = [(int(a), float(b)) for a, b in (l.split() for l in lines)]
            assert len(series) >= 3
            assert series[-1][1] < series[0][1]  # overall downward trend

        single = str(tmp_path / "one.dat")
        assert main(
            ["curves", "--gallery", "toeplitz", "--n", "40", "--p", "2", "--m-max", "1",
             "--funcs", "exp", "--seed", "3", "--repeat", "1", "--out", single]
        ) == 0
        lines = [l for l in open(str(tmp_path / "one_exp.dat")) if not l.startswith("#")]
        assert len(lines) == 1 and lines[0].split()[0] == "1"

    def test_matches_matfun_at_shared_m(self, tmp_path):
        common = ["--gallery", "toeplitz", "--n", "60", "--p", "2", "--seed", "11",
                  "--repeat", "1"]
        curves_out = str(tmp_path / "cv.dat")
        assert main(["curves"] + common + ["--m-max", "3", "--funcs", "exp",
                                           "--out", curves_out]) == 0
        table_out = str(tmp_path / "tb.csv")
        assert main(["matfun"] + common + ["--m", "3", "--funcs", "exp",
                                           "--methods", "ebh", "--out", table_out]) == 0
        curve_lines = [
            l.split() for l in open(str(tmp_path / "cv_exp.dat")) if not l.startswith("#")
        ]
        curve_err = dict((int(m), e) for m, e in curve_lines)
        _, _, rows = _read_csv(table_out)
        assert rows[0][5] == curve_err[3]


class TestFlopsCommand:
    def test_report_and_mismatch_note(self, tmp_path):
        out = str(tmp_path / "f.csv")
        assert main(["flops", "--n", "5000", "--p", "5", "--m", "10",
                     "--nnz", "24995", "--out", out]) == 0
        comments, header, rows = _read_csv(out)
        assert header == ["n", "p", "m", "nnz", "summed", "closed_form"]
        (row,) = rows
        assert float(row[4]) != float(row[5])
        assert any("differ" in c for c in comments)


class TestConfigFile:
    def test_file_provides_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "gallery=rot2\nn=60\np=2\nm=2\nfuncs=exp\nrepeat=1\nseed=5\n# comment\n"
        )
        out1 = str(tmp_path / "cfg1.csv")
        assert main(["matfun", "--config", str(cfg), "--out", out1]) == 0
        comments, _, rows = _read_csv(out1)
        assert any("seed=5" in c for c in comments)
        assert len(rows) == 2  # one function, two methods, one m

        out2 = str(tmp_path / "cfg2.csv")
        assert main(["matfun", "--config", str(cfg), "--m", "2,3", "--out", out2]) == 0
        _, _, rows2 = _read_csv(out2)
        assert len(rows2) == 4  # flag overrides the file's m

    def test_file_names_a_value_by_flag_or_field(self, tmp_path):
        for key in ("m", "m_list"):
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"gallery=rot2\nn=60\np=2\n{key}=2,3\nfuncs=exp\nrepeat=1\n")
            out = str(tmp_path / f"{key}.csv")
            assert main(["matfun", "--config", str(cfg), "--methods", "ebh", "--out", out]) == 0
            comments, _, rows = _read_csv(out)
            assert any("m_list=2,3" in c for c in comments)
            assert len(rows) == 2

    def test_bad_value_is_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "val.cfg"
        cfg.write_text("gallery=rot2\nn=sixty\n")
        rc = main(["matfun", "--config", str(cfg), "--out", str(tmp_path / "v.csv")])
        assert rc == 2
        assert "sixty" in capsys.readouterr().err

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not key value\n")
        rc = main(["matfun", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert rc == 2

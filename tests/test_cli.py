import argparse

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from ebhess import GallerySpec, ShiftedProblem, gallery, residual_direct, solve_shifted
from ebhess.cli import build_parser, main
from ebhess import cli
from ebhess.errors import BadConfig, ReducedSystemSingular


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

    def test_repeat_times_every_call(self, tmp_path, monkeypatch):
        # --repeat 2 calls each driver twice per row; the row keeps the
        # first call's error, the same as at --repeat 1.
        calls = []
        for name in ("mf_ebh", "mf_eba"):
            def counted(*args, _driver=getattr(cli, name), **kwargs):
                calls.append(_driver)
                return _driver(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        args = ["matfun", "--gallery", "rot2", "--n", "40", "--p", "2", "--m", "2,3",
                "--funcs", "exp", "--seed", "7"]
        once, twice = str(tmp_path / "1.csv"), str(tmp_path / "2.csv")
        assert main(args + ["--repeat", "1", "--out", once]) == 0
        assert len(calls) == 4
        assert main(args + ["--repeat", "2", "--out", twice]) == 0
        assert len(calls) == 4 + 8
        _, _, rows = _read_csv(twice)
        assert all(r[-1] == "ok" and float(r[3]) > 0 and float(r[4]) > 0 for r in rows)
        assert [r[5] for r in rows] == [r[5] for r in _read_csv(once)[2]]

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
        common = ["--gallery", "tridiag", "--n", "500", "--p", "5", "--funcs", "sqrt,exp"]
        out = str(tmp_path / "t.csv")
        assert main(["matfun"] + common + ["--m", "10", "--methods", "ebh", "--repeat", "1",
                                           "--out", out]) == 0
        _, _, (sqrt_row, exp_row) = _read_csv(out)
        assert sqrt_row[0] == "sqrt" and sqrt_row[-1] == "ok" and float(sqrt_row[5]) < 1.0
        assert exp_row == ["exp", "EBH", "10", "", "", "", "Overflow"]

        curves = str(tmp_path / "c.dat")
        assert main(["curves"] + common + ["--m-max", "2", "--out", curves]) == 0
        lines = [l.strip() for l in (tmp_path / "c_exp.dat").read_text().splitlines()
                 if l.startswith("# m=")]
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

    def test_frozen_shift_row_names_its_error(self, tmp_path, monkeypatch):
        # A state-carrying NotConverged subclass keeps the row's restarts,
        # residual and audit columns, and its own name as the status.
        A = gallery(GallerySpec("convdiff_l1", size=8))
        C = np.random.default_rng(0).random((64, 2))
        sigmas = np.linspace(0, 5, 25)
        state = solve_shifted(ShiftedProblem(A, C, sigmas, eps=2e-8, m=3))

        def frozen(problem):
            raise ReducedSystemSingular(sigmas[3], [sigmas[3]], state)

        monkeypatch.setattr(cli, "solve_shifted", frozen)
        out = str(tmp_path / "f.csv")
        assert main(["shifted", "--gallery", "convdiff_l1", "--grid", "8", "--p", "2",
                     "--shifts", "0:5:25", "--m", "3", "--seed", "0", "--repeat", "1",
                     "--out", out]) == 0
        _, _, (row,) = _read_csv(out)
        assert row[-1] == "ReducedSystemSingular"
        assert int(row[3]) == state.restart_count
        assert float(row[6]) == pytest.approx(max(h[-1] for h in state.residual_history))
        assert float(row[7]) <= 2e-8

    def test_typed_error_row_has_only_its_status(self, tmp_path):
        # (2m+1)p = 35 > n = 10 and the seed's span is not invariant: the
        # solve raises DimensionMismatch, and the row names it with every
        # numeric column empty.
        out = str(tmp_path / "e.csv")
        assert main(["shifted", "--gallery", "tridiag", "--n", "10", "--p", "5", "--m", "3",
                     "--shifts", "0:5:4", "--repeat", "1", "--out", out]) == 0
        _, _, rows = _read_csv(out)
        assert rows == [["tridiag", "10", "3", "", "", "", "", "", "DimensionMismatch"]]

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
             "--funcs", "sqrt,log", "--seed", "3", "--out", out]
        ) == 0
        for fn in ("sqrt", "log"):
            lines = [
                l for l in (tmp_path / f"c_{fn}.dat").read_text().splitlines() if not l.startswith("#")
            ]
            series = [(int(a), float(b)) for a, b in (l.split() for l in lines)]
            assert len(series) >= 3
            assert series[-1][1] < series[0][1]  # overall downward trend

        single = str(tmp_path / "one.dat")
        assert main(
            ["curves", "--gallery", "toeplitz", "--n", "40", "--p", "2", "--m-max", "1",
             "--funcs", "exp", "--seed", "3", "--out", single]
        ) == 0
        lines = [l for l in (tmp_path / "one_exp.dat").read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 1 and lines[0].split()[0] == "1"

    def test_matches_matfun_at_shared_m(self, tmp_path):
        common = ["--gallery", "toeplitz", "--n", "60", "--p", "2", "--seed", "11"]
        curves_out = str(tmp_path / "cv.dat")
        assert main(["curves"] + common + ["--m-max", "3", "--funcs", "exp",
                                           "--out", curves_out]) == 0
        table_out = str(tmp_path / "tb.csv")
        assert main(["matfun"] + common + ["--m", "3", "--funcs", "exp", "--repeat", "1",
                                           "--methods", "ebh", "--out", table_out]) == 0
        curve_lines = [
            l.split() for l in (tmp_path / "cv_exp.dat").read_text().splitlines()
            if not l.startswith("#")
        ]
        curve_err = dict((int(m), e) for m, e in curve_lines)
        _, _, rows = _read_csv(table_out)
        assert rows[0][5] == curve_err[3]

    def test_takes_no_repeat(self, tmp_path):
        # curves times nothing: its series header echoes no repeat, and the
        # flag is refused with argparse's usage error.
        out = str(tmp_path / "c.dat")
        args = ["curves", "--gallery", "toeplitz", "--n", "40", "--p", "2", "--m-max", "1",
                "--funcs", "exp", "--out", out]
        assert main(args) == 0
        header = (tmp_path / "c_exp.dat").read_text().splitlines()[0]
        assert header.startswith("# command=curves") and "repeat=" not in header
        with pytest.raises(SystemExit) as exc:
            main(args + ["--repeat", "3"])
        assert exc.value.code == 2


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

    def test_report_without_out_goes_to_stdout(self, capsys):
        assert main(["flops", "--n", "5000", "--p", "5", "--m", "10", "--nnz", "24995"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert lines[0] == "n,p,m,nnz,summed,closed_form"
        assert len(lines) == 2 and lines[1].startswith("5000,5,10,24995,")


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
        base = ["shifted", "--gallery", "toeplitz", "--n", "40", "--p", "1", "--m", "2",
                "--shifts", "0:1:2", "--repeat", "1", "--out", str(tmp_path / "s.csv")]
        for flag, value in (("--p", "0"), ("--eps", "0"), ("--eps", "-1"), ("--eps", "nan"),
                            ("--eps", "inf"), ("--max-restarts", "0"), ("--max-restarts", "-1"),
                            ("--m", "0"), ("--m", "-1")):
            assert main(base + [flag, value]) == 2, (flag, value)
            assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
        assert main(base + ["--shifts", "0:nan:2"]) == 2
        assert "shift range" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not key value\n")
        rc = main(["matfun", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_unknown_key_is_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("gallery=rot2\nn=60\np=2\nm=2\nfuncs=exp\nrepeat=1\nsede=5\n")
        out = tmp_path / "t.csv"
        assert main(["matfun", "--config", str(cfg), "--out", str(out)]) == 2
        assert "sede" in capsys.readouterr().err
        assert not out.exists()

    def test_fields_of_other_commands_are_accepted(self, tmp_path):
        # one file may serve several commands: matfun ignores shifted's keys
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("gallery=rot2\nn=60\np=2\nm=2\nfuncs=exp\nrepeat=1\n"
                       "shifts=0:1:3\neps=1e-6\nmax-restarts=4\nm-max=3\n")
        out = str(tmp_path / "s.csv")
        assert main(["matfun", "--config", str(cfg), "--out", out]) == 0
        comments, _, rows = _read_csv(out)
        assert "eps=" not in comments[0] and len(rows) == 2


class TestOptionTable:
    """What every subcommand accepts and echoes, pinned byte for byte."""

    FLAGS = {
        "matfun": {"--gallery", "--input", "--n", "--grid", "--p", "--m", "--funcs",
                   "--methods", "--no-rel-err", "--seed", "--repeat", "--out", "--config"},
        "shifted": {"--gallery", "--input", "--n", "--grid", "--p", "--m", "--shifts",
                    "--eps", "--max-restarts", "--seed", "--repeat", "--out", "--config"},
        "curves": {"--gallery", "--input", "--n", "--grid", "--p", "--m-max", "--funcs",
                   "--seed", "--out", "--config"},
        "flops": {"--n", "--p", "--m", "--nnz", "--out", "--config"},
    }

    def test_flags_and_required_flags(self):
        (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(subs.choices) == set(self.FLAGS)
        for name, sub in subs.choices.items():
            actions = [a for a in sub._actions if a.option_strings != ["-h", "--help"]]
            assert {s for a in actions for s in a.option_strings} == self.FLAGS[name], name
            required = {s for a in actions if a.required for s in a.option_strings}
            assert required == ({"--n", "--p", "--nnz"} if name == "flops" else set()), name

    @pytest.mark.parametrize("args, suffix, echo", [
        (["matfun", "--gallery", "rot2", "--n", "60", "--p", "2", "--m", "2,3",
          "--funcs", "exp", "--seed", "7", "--repeat", "1"], ".csv",
         "# command=matfun gallery=rot2 n=60 grid=0 p=2 m_list=2,3 funcs=exp "
         "methods=ebh,eba rel_err=True seed=7 repeat=1"),
        (["matfun", "--gallery", "rot2", "--n", "60", "--p", "2", "--m", "2",
          "--funcs", "exp", "--methods", "eba", "--no-rel-err", "--repeat", "1"], ".csv",
         "# command=matfun gallery=rot2 n=60 grid=0 p=2 m_list=2 funcs=exp "
         "methods=eba rel_err=False seed=0 repeat=1"),
        (["shifted", "--gallery", "convdiff_l1", "--grid", "8", "--p", "2",
          "--shifts", "0:5:25", "--m", "3", "--repeat", "1"], ".csv",
         "# command=shifted gallery=convdiff_l1 n=0 grid=8 p=2 m_list=3 "
         "shifts=0.0,5.0,25 eps=2e-08 max_restarts=20 seed=0 repeat=1"),
        (["curves", "--gallery", "toeplitz", "--n", "40", "--p", "2", "--m-max", "1",
          "--funcs", "exp", "--seed", "3"], "_exp.csv",
         "# command=curves gallery=toeplitz n=40 grid=0 p=2 m_max=1 funcs=exp seed=3"),
        (["flops", "--n", "5000", "--p", "5", "--m", "10", "--nnz", "24995"], ".csv",
         "# command=flops n=5000 p=5 m_list=10 nnz=24995 seed=0"),
    ], ids=["matfun", "matfun-no-rel-err", "shifted", "curves", "flops"])
    def test_echo_line(self, tmp_path, args, suffix, echo):
        assert main(args + ["--out", str(tmp_path / "o.csv")]) == 0
        with open(str(tmp_path / "o") + suffix) as fh:
            assert fh.readline() == echo + "\n"

    def test_flag_value_is_parsed_by_the_table(self, tmp_path, capsys):
        # a flag value goes through the same parser as a config-file value
        rc = main(["matfun", "--gallery", "rot2", "--n", "sixty", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "sixty" in capsys.readouterr().err


class TestFailures:
    def test_curves_names_files_from_the_whole_path(self, tmp_path):
        (tmp_path / "run.d").mkdir()
        args = ["curves", "--gallery", "toeplitz", "--n", "40", "--p", "2", "--m-max", "1",
                "--funcs", "exp"]
        assert main(args + ["--out", str(tmp_path / "run.d" / "fig1")]) == 0
        assert (tmp_path / "run.d" / "fig1_exp").exists()
        assert main(args + ["--out", str(tmp_path / "fig1.dat")]) == 0
        assert (tmp_path / "fig1_exp.dat").exists()

    @pytest.mark.parametrize("extra", [
        ["--config", "{tmp}/missing.cfg", "--out", "{tmp}/x.csv"],
        ["--input", "{tmp}/missing.mtx", "--out", "{tmp}/x.csv"],
        ["--gallery", "rot2", "--n", "40", "--out", "{tmp}/missing/x.csv"],
    ])
    def test_missing_file_exits_2(self, tmp_path, capsys, extra):
        args = ["matfun", "--p", "2", "--m", "2", "--funcs", "exp", "--repeat", "1"]
        assert main(args + [a.format(tmp=tmp_path) for a in extra]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestInputRules:
    @pytest.mark.parametrize("args", [
        ["matfun", "--gallery", "rot2", "--n", "40", "--p", "2", "--m", "2", "--funcs", "exp",
         "--repeat", "1"],
        ["curves", "--gallery", "rot2", "--n", "40", "--p", "2", "--m-max", "2",
         "--funcs", "exp"],
    ], ids=["matfun", "curves"])
    def test_missing_out_directory_fails_before_any_work(self, tmp_path, capsys,
                                                         monkeypatch, args):
        def no_work(config):
            raise AssertionError("operator built before --out was checked")

        monkeypatch.setattr(cli, "make_operator", no_work)
        assert main(args + ["--out", str(tmp_path / "missing" / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_bad_m_max_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(config):
            raise AssertionError("operator built before --m-max was checked")

        monkeypatch.setattr(cli, "make_operator", no_work)
        out = tmp_path / "c.dat"
        assert main(["curves", "--gallery", "rot2", "--n", "40", "--p", "2", "--m-max", "0",
                     "--funcs", "exp", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--m-max" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_empty_matrix_market_input_exits_2(self, tmp_path, capsys):
        mtx = tmp_path / "empty.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
        out = tmp_path / "o.csv"
        assert main(["matfun", "--input", str(mtx), "--p", "1", "--m", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n >= 1" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ["--gallery", "foo", "--n", "40"],
        ["--gallery", "tridiag", "--n", "1"],
        ["--gallery", "rot2", "--n", "1"],
        ["--gallery", "toeplitz"],
        ["--gallery", "convdiff_l1", "--grid", "1"],
        ["--gallery", "convdiff_l2"],
    ], ids=["unknown", "tridiag-n1", "rot2-n1", "toeplitz-no-n", "convdiff-grid1",
            "convdiff-no-grid"])
    def test_bad_gallery_or_size_exits_2(self, tmp_path, capsys, extra):
        out = tmp_path / "x.csv"
        args = ["matfun", "--p", "2", "--m", "2", "--funcs", "exp", "--repeat", "1"]
        assert main(args + extra + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        if extra[1] == "foo":
            assert "'foo'" in err and "convdiff_l2" in err and "toeplitz_inv_dist" in err

    def test_full_gallery_names_are_accepted(self, tmp_path):
        for name in ("toeplitz_inv_dist", "rot2_blockdiag", "tridiag_scaled"):
            out = str(tmp_path / f"{name}.csv")
            assert main(["matfun", "--gallery", name, "--n", "40", "--p", "2", "--m", "2",
                         "--funcs", "exp", "--repeat", "1", "--out", out]) == 0

    def test_matfun_ignores_the_eps_it_does_not_use(self, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("gallery=rot2\nn=40\np=2\nm=2\nfuncs=exp\nrepeat=1\neps=0\n")
        assert main(["matfun", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0


def _run(argv):
    # The command's runner on the resolved arguments, as main calls it, so
    # that its typed error reaches the test instead of exit status 2.
    args = build_parser().parse_args(argv)
    cli.COMMANDS[args.command][0](cli._resolve(args))


_ROT2 = ["matfun", "--gallery", "rot2", "--n", "40", "--p", "1", "--repeat", "1"]
_SHIFTED = ["shifted", "--gallery", "tridiag", "--n", "40", "--p", "1", "--m", "2", "--repeat", "1"]


@pytest.mark.parametrize("argv,message", [
    (["matfun", "--p", "1", "--m", "1", "--out", "{tmp}/x.csv"], "either --gallery or --input"),
    (["flops", "--n", "0", "--p", "1", "--m", "1", "--nnz", "0"], "flops needs positive n"),
    (_ROT2 + ["--m", "2,x", "--out", "{tmp}/x.csv"], "bad integer list"),
    (_ROT2 + ["--funcs", "exp,cosh", "--out", "{tmp}/x.csv"], "unknown function 'cosh'"),
    (_SHIFTED + ["--shifts", "0:5", "--out", "{tmp}/x.csv"], "bad shift range '0:5'"),
    (_SHIFTED + ["--shifts", "0:5:two", "--out", "{tmp}/x.csv"], "bad shift range '0:5:two'"),
    (_ROT2 + ["--m", "2"], "matfun needs --out"),
], ids=["no-operator", "flops-n", "int-list", "function-name", "shift-parts", "shift-count",
        "no-out"])
def test_bad_arguments_are_bad_config(tmp_path, argv, message):
    with pytest.raises(BadConfig, match=message):
        _run([a.format(tmp=tmp_path) for a in argv])

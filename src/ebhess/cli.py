"""Command-line harness: matrix-function tables, shifted-solver tables,
error-vs-iteration curves and operation-count reports as CSV.

Every artifact embeds a ``#``-commented echo of the resolved configuration
(seed included), so outputs are reproducible byte for byte apart from the
time columns.
"""

import argparse
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from .approx import mf_eba, mf_ebh, reference_matfun
from .errors import BadConfig, DimensionMismatch, EbhessError, NotConverged
from .matfun import FunctionSpec
from .operators import FactorizedOperator, GallerySpec, flop_estimate, gallery, read_matrix_market
from .shifted import ShiftedProblem, residual_direct, solve_shifted

FUNC_NAMES = FunctionSpec.NAMES

_GALLERY_ALIASES = {
    "toeplitz": "toeplitz_inv_dist",
    "toeplitz_inv_dist": "toeplitz_inv_dist",
    "rot2": "rot2_blockdiag",
    "rot2_blockdiag": "rot2_blockdiag",
    "tridiag": "tridiag_scaled",
    "tridiag_scaled": "tridiag_scaled",
    "convdiff_l1": "convdiff_l1",
    "convdiff_l2": "convdiff_l2",
}


@dataclass
class RunConfig:
    """Resolved settings for one command invocation."""

    command: str
    gallery: str | None = None
    input: str | None = None
    n: int = 0
    grid: int = 0
    p: int = 5
    m_list: tuple = (10,)
    m_max: int = 0
    funcs: tuple = FUNC_NAMES
    methods: tuple = ("ebh", "eba")
    shifts: tuple = (0.0, 5.0, 500)
    eps: float = 2e-8
    max_restarts: int = 20
    nnz: int = 0
    seed: int = 0
    repeat: int = 10
    rel_err: bool = True
    out: str | None = None

    _ECHO_KEYS = {
        "matfun": ("gallery", "input", "n", "grid", "p", "m_list", "funcs",
                   "methods", "rel_err", "seed", "repeat"),
        "shifted": ("gallery", "input", "n", "grid", "p", "m_list", "shifts",
                    "eps", "max_restarts", "seed", "repeat"),
        "curves": ("gallery", "input", "n", "grid", "p", "m_max", "funcs", "seed"),
        "flops": ("n", "p", "m_list", "nnz", "seed"),
    }

    def echo(self):
        pairs = [f"command={self.command}"]
        for key in self._ECHO_KEYS.get(self.command, ()):
            val = getattr(self, key)
            if val in (None, ()):
                continue
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            pairs.append(f"{key}={val}")
        return " ".join(pairs)


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.5e}"
    return str(x)


def _write_csv(path, config, header, rows, extra_comments=()):
    lines = [f"# {config.echo()}"]
    lines += [f"# {c}" for c in extra_comments]
    lines.append(",".join(header))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def make_operator(config):
    """Build the operator selected by the config (gallery or Matrix Market file)."""
    if config.input:
        return FactorizedOperator.from_sparse(read_matrix_market(config.input).matrix)
    if not config.gallery:
        raise BadConfig("either --gallery or --input is required")
    name = _GALLERY_ALIASES.get(config.gallery.lower())
    if name is None:
        raise BadConfig(f"unknown gallery {config.gallery!r}")
    if name.startswith("convdiff"):
        if config.grid < 2:
            raise BadConfig("convdiff galleries need --grid >= 2")
        return gallery(GallerySpec(name, size=config.grid))
    if config.n < 1:
        raise BadConfig(f"gallery {name} needs --n >= 1")
    return gallery(GallerySpec(name, size=config.n))


def _reference(config, A, V, spec):
    """Exact f(A)V and None, or None and the name of the error that stopped it
    (say an overflowing exp), which then marks that function's output."""
    try:  # approx.reference_matfun decides which exact reference applies
        return reference_matfun(A, V, spec), None
    except DimensionMismatch as exc:
        hint = "; rerun with --no-rel-err" if config.command == "matfun" else ""
        raise BadConfig(f"n={A.n} too large for the dense reference{hint}") from exc
    except EbhessError as exc:
        return None, type(exc).__name__


def _timed(fn, repeat):
    result = fn()
    times = [result.wall_time]
    for _ in range(repeat - 1):
        times.append(fn().wall_time)
    return result, statistics.median(times), statistics.fmean(times)


def run_matfun_table(config):
    """Approximation table: one row per (function, method, m)."""
    A = make_operator(config)
    rng = np.random.default_rng(config.seed)
    V = rng.random((A.n, config.p))
    rows = []
    for fname in config.funcs:
        spec = FunctionSpec.from_name(fname)
        reference, failed = _reference(config, A, V, spec) if config.rel_err else (None, None)
        for method in config.methods:
            driver = mf_ebh if method == "ebh" else mf_eba
            for m in config.m_list:
                if failed:
                    rows.append((fname, method.upper(), m, None, None, None, failed))
                    continue
                try:
                    result, t_med, t_mean = _timed(
                        lambda: driver(A, V, m, spec, reference=reference),
                        config.repeat,
                    )
                    rows.append(
                        (fname, method.upper(), m, t_med, t_mean, result.relative_error, "ok")
                    )
                except EbhessError as exc:
                    rows.append((fname, method.upper(), m, None, None, None,
                                 type(exc).__name__))
    header = ["function", "method", "m", "time_s", "time_mean_s", "rel_err", "status"]
    _write_csv(config.out, config, header, rows)
    return rows


def run_shifted_table(config):
    """Shifted-solver table: one row per m, with a direct-residual audit column."""
    A = make_operator(config)
    start, end, count = config.shifts
    if count < 1:
        raise BadConfig("need at least one shift")
    sigmas = np.linspace(start, end, int(count))
    rng = np.random.default_rng(config.seed)
    C = rng.random((A.n, config.p))
    opname = config.gallery or config.input
    rows = []
    for m in config.m_list:
        problem = ShiftedProblem(A, C, sigmas, eps=config.eps, m=m,
                                 max_restarts=config.max_restarts)
        status = "ok"
        state, t_first = _time_solve(problem)
        if isinstance(state, NotConverged):
            status = "NotConverged"
            state = state.state
        elif isinstance(state, EbhessError):
            rows.append((opname, A.n, m, None, None, None, None, None,
                         type(state).__name__))
            continue
        times = [t_first]
        for _ in range(config.repeat - 1):
            times.append(_time_solve(problem)[1])
        final = [h[-1] for h in state.residual_history if h]
        max_final = max(final) if final else None
        sample = np.unique(np.linspace(0, len(sigmas) - 1, min(10, len(sigmas))).astype(int))
        audit = max(residual_direct(A, C, sigmas[k], state.X[k]) for k in sample)
        rows.append((opname, A.n, m, state.restart_count,
                     statistics.median(times), statistics.fmean(times),
                     max_final, audit, status))
    header = ["operator", "n", "m", "restarts", "time_s", "time_mean_s",
              "max_final_residual", "audit_residual", "status"]
    _write_csv(config.out, config, header, rows)
    return rows


def _time_solve(problem):
    t0 = time.perf_counter()
    try:
        state = solve_shifted(problem)
    except EbhessError as exc:
        state = exc
    return state, time.perf_counter() - t0


def run_curves(config):
    """Error-vs-iteration series, one two-column file per function."""
    A = make_operator(config)
    if config.m_max < 1:
        raise BadConfig("curves needs --m-max >= 1")
    rng = np.random.default_rng(config.seed)
    V = rng.random((A.n, config.p))
    if config.out is None:
        raise BadConfig("curves needs --out")
    paths = []
    for fname in config.funcs:
        spec = FunctionSpec.from_name(fname)
        reference, failed = _reference(config, A, V, spec)
        series = []
        for m in range(1, config.m_max + 1):
            if failed:
                series.append((m, failed))
                continue
            try:
                res = mf_ebh(A, V, m, spec, reference=reference)
                series.append((m, res.relative_error))
            except EbhessError as exc:
                # Small-m projections can land on branch cuts or break down;
                # record the gap and keep the rest of the series.
                series.append((m, type(exc).__name__))
        stem, dot, ext = config.out.rpartition(".")
        path = f"{stem}_{fname}.{ext}" if dot else f"{config.out}_{fname}"
        with open(path, "w") as fh:
            fh.write(f"# {config.echo()}\n")
            fh.write(f"# function={fname} columns: m relative_error\n")
            for m, err in series:
                if isinstance(err, str):
                    fh.write(f"# m={m} skipped: {err}\n")
                else:
                    fh.write(f"{m} {_fmt(err)}\n")
        paths.append(path)
    return paths


def run_flops(config):
    """Operation-count report for the basis recursion."""
    if config.n < 1 or config.nnz < 0:
        raise BadConfig("flops needs positive n and nonnegative nnz")
    m = config.m_list[0]
    summed, closed = flop_estimate(config.n, config.p, m, config.nnz)
    extra = []
    if summed != closed:
        extra.append(
            f"note: summed and closed_form differ by {summed - closed:.6e}"
        )
    header = ["n", "p", "m", "nnz", "summed", "closed_form"]
    rows = [(config.n, config.p, m, config.nnz, summed, closed)]
    _write_csv(config.out, config, header, rows, extra_comments=extra)
    return summed, closed


# ---------------------------------------------------------------------------
# argument handling


def _parse_int_list(text):
    try:
        return tuple(int(t) for t in str(text).split(","))
    except ValueError as exc:
        raise BadConfig(f"bad integer list {text!r}") from exc


def _parse_funcs(text):
    names = tuple(t for t in str(text).split(",") if t)
    for t in names:
        if t not in FUNC_NAMES:
            raise BadConfig(f"unknown function {t!r}; choose from {','.join(FUNC_NAMES)}")
    return names


def _parse_shifts(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise BadConfig(f"shifts must be start:end:count, got {text!r}")
    try:
        shifts = (float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise BadConfig(f"bad shift range {text!r}") from exc
    if not np.isfinite(shifts[:2]).all():
        raise BadConfig(f"bad shift range {text!r}")
    return shifts


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise BadConfig(f"config line {raw.strip()!r} is not key=value")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            values["m_list" if key == "m" else key] = val.strip()
    return values


# RunConfig field (and flag dest) -> parser; RunConfig holds the defaults.
_OPTIONS = {
    "gallery": str, "input": str, "out": str, "n": int, "grid": int, "p": int,
    "seed": int, "repeat": int, "m_list": _parse_int_list, "m_max": int,
    "funcs": _parse_funcs, "shifts": _parse_shifts, "eps": float,
    "max_restarts": int, "nnz": int,
    "methods": lambda t: tuple(s for s in str(t).split(",") if s),
}


def _resolve(args, command):
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    config = RunConfig(command=command)
    for key, parse in _OPTIONS.items():
        value = getattr(args, key, None)
        value = file_values.get(key) if value is None else value
        if value is None:
            continue
        try:
            setattr(config, key, parse(value))
        except ValueError as exc:
            raise BadConfig(f"bad value {value!r} for {key}") from exc
    if getattr(args, "no_rel_err", False):
        config.rel_err = False
    elif "rel_err" in file_values:
        config.rel_err = file_values["rel_err"].lower() in ("1", "true", "yes")
    for key in ("repeat", "p", "max_restarts", "m_list"):
        if np.min(getattr(config, key)) < 1:
            raise BadConfig(f"{key} must be >= 1")
    if not 0 < config.eps < np.inf:
        raise BadConfig(f"eps must be positive and finite, got {config.eps}")
    for meth in config.methods:
        if meth not in ("ebh", "eba"):
            raise BadConfig(f"unknown method {meth!r}")
    return config


def _add_common(sub):
    sub.add_argument("--gallery", help="problem name: toeplitz, rot2, tridiag, convdiff_l1, convdiff_l2")
    sub.add_argument("--input", help="Matrix Market file instead of a gallery")
    sub.add_argument("--n", type=int, help="matrix dimension for dense/banded galleries")
    sub.add_argument("--grid", type=int, help="interior grid points per side for convdiff (n = grid^2)")
    sub.add_argument("--p", type=int, help="block width (default 5)")
    sub.add_argument("--seed", type=int, help="PRNG seed for the random block (default 0)")
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--config", help="key=value file with defaults; flags win")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ebhess",
        description="Extended block Hessenberg harness: f(A)V tables, shifted solves, curves, flop counts.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    matfun = subs.add_parser("matfun", help="approximation table for f(A)V")
    _add_common(matfun)
    matfun.add_argument("--repeat", type=int, help="timing repetitions (default 10)")
    matfun.add_argument("--m", dest="m_list", help="comma-separated step counts, e.g. 10,15")
    matfun.add_argument("--funcs", help=f"comma-separated functions from: {','.join(FUNC_NAMES)}")
    matfun.add_argument("--methods", help="comma-separated methods: ebh,eba")
    matfun.add_argument("--no-rel-err", action="store_true",
                        help="skip the exact reference (needed for large general operators)")

    shifted = subs.add_parser("shifted", help="restarted shifted-system table")
    _add_common(shifted)
    shifted.add_argument("--repeat", type=int, help="timing repetitions (default 10)")
    shifted.add_argument("--m", dest="m_list", help="comma-separated cycle lengths, e.g. 5,10")
    shifted.add_argument("--shifts", help="start:end:count, e.g. 0:5:500")
    shifted.add_argument("--eps", type=float, help="residual tolerance (default 2e-8)")
    shifted.add_argument("--max-restarts", type=int, dest="max_restarts",
                         help="restart cap (default 20)")

    curves = subs.add_parser("curves", help="error-vs-iteration series per function")
    _add_common(curves)
    curves.add_argument("--m-max", type=int, dest="m_max", help="largest step count in the series")
    curves.add_argument("--funcs", help=f"comma-separated functions from: {','.join(FUNC_NAMES)}")

    flops = subs.add_parser("flops", help="operation-count report")
    flops.add_argument("--n", type=int, required=True)
    flops.add_argument("--p", type=int, required=True)
    flops.add_argument("--m", dest="m_list", help="step count")
    flops.add_argument("--nnz", type=int, required=True)
    flops.add_argument("--out", help="output CSV path (default stdout)")
    flops.add_argument("--config", help="key=value file with defaults; flags win")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve(args, args.command)
        if args.command in ("matfun", "shifted") and config.out is None:
            raise BadConfig(f"{args.command} needs --out")
        if args.command == "matfun":
            run_matfun_table(config)
        elif args.command == "shifted":
            run_shifted_table(config)
        elif args.command == "curves":
            run_curves(config)
        elif args.command == "flops":
            run_flops(config)
    except EbhessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

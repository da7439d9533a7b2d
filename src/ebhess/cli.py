"""Command-line harness: matrix-function tables, shifted-solver tables,
error-vs-iteration curves and operation-count reports as CSV.

Every artifact embeds a ``#``-commented echo of the resolved configuration
(seed included), so outputs are reproducible byte for byte apart from the
time columns.

Each setting is one row of ``OPTIONS``: its flag, the parser of flag and
config-file values, its subcommands and help; the echo follows its order.
``curves`` is ``matfun``'s approximation loop at m = 1..m_max for ``ebh``.
"""

import argparse
import os
import statistics
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .approx import _references, _relative_error, mf_eba, mf_ebh
from .errors import BadConfig, DimensionMismatch, EbhessError, NotConverged
from .matfun import FunctionSpec
from .operators import FactorizedOperator, GallerySpec, flop_estimate, gallery, read_matrix_market
from .shifted import ShiftedProblem, residual_direct, solve_shifted

FUNC_NAMES = FunctionSpec.NAMES

# Short names; every other name goes to the gallery as given.
_GALLERY_ALIASES = {"toeplitz": "toeplitz_inv_dist", "rot2": "rot2_blockdiag",
                    "tridiag": "tridiag_scaled"}


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
    rel_err: bool = True
    shifts: tuple = (0.0, 5.0, 500)
    eps: float = 2e-8
    max_restarts: int = 20
    nnz: int = 0
    seed: int = 0
    repeat: int = 10
    out: str | None = None

    def echo(self):
        pairs = [f"command={self.command}"]
        for key, (_, _, commands, _) in OPTIONS.items():
            val = getattr(self, key)
            # not the output path; the seed always, though flops draws nothing
            if key == "out" or val in (None, ()) or (
                    self.command not in commands and key != "seed"):
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
    """Build the operator selected by the config (gallery or Matrix Market
    file); the gallery judges the name and the size."""
    if config.input:
        return FactorizedOperator.from_sparse(read_matrix_market(config.input).matrix)
    if not config.gallery:
        raise BadConfig("either --gallery or --input is required")
    name = config.gallery.lower()
    size = config.grid if name.startswith("convdiff") else config.n
    return gallery(GallerySpec(_GALLERY_ALIASES.get(name, name), size=size))


def _problem(config):
    """The operator and the seeded random n x p block it acts on."""
    A = make_operator(config)
    return A, np.random.default_rng(config.seed).random((A.n, config.p))


def _exact(config, A, V):
    """spec -> exact f(A)V for the run's (A, V), built once; an operator with
    no exact reference is a BadConfig (for matfun, naming --no-rel-err)."""
    try:  # approx._references decides which exact reference applies
        return _references(A, V)
    except DimensionMismatch as exc:
        hint = "; rerun with --no-rel-err" if config.command == "matfun" else ""
        raise BadConfig(f"n={A.n} too large for the dense reference{hint}") from exc


def _approximations(config, A, V, exact):
    """Yield (function, method, m, t_median, t_mean, rel_err, status) for each
    function, method and m.  The clock runs around each of ``config.repeat``
    driver calls alone; the last result (all have the same bits) is then scored
    against ``exact(spec)``.  A typed error of the calls, the scoring or the
    reference (say an overflowing exp) empties the row and names its status."""
    for fname in config.funcs:
        spec = FunctionSpec.from_name(fname)
        try:
            reference, failed = exact(spec), None
        except EbhessError as exc:
            reference, failed = None, type(exc).__name__
        for method in config.methods:
            driver = mf_ebh if method == "ebh" else mf_eba
            for m in config.m_list:
                if failed:
                    yield fname, method.upper(), m, None, None, None, failed
                    continue
                try:
                    times = []
                    for _ in range(config.repeat):
                        t0 = time.perf_counter()
                        app = driver(A, V, m, spec).approximation
                        times.append(time.perf_counter() - t0)
                    rel = None if reference is None else _relative_error(app, reference)
                except EbhessError as exc:
                    yield fname, method.upper(), m, None, None, None, type(exc).__name__
                    continue
                yield (fname, method.upper(), m, statistics.median(times),
                       statistics.fmean(times), rel, "ok")


def run_matfun_table(config):
    """Approximation table: one row per (function, method, m)."""
    A, V = _problem(config)
    exact = _exact(config, A, V) if config.rel_err else lambda spec: None
    rows = list(_approximations(config, A, V, exact))
    header = ["function", "method", "m", "time_s", "time_mean_s", "rel_err", "status"]
    _write_csv(config.out, config, header, rows)
    return rows


def run_shifted_table(config):
    """Shifted-solver table: one row per m, with a direct-residual audit column."""
    A, C = _problem(config)
    sigmas = np.linspace(*config.shifts)
    opname = config.gallery or config.input
    rows = []
    for m in config.m_list:
        problem = ShiftedProblem(A, C, sigmas, eps=config.eps, m=m,
                                 max_restarts=config.max_restarts)
        times = []
        for _ in range(config.repeat):
            t0 = time.perf_counter()
            try:
                state, status = solve_shifted(problem), "ok"
            except NotConverged as exc:
                state, status = exc.state, type(exc).__name__
            except EbhessError as exc:
                state, status = None, type(exc).__name__
                break
            times.append(time.perf_counter() - t0)
        if state is None:
            rows.append((opname, A.n, m, None, None, None, None, None, status))
            continue
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


def run_curves(config):
    """Error-vs-iteration series, one two-column file per function: the
    ``ebh`` rows of the matfun loop at m = 1..m_max, with one repeat and
    always a reference. ``--out fig1.dat`` names them ``fig1_<function>.dat``."""
    A, V = _problem(config)
    exact = _exact(config, A, V)
    stem, ext = os.path.splitext(config.out)
    paths = []
    for fname in config.funcs:
        sweep = replace(config, funcs=(fname,), methods=("ebh",), repeat=1,
                        m_list=range(1, config.m_max + 1))
        # Small-m projections can land on branch cuts or break down; such an
        # m is a comment line and the rest of the series is kept.
        lines = [f"# {config.echo()}", f"# function={fname} columns: m relative_error"]
        lines += [f"{m} {_fmt(err)}" if status == "ok" else f"# m={m} skipped: {status}"
                  for _, _, m, _, _, err, status in _approximations(sweep, A, V, exact)]
        path = f"{stem}_{fname}{ext}"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def run_flops(config):
    """Operation-count report for the basis recursion."""
    if config.n < 1 or config.nnz < 0:
        raise BadConfig("flops needs positive n and nonnegative nnz")
    m = config.m_list[0]
    summed, closed = flop_estimate(config.n, config.p, m, config.nnz)
    extra = [f"note: summed and closed_form differ by {summed - closed:.6e}"] if summed != closed else []
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


def _names(kind, choices):
    """Parser of a comma-separated list of names from ``choices``."""
    def parse(text):
        names = tuple(t for t in str(text).split(",") if t)
        for t in names:
            if t not in choices:
                raise BadConfig(f"unknown {kind} {t!r}; choose from {','.join(choices)}")
        return names
    return parse


def _parse_shifts(text):
    # np.linspace would take a negative count as a bare ValueError
    bad = BadConfig(f"bad shift range {text!r}: need start:end:count, finite ends, count >= 1")
    parts = str(text).split(":")
    if len(parts) != 3:
        raise bad
    try:
        shifts = (float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise bad from exc
    if not np.isfinite(shifts[:2]).all() or shifts[2] < 1:
        raise bad
    return shifts


_ALL = ("matfun", "shifted", "curves", "flops")
_OPERATOR = ("matfun", "shifted", "curves")

# RunConfig field -> (flag, parser, subcommands, help), in echo order; RunConfig
# holds the defaults. A "--no-" flag takes no value and switches its field off.
OPTIONS = {
    "gallery": ("--gallery", str, _OPERATOR, "toeplitz, rot2, tridiag, convdiff_l1 or convdiff_l2"),
    "input": ("--input", str, _OPERATOR, "Matrix Market file instead of a gallery"),
    "n": ("--n", int, _ALL, "matrix dimension for dense/banded galleries"),
    "grid": ("--grid", int, _OPERATOR, "convdiff interior grid points per side (n = grid^2)"),
    "p": ("--p", int, _ALL, "block width (default 5)"),
    "m_list": ("--m", _parse_int_list, ("matfun", "shifted", "flops"), "step counts, e.g. 10,15"),
    "m_max": ("--m-max", int, ("curves",), "largest step count in the series"),
    "funcs": ("--funcs", _names("function", FUNC_NAMES), ("matfun", "curves"),
              f"comma-separated functions from: {','.join(FUNC_NAMES)}"),
    "methods": ("--methods", _names("method", ("ebh", "eba")), ("matfun",), "ebh, eba or both"),
    "rel_err": ("--no-rel-err", lambda t: str(t).lower() in ("1", "true", "yes"), ("matfun",),
                "skip the exact reference (needed for large general operators)"),
    "shifts": ("--shifts", _parse_shifts, ("shifted",), "start:end:count, e.g. 0:5:500"),
    "eps": ("--eps", float, ("shifted",), "residual tolerance (default 2e-8)"),
    "max_restarts": ("--max-restarts", int, ("shifted",), "restart cap (default 20)"),
    "nnz": ("--nnz", int, ("flops",), "nonzeros of the operator"),
    "seed": ("--seed", int, _OPERATOR, "PRNG seed for the random block (default 0)"),
    "repeat": ("--repeat", int, ("matfun", "shifted"), "timing repetitions (default 10)"),
    "out": ("--out", str, _ALL, "output path (flops: default stdout)"),
}


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
            key = "m_list" if key == "m" else key
            # a field of another subcommand is fine: one file may serve several
            if key not in OPTIONS:
                raise BadConfig(f"unknown config key {key!r}")
            values[key] = val.strip()
    return values


def _resolve(args):
    file_values = _read_config_file(args.config) if args.config else {}
    config = RunConfig(command=args.command)
    for key, (_, parse, _, _) in OPTIONS.items():
        value = getattr(args, key, None)
        value = file_values.get(key) if value is None else value
        if value is None:
            continue
        try:
            setattr(config, key, parse(value))
        except BadConfig:
            raise
        except ValueError as exc:
            raise BadConfig(f"bad value {value!r} for {key}") from exc
    for key in ("repeat", "p", "max_restarts", "m_list"):
        if np.min(getattr(config, key)) < 1:
            raise BadConfig(f"{key} must be >= 1")
    if config.command == "curves" and config.m_max < 1:
        raise BadConfig("curves needs --m-max >= 1")
    if config.out is None and config.command != "flops":
        raise BadConfig(f"{config.command} needs --out")
    # checked before any work; no file is opened until the results are in
    if config.out is not None and not os.path.isdir(os.path.dirname(config.out) or "."):
        raise BadConfig(f"no directory for --out {config.out!r}")
    return config


# subcommand -> (runner, help)
COMMANDS = {
    "matfun": (run_matfun_table, "approximation table for f(A)V"),
    "shifted": (run_shifted_table, "restarted shifted-system table"),
    "curves": (run_curves, "error-vs-iteration series per function"),
    "flops": (run_flops, "operation-count report"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ebhess",
        description="Extended block Hessenberg harness: f(A)V tables, shifted solves, curves, flop counts.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help) in COMMANDS.items():
        sub = subs.add_parser(command, help=command_help)
        for key, (flag, _, commands, flag_help) in OPTIONS.items():
            if command in commands:
                switch = {"action": "store_const", "const": "no"} if flag.startswith("--no-") else {}
                sub.add_argument(flag, dest=key, help=flag_help, **switch,
                                 required=command == "flops" and key in ("n", "p", "nnz"))
        sub.add_argument("--config", help="key=value file with defaults; flags win")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command][0](_resolve(args))
    except (EbhessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs made from a seed, the calls a pass times,
and checks of every output against values computed apart from ebhess.

A workload object is built, then ``setup(eb, seed)`` makes the operators and
the random blocks; that step is what ``setup_s`` times.  ``calls()`` lists the
operations of one pass.  ``prepare_checks()`` computes the references once,
outside every timed region.  ``check(call, out)`` returns the relative error
of one output and the list of problems found with it; an output with a
problem counts as a failed operation.  ``check_pass(errors)`` looks at the
errors of one whole pass for properties no single call shows.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.sparse as sp

DEFAULT_SEED = 7

# Direct residual audit tolerance of the paper's shifted experiment.
AUDIT_TOL = 1e-7

# f(z) for the paper's functions that run on every seed, evaluated here and
# not through ebhess.FunctionSpec, so the reference shares no code with the
# program.  sqrt, exp(-sqrt(x)) and log are left out: on about one seed in
# five the projected matrix of this operator gets a real eigenvalue below
# zero and those calls raise BranchCutViolation, so whether they fail would
# depend on the seed.
SCALAR = {
    "exp": np.exp,
    "expinvx": lambda z: np.exp(-z) / z,
}

# Relative error allowed per (function, m): the paper's band for exp, and
# for exp(-x)/x a loose bound that still catches a wrong column.
EXP_TOL = {10: 1e-8, 15: 1e-11}
OTHER_TOL = 1e-5


@dataclass
class Call:
    """One operation: a single ``mf_ebh``/``mf_eba`` or ``solve_shifted`` call."""

    label: str
    layer: str              # span name of the ebhess entry point it enters
    run: Callable[[], object]
    key: object             # identifies the reference the check compares with


def _rel(diff, ref):
    return float(np.linalg.norm(diff) / max(np.linalg.norm(ref), np.finfo(float).tiny))


class MatfunRot2:
    """The paper's first experiment: f(A)V on the 2x2 block-diagonal operator,
    exp and exp(-x)/x at two projection sizes, through ``mf_ebh``."""

    def __init__(self, tiny=False):
        self.n = 400 if tiny else 5000
        self.p = 5
        self.ms = (10, 15)

    def setup(self, eb, seed):
        self.eb = eb
        self.A = eb.gallery(eb.GallerySpec("rot2_blockdiag", self.n))
        self.V = np.random.default_rng(seed).random((self.n, self.p))

    def _approximate(self, fn, m, spec):
        return fn(self.A, self.V, m, spec).approximation

    def _calls(self, fn, layer):
        specs = {f: self.eb.FunctionSpec.from_name(f) for f in SCALAR}
        return [
            Call(f"{f}_m{m}", layer, partial(self._approximate, fn, m, specs[f]), (f, m))
            for f in SCALAR
            for m in self.ms
        ]

    def calls(self):
        return self._calls(self.eb.mf_ebh, "approx.mf_ebh")

    def baseline_calls(self):
        """The same calls through the extended block Arnoldi baseline."""
        return self._calls(self.eb.mf_eba, "approx.mf_eba")

    def prepare_checks(self):
        # rot2_blockdiag(n) has blocks [[a_i, c], [-c, a_i]] with
        # a_i = (2i-1)/(n+1) and c = 1/2.  With the pair (e, o) read as the
        # complex number e - io, such a block multiplies by z = a + ic, so
        # f(A) multiplies by f(z) = u + iv, which maps (e, o) to
        # (u e + v o, -v e + u o).
        n = self.n
        a = (2.0 * np.arange(1, n // 2 + 1) - 1.0) / (n + 1.0)
        c = 0.5
        even = np.arange(0, n, 2)
        mine = sp.csr_matrix(
            (np.concatenate([a, a, np.full(n // 2, c), np.full(n // 2, -c)]),
             (np.concatenate([even, even + 1, even, even + 1]),
              np.concatenate([even, even + 1, even + 1, even]))),
            shape=(n, n),
        )
        self.setup_problems = []
        if abs(self.A.to_sparse() - mine).max() != 0.0:
            self.setup_problems.append("rot2 operator differs from its definition")
        z = a + 1j * c
        Ve, Vo = self.V[0::2], self.V[1::2]
        self.refs = {}
        for f, fn in SCALAR.items():
            w = fn(z)
            u, v = w.real[:, None], w.imag[:, None]
            ref = np.empty_like(self.V)
            ref[0::2] = u * Ve + v * Vo
            ref[1::2] = -v * Ve + u * Vo
            self.refs[f] = ref

    def check(self, call, out):
        f, m = call.key
        ref = self.refs[f]
        out = np.asarray(out)
        if out.shape != ref.shape:
            return np.inf, [f"{call.label}: shape {out.shape}, expected {ref.shape}"]
        if not np.isfinite(out).all():
            return np.inf, [f"{call.label}: non-finite entries"]
        err = _rel(out - ref, ref)
        tol = EXP_TOL.get(m, OTHER_TOL) if f == "exp" else OTHER_TOL
        if err > tol:
            return err, [f"{call.label}: relative error {err:.3e} > {tol:.0e}"]
        return err, []

    def check_pass(self, errors):
        lo, hi = self.ms
        return [
            f"{f}: error at m={hi} ({errors[(f, hi)]:.3e}) exceeds m={lo} ({errors[(f, lo)]:.3e})"
            for f in SCALAR
            if (f, lo) in errors and (f, hi) in errors and errors[(f, hi)] > errors[(f, lo)]
        ]

    def counters(self, out):
        return {}


class Shifted:
    """Restarted shifted solves (A + sigma I) X = C on convection-diffusion
    operators, one ``solve_shifted`` call per operator and block C."""

    def __init__(self, kinds, grid, n_shifts, m, eps, cycles_ok, blocks=1):
        self.kinds, self.grid = kinds, grid
        self.shifts = np.linspace(0.0, 5.0, n_shifts)
        self.m, self.eps = m, eps
        self.cycles_ok = cycles_ok   # state -> problem text or None
        self.blocks = blocks         # right-hand sides C solved per operator
        self.p = 5

    def setup(self, eb, seed):
        self.eb = eb
        self.ops = {k: eb.gallery(eb.GallerySpec(k, self.grid)) for k in self.kinds}
        n = self.grid * self.grid
        rng = np.random.default_rng(seed)
        self.Cs = [rng.random((n, self.p)) for _ in range(self.blocks)]

    def _solve(self, kind, j):
        eb = self.eb
        problem = eb.ShiftedProblem(self.ops[kind], self.Cs[j], self.shifts,
                                    eps=self.eps, m=self.m, max_restarts=20)
        return eb.solve_shifted(problem)

    def calls(self):
        return [
            Call(k if self.blocks == 1 else f"{k}_C{j}", "shifted.solve_shifted",
                 partial(self._solve, k, j), (k, j))
            for k in self.kinds
            for j in range(self.blocks)
        ]

    def prepare_checks(self):
        self.csr = {k: A.to_sparse().tocsr() for k, A in self.ops.items()}
        self.setup_problems = []

    def check(self, call, state):
        kind, j = call.key
        S, C = self.csr[kind], self.Cs[j]
        K = len(self.shifts)
        X = np.asarray(state.X)
        if X.shape != (K,) + C.shape:
            return np.inf, [f"{call.label}: X has shape {X.shape}"]
        problems = []
        if not np.asarray(state.converged).all():
            problems.append(f"{call.label}: {int((~state.converged).sum())} shifts not converged")
        # ||C - (A + sigma I) X||_F for every shift, from the CSR matrix.
        res = np.array([
            np.linalg.norm(C - (S @ X[k] + s * X[k])) for k, s in enumerate(self.shifts)
        ])
        if not np.isfinite(res).all() or res.max() > AUDIT_TOL:
            k = int(np.argmax(np.where(np.isfinite(res), res, np.inf)))
            problems.append(
                f"{call.label}: direct residual {res[k]:.3e} > {AUDIT_TOL:.0e} at sigma={self.shifts[k]:.4g}"
            )
        cycle_problem = self.cycles_ok(state)
        if cycle_problem:
            problems.append(f"{call.label}: {cycle_problem}")
        return float(res.max() / np.linalg.norm(C)), problems

    def check_pass(self, errors):
        return []

    def counters(self, state):
        return {
            "shifted.cycles": state.restart_count,
            "shifted.reduced_solves": sum(len(h) for h in state.residual_history),
        }


def _at_most_two_cycles(state):
    if state.restart_count > 2:
        return f"{state.restart_count} cycles, the paper's experiment needs at most 2"
    return None


def _restarts_used(state):
    cycles_of = {len(h) for h in state.residual_history}
    if state.restart_count < 2 or len(cycles_of) < 2:
        return (f"{state.restart_count} cycles, shifts converging in cycles {sorted(cycles_of)}: "
                "the workload must exercise restarts")
    return None


def make(name, tiny=False):
    """Build the named workload; ``tiny`` shrinks its inputs for the self-test."""
    if name == "matfun_rot2":
        return MatfunRot2(tiny)
    if name == "shifted_paper":
        # 500 shifts share one basis and converge in one cycle.
        return Shifted(
            ("convdiff_l1", "convdiff_l2"), 12 if tiny else 50, 40 if tiny else 500,
            m=10, eps=2e-8, cycles_ok=_at_most_two_cycles,
        )
    if name == "shifted_restart":
        # Few shifts and a small basis: three cycles with deflation.  Which
        # shifts converge in which cycle depends on C, and with it the work
        # of a call, so a pass solves several blocks C drawn from the seed.
        return Shifted(
            ("convdiff_l2",), 20 if tiny else 150, 10 if tiny else 50,
            m=3, eps=1e-9, cycles_ok=_restarts_used, blocks=4,
        )
    raise KeyError(name)


NAMES = ("matfun_rot2", "shifted_paper", "shifted_restart")

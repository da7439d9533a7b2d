"""Property gate over the drivers and references (ROADMAP item 16).

On random small operators, blocks, m, functions and shifts:

- every driver and ``reference_matfun`` returns finite output or raises an
  ``EbhessError`` (RuntimeWarning is an error through pyproject.toml);
- ``solve_shifted`` gives the same bits, or the same error, with its helper
  thread forced on and forced off.

Some blocks carry one NaN or infinite entry, and some are too wide for the
basis, (2m+1)p > n.
"""

from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ebhess import (
    FactorizedOperator,
    FunctionSpec,
    GallerySpec,
    ShiftedProblem,
    eba_run,
    ebha_run,
    gallery,
    mf_eba,
    mf_ebh,
    reference_matfun,
    shifted,
    solve_shifted,
)
from ebhess.errors import EbhessError

SPECS = [FunctionSpec.from_name(t) for t in ("exp", "sqrt", "expnegsqrt", "log", "expinvx")] + [
    FunctionSpec.resolvent(0.5), FunctionSpec.laurent({-2: 0.5, -1: 1.0, 1: 0.25})]

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


def make_operator(kind, n, rng):
    if kind == "rot2":  # blocks a_i +- ic: |a_i| in [0.1, 1000] of either sign, c = 0 or drawn alike
        a = rng.choice([-1.0, 1.0], n // 2) * 10.0 ** rng.uniform(-1, 3, n // 2)
        return FactorizedOperator.from_rot2(a, rng.choice([0.0, -1.0, 1.0]) * 10.0 ** rng.uniform(-1, 3))
    if kind == "tridiag":  # n^2 tridiag(-1, 2, -1), served by the sine-transform reference
        return gallery(GallerySpec("tridiag_scaled", n))
    if kind == "dense":  # Gaussian plus sqrt(n) I
        return FactorizedOperator.from_dense(rng.standard_normal((n, n)) + np.sqrt(n) * np.eye(n))
    if kind == "sparse":  # random sparse plus a diagonal shift past its row sums
        S = sp.random(n, n, density=0.2, random_state=rng, data_rvs=rng.standard_normal, format="csr")
        return FactorizedOperator.from_sparse(S + sp.eye(n) * (1.0 + abs(S).sum(axis=1).max()))
    # SPD plus 1e-3 I or 1e3 I
    B = rng.standard_normal((n, n))
    return FactorizedOperator.from_dense(B @ B.T / n + 10.0 ** (3 if kind == "spd+" else -3) * np.eye(n))


@st.composite
def problems(draw):
    """An operator, an (n, p) block with one NaN or infinite entry in some
    draws, m, a function and 1-5 shifts on [0, 5]."""
    kind = draw(st.sampled_from(["dense", "sparse", "spd+", "spd-", "rot2", "tridiag"]))
    n, p, m = draw(st.integers(4, 59)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = make_operator(kind, n, rng)
    V = rng.standard_normal((A.n, p))
    bad = draw(st.sampled_from([None] * 6 + [np.nan, np.inf, -np.inf]))
    if bad is not None:
        V[draw(st.integers(0, A.n - 1)), draw(st.integers(0, p - 1))] = bad
    spec = draw(st.sampled_from(SPECS))
    shifts = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=5))
    return A, V, m, spec, shifts


def finite_or_typed(fn, *outputs):
    """Call ``fn``; its result, mapped through ``outputs``, must be finite,
    unless it raises an ``EbhessError``."""
    try:
        result = fn()
    except EbhessError:
        return
    for out in outputs:
        assert np.isfinite(out(result)).all()


@PROPERTY
@given(problems())
def test_finite_output_or_typed_error(problem):
    A, V, m, spec, shifts = problem
    finite_or_typed(lambda: ebha_run(A, V, m), lambda b: b.store, lambda b: b.H, lambda b: b.gamma11)
    finite_or_typed(lambda: eba_run(A, V, m), lambda b: b.store, lambda b: b.T_arnoldi, lambda b: b.lambda11)
    for method in (mf_ebh, mf_eba):
        finite_or_typed(lambda: method(A, V, m, spec), lambda r: r.approximation)
    finite_or_typed(lambda: solve_shifted(ShiftedProblem(A, V, shifts, m=m, max_restarts=3)),
                    lambda s: s.X, lambda s: s.beta0)
    finite_or_typed(lambda: reference_matfun(A, V, spec), lambda out: out)


def shifted_outcome(A, C, shifts, m, helper_min_work):
    """``solve_shifted``'s X, beta0 and converged flags, or its error's type
    and message with the state it carries, with the helper rule's threshold
    set to ``helper_min_work``."""
    with mock.patch.object(shifted, "_HELPER_MIN_WORK", helper_min_work):
        try:
            state, error = solve_shifted(ShiftedProblem(A, C, shifts, m=m, max_restarts=3)), None
        except EbhessError as exc:
            state, error = getattr(exc, "state", None), (type(exc), str(exc))
    bits = None if state is None else (state.X.tobytes(), state.beta0.tobytes(), state.converged.tobytes())
    return bits, error


@PROPERTY
@given(problems())
def test_helper_on_and_off_agree(problem):
    A, C, m, _, shifts = problem
    assert shifted_outcome(A, C, shifts, m, 0) == shifted_outcome(A, C, shifts, m, np.inf)

"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete; every tolerance is pinned here, none is calibrated elsewhere.
"""

import time
from fractions import Fraction

import numpy as np
import scipy.linalg as sla

from ebhess import (
    FunctionSpec,
    GallerySpec,
    ShiftedProblem,
    build_S,
    build_T,
    build_T_direct,
    ebha_run,
    flop_estimate,
    gallery,
    laurent_apply,
    left_apply,
    mf_eba,
    mf_ebh,
    exp_error_bound,
    reference_matfun,
    residual_direct,
    solve_shifted,
)
from ebhess.errors import NotConverged
from _util import (
    dissipative_operator,
    random_block,
    random_sparse_operator,
    relative_error,
    spread_spectrum_operator,
)

FIVE_FUNCTIONS = ("exp", "sqrt", "expnegsqrt", "log", "expinvx")


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_structural_identity_suite():
    t0 = time.perf_counter()
    worst = {"vlv": 0.0, "decomp": 0.0, "t_match": 0.0, "lemma": 0.0}
    pattern_ok = True
    for i in range(20):
        n = 60 + 7 * i
        p = (1, 2, 3)[i % 3]
        m = 2 + i % 4
        A = spread_spectrum_operator(n, 1000 + i)
        basis = ebha_run(A, random_block(n, p, i), m)
        k = 2 * m
        Vb = basis.matrix(k)

        worst["vlv"] = max(
            worst["vlv"], np.linalg.norm(left_apply(basis, Vb, k) - np.eye(k * p))
        )

        proj = build_T(basis)
        AV = A.apply(Vb)
        Em = np.zeros((k * p, 2 * p))
        Em[-2 * p :] = np.eye(2 * p)
        resid = AV - Vb @ proj.T - basis.blocks[k] @ proj.tau @ Em.T
        worst["decomp"] = max(
            worst["decomp"], np.linalg.norm(resid) / np.linalg.norm(AV)
        )

        direct = build_T_direct(basis, A)
        worst["t_match"] = max(
            worst["t_match"],
            np.linalg.norm(proj.T - direct) / np.linalg.norm(direct),
        )

        S, _ = build_S(basis, A)
        E1 = np.zeros((k * p, p))
        E1[:p] = np.eye(p)
        for j in range(1, m + 1):
            lhs = np.linalg.matrix_power(S, j) @ E1
            rhs = np.linalg.solve(np.linalg.matrix_power(proj.T, j), E1)
            worst["lemma"] = max(worst["lemma"], np.linalg.norm(lhs - rhs))

        for r in range(k):
            for c in range(k):
                if (r // 2) > (c // 2) + 1:
                    if not np.all(proj.T[r * p : (r + 1) * p, c * p : (c + 1) * p] == 0.0):
                        pattern_ok = False

    elapsed = time.perf_counter() - t0
    ok = (
        worst["vlv"] <= 1e-11
        and worst["decomp"] <= 1e-10
        and worst["t_match"] <= 1e-10
        and worst["lemma"] <= 1e-8
        and pattern_ok
        and elapsed < 10.0
    )
    _report(
        1,
        "structural identity suite",
        ok,
        f"VLV {worst['vlv']:.1e}, decomp {worst['decomp']:.1e}, "
        f"T {worst['t_match']:.1e}, lemma {worst['lemma']:.1e}, {elapsed:.1f}s",
    )


def test_criterion_2_laurent_exactness():
    worst = 0.0
    for trial in range(50):
        n = 40 + trial
        p = 1 + trial % 2
        m = 2 + trial % 3
        A = random_sparse_operator(n, 2000 + trial)
        V = random_block(n, p, trial)
        rng = np.random.default_rng(3000 + trial)
        coeffs = {int(j): float(rng.standard_normal()) for j in range(-m, m)}
        approx = mf_ebh(A, V, m, FunctionSpec.laurent(coeffs)).approximation
        want = laurent_apply(coeffs, A, V)
        worst = max(worst, np.linalg.norm(approx - want) / np.linalg.norm(want))
    ok = worst <= 1e-8
    _report(2, "Laurent exactness window", ok, f"worst rel {worst:.1e} over 50 trials")


def test_criterion_3_residual_formula_fidelity():
    events = 0
    worst_gap = 0.0
    worst_galerkin = 0.0

    for run in range(6):
        n = 80 + 10 * run
        p = 1 + run % 2
        A = random_sparse_operator(n, 4000 + run)
        C = random_block(n, p, run)
        sigmas = np.linspace(0.0, 2.0, 10)
        normC = np.linalg.norm(C)
        record = []

        def observer(rec):
            for k in rec.active:
                if k not in rec.Y:
                    continue
                direct = residual_direct(A, C, sigmas[k], rec.state.X[k])
                gap = abs(rec.residuals[k] - direct)
                R = C - (A.apply(rec.state.X[k]) + sigmas[k] * rec.state.X[k])
                gal = np.linalg.norm(left_apply(rec.basis, R, 2 * rec.basis.m))
                record.append((gap, gal))

        try:
            solve_shifted(
                ShiftedProblem(A, C, sigmas, m=2, eps=1e-13, max_restarts=10),
                observer=observer,
            )
        except NotConverged:
            pass
        events += len(record)
        worst_gap = max(worst_gap, max(g for g, _ in record) / normC)
        worst_galerkin = max(worst_galerkin, max(g for _, g in record) / normC)

    ok = events >= 200 and worst_gap <= 1e-9 and worst_galerkin <= 1e-10
    _report(
        3,
        "residual formula fidelity",
        ok,
        f"{events} events, gap {worst_gap:.1e}, galerkin {worst_galerkin:.1e}",
    )


def test_criterion_4_exp_bound_validity():
    violations = []
    for i in range(20):
        n = 30 + 2 * i
        A = dissipative_operator(n, 5000 + i, margin=0.3 + 0.05 * i)
        p = 1 + i % 2
        m = 3
        V = random_block(n, p, i)
        basis = ebha_run(A, V, m)
        proj = build_T(basis)
        bound, _, _ = exp_error_bound(A, basis, proj)
        approx = mf_ebh(A, V, m, FunctionSpec.exp()).approximation
        exact = sla.expm(A.to_dense()) @ V
        err = np.linalg.norm(exact - approx, 2)
        if err > bound:
            violations.append((i, err, bound))
    _report(
        4,
        "exp error bound holds",
        not violations,
        f"{20 - len(violations)}/20 instances within bound",
    )


def test_criterion_5_rot2_reproduction_band():
    t0 = time.perf_counter()
    A = gallery(GallerySpec("rot2_blockdiag", size=5000))
    V = np.random.default_rng(7).random((5000, 5))
    errs = {}
    for name in FIVE_FUNCTIONS:
        spec = FunctionSpec.from_name(name)
        ref = reference_matfun(A, V, spec)
        for m in (10, 15):
            errs[(name, m)] = relative_error(mf_ebh(A, V, m, spec), ref)
    elapsed = time.perf_counter() - t0
    monotone = all(errs[(f, 15)] <= errs[(f, 10)] for f in FIVE_FUNCTIONS)
    ok = (
        errs[("exp", 10)] <= 1e-8
        and errs[("exp", 15)] <= 1e-11
        and monotone
        and elapsed < 60.0
    )
    _report(
        5,
        "dense-free gallery error bands",
        ok,
        f"exp m10 {errs[('exp', 10)]:.2e}, m15 {errs[('exp', 15)]:.2e}, "
        f"monotone {monotone}, {elapsed:.1f}s",
    )


def test_criterion_6_shifted_grid_reproduction():
    t0 = time.perf_counter()
    results = {}
    for kind in ("convdiff_l1", "convdiff_l2"):
        A = gallery(GallerySpec(kind, size=50))  # n = 2500
        C = np.random.default_rng(11).random((2500, 5))
        sigmas = np.linspace(0.0, 5.0, 500)
        state = solve_shifted(
            ShiftedProblem(A, C, sigmas, eps=2e-8, m=10, max_restarts=20)
        )
        audit = max(
            residual_direct(A, C, sigmas[k], state.X[k]) for k in range(len(sigmas))
        )
        results[kind] = (state.converged.all(), state.restart_count, audit)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0 and all(
        conv and restarts <= 2 and audit <= 1e-7
        for conv, restarts, audit in results.values()
    )
    detail = ", ".join(
        f"{k}: restarts {r}, audit {a:.1e}" for k, (c, r, a) in results.items()
    )
    _report(6, "shifted solver grid reproduction", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_7_cross_method_agreement():
    A = gallery(GallerySpec("toeplitz_inv_dist", size=60))
    V = random_block(60, 2, 5)
    worst = 0.0
    for name in FIVE_FUNCTIONS:
        spec = FunctionSpec.from_name(name)
        a = mf_ebh(A, V, 8, spec).approximation
        b = mf_eba(A, V, 8, spec).approximation
        worst = max(worst, np.linalg.norm(a - b) / np.linalg.norm(b))
    ok = worst <= 1e-6
    _report(7, "cross-method agreement", ok, f"worst rel diff {worst:.1e}")


def test_criterion_8_flop_formula_parity():
    def oracle(n, p, m, nnz):
        n, p, nnz = Fraction(n), Fraction(p), Fraction(nnz)
        c1 = p * nnz
        c2 = n * (n + 1) * p
        c4 = Fraction(5, 3) * p**3 + p**2
        c5 = n * p**2
        c3 = lambda q: q**2 * (n - q / 3)
        total = c3(2 * p)
        for j in range(1, m + 1):
            total += c1
            for _ in range(2 * j):
                total += c4 + c5
            total += c3(p)
            total += c2
            for _ in range(2 * j + 1):
                total += c4 + c5
            total += c3(p)
        return float(total)

    rng = np.random.default_rng(42)
    exact = True
    for _ in range(10):
        n = int(rng.integers(10, 100000))
        p = int(rng.integers(1, 20))
        m = int(rng.integers(1, 30))
        nnz = int(rng.integers(n, 50 * n))
        summed, _ = flop_estimate(n, p, m, nnz)
        if summed != oracle(n, p, m, nnz):
            exact = False
    _report(8, "flop formula parity", exact, "10 random tuples, exact equality")

"""Shared generators for the test suite."""

import itertools

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ebhess import FactorizedOperator


def random_sparse_operator(n, seed, density=0.08):
    """Random sparse nonsingular operator, diagonally dominant and unit scale."""
    rng = np.random.default_rng(seed)
    nnz = max(n, int(density * n * n))
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.standard_normal(nnz)
    S = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    shift = 1.0 + np.abs(S).sum(axis=1).max()
    return FactorizedOperator.from_sparse((S + sp.eye(n) * shift) / shift)


def spread_spectrum_operator(n, seed, coupling=0.4):
    """Random sparse nonsingular operator with spectrum spread over ~[1, 4].

    Keeps the basis recursion well conditioned: a spectrum hugging a point
    (near-identity operators) degenerates the extended directions, while one
    reaching toward 0 inflates the inverse-direction coefficients.
    """
    rng = np.random.default_rng(seed)
    nnz = max(n, int(0.08 * n * n))
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.standard_normal(nnz)
    S = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    rowsum = np.abs(S).sum(axis=1).max()
    D = sp.diags(rng.uniform(1.0, 4.0, n))
    return FactorizedOperator.from_sparse(D + S * (coupling / rowsum))


def dissipative_operator(n, seed, margin=0.3):
    """Dense operator with mu2(A) = -margin exactly (up to eigvalsh accuracy)."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    lam = np.linalg.eigvalsh(0.5 * (M + M.T)).max()
    return FactorizedOperator.from_dense(M - (lam + margin) * np.eye(n))


def nan_after(base, broken, calls):
    """``base`` with its ``broken`` action ("apply" or "solve") returning
    all-NaN blocks once it has made ``calls`` good calls."""
    actions = {"apply": base.apply, "solve": base.solve}
    good, made = actions[broken], itertools.count(1)
    actions[broken] = lambda B: good(B) if next(made) <= calls else np.full(B.shape, np.nan)
    return FactorizedOperator(base.n, actions["apply"], actions["solve"],
                              base.to_sparse, base.structure)


def nan_operator(n, seed, broken):
    """A random sparse operator whose ``broken`` action ("apply" or "solve")
    returns all-NaN blocks."""
    return nan_after(random_sparse_operator(n, seed), broken, 0)


def random_block(n, p, seed):
    return np.random.default_rng(seed).random((n, p))


def reference_plu(M):
    """Pivoted LU as first written: lu_factor, a tril copy and a scatter over all rows."""
    n, p = M.shape
    lu, piv = sla.lu_factor(M)
    perm = np.arange(n)
    for i, j in enumerate(piv):
        perm[i], perm[j] = perm[j], perm[i]
    L = np.tril(lu, -1)[:, :p]
    L[np.arange(p), np.arange(p)] += 1.0
    PL = np.empty_like(L)
    PL[perm, :] = L
    return PL, np.triu(lu[:p, :]), perm[:p]

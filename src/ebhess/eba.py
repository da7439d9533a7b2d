"""Extended block Arnoldi process: the orthonormal-basis baseline.

Builds the same extended block Krylov space as the pivoted Hessenberg process
but with block classical Gram-Schmidt (one full reorthogonalization pass) and
QR normalization, and projects A by a direct product with the basis.
"""

from dataclasses import dataclass, field

import numpy as np

from .dense import BREAKDOWN_TOL
from .ebh import BlockStore, start_block
from .errors import Breakdown


@dataclass
class OrthoBasis(BlockStore):
    """Jointly orthonormal blocks U_1..U_{2m+2} with the projected matrix.

    ``store`` holds the blocks; ``blocks`` and ``matrix()`` are read-only
    views of it (see :class:`BlockStore`).
    """

    n: int
    p: int
    m: int
    store: np.ndarray = field(repr=False)
    T_arnoldi: np.ndarray = field(repr=False)
    lambda11: np.ndarray = field(repr=False)


def _qr_normalize(W, step):
    scale = np.abs(W).max(initial=0.0)
    Q, R = np.linalg.qr(W)
    d = np.abs(np.diag(R))
    if scale == 0.0 or d.min() <= BREAKDOWN_TOL * scale * W.shape[0]:
        raise Breakdown(step)
    return Q, R


def eba_run(A, V, m):
    """Run m steps of the extended block Arnoldi process.

    Mirrors the pivoted process block for block; orthonormality replaces the
    pivoting invariants and the projected matrix is computed directly as the
    basis-transposed product with A applied to the basis, masked to its block
    upper Hessenberg pattern.
    """
    V, n, p = start_block(A, V, m)
    U1, lam11 = _qr_normalize(V, 1)
    store = np.empty((n, (2 * m + 2) * p), order="F")

    def block(k):
        return store[:, k * p : (k + 1) * p]

    def extend(k, W):
        # Orthogonalize W against blocks 0..k-1 and store it as block k.
        raw_scale = np.abs(W).max(initial=0.0)
        Ub = store[:, : k * p]
        W = W - Ub @ (Ub.T @ W)
        W = W - Ub @ (Ub.T @ W)  # one full reorthogonalization pass
        if np.abs(W).max(initial=0.0) <= BREAKDOWN_TOL * raw_scale:
            raise Breakdown(k + 1)
        Q, _ = _qr_normalize(W, k + 1)
        block(k)[...] = Q

    block(0)[...] = U1
    extend(1, A.solve(V))
    for j in range(1, m + 1):
        extend(2 * j, A.apply(block(2 * j - 2)))
        extend(2 * j + 1, A.solve(block(2 * j - 1)))

    Ub = store[:, : 2 * m * p]
    T = Ub.T @ A.apply(Ub)
    _mask_hessenberg(T, p)
    return OrthoBasis(n, p, m, store, T, lam11)


def _mask_hessenberg(T, p):
    # Zero everything below the 2p-block subdiagonal; those entries are
    # structural zeros contaminated only by orthogonalization roundoff.
    k = T.shape[0] // p
    for r in range(k):
        for c in range(k):
            if (r // 2) > (c // 2) + 1:
                T[r * p : (r + 1) * p, c * p : (c + 1) * p] = 0.0

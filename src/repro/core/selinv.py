"""Selected inversion of ``R^T R`` (paper §4, Algorithms 1 and 2).

The covariance of the least-squares estimate is
``cov(u^) = (R^T R)^{-1}``; Kalman smoothing needs its *diagonal
blocks* ``cov(u^_i)``.  The paper adapts the SelInv algorithm via the
mapping ``D_jj = R_jj^T R_jj``, ``L_Ij = R_jI^T R_jj^{-T}``, which
yields for every block row ``j`` (with ``I`` the off-diagonal nonzero
columns of that row):

    ``N_j   = R_jj^{-1} R_jI``
    ``S_jI  = -N_j S_II``
    ``S_jj  = R_jj^{-1} R_jj^{-T} - S_jI N_j^T``

computing exactly the blocks of ``S = (R^T R)^{-1}`` that are nonzero
in ``R``.

* :func:`selinv_bidiagonal` — Algorithm 1: the sequential sweep
  ``j = k-1 .. 0`` over a Paige–Saunders bidiagonal factor, where
  ``I = {j+1}``.
* :func:`selinv_oddeven` — Algorithm 2: recursion-ordered processing
  of the odd-even factor; all even columns of a level are independent
  because their ``I`` sets reference only columns of deeper levels, so
  each level runs as stacked calls over its columns.
  ``|I| <= 2``, and the cross block ``S_{a,b}`` needed when
  ``I = {a, b}`` corresponds to consecutive columns of the next level,
  hence to an ``R``-nonzero computed by the deeper recursion — the
  structural fact that makes the paper's adaptation work.
"""

from __future__ import annotations

import numpy as np

from ..linalg.flops import matmul_bytes, matmul_flops, trsm_bytes, trsm_flops
from ..linalg.triangular import (
    instrumented_matmul,
    mat_transpose as _t,
    solve_upper,
    tri_inverse,
)
from ..linalg.xp import get_namespace
from ..parallel.backend import Backend, SerialBackend
from .rfactor import BidiagonalR, OddEvenR
from .solve import _slices, level_diagonals
from .stacked import gather, stack, stacked

__all__ = ["selinv_bidiagonal", "selinv_oddeven", "SelInvResult"]


class SelInvResult:
    """Diagonal covariance blocks plus the computed cross blocks.

    ``cross[(a, b)]`` (with ``a < b`` in original indices) holds
    ``S_{a,b}`` for every pair where ``R`` has a nonzero block —
    useful for lag-one smoother covariances and verified against the
    dense inverse in the tests.
    """

    def __init__(
        self,
        diagonal: list[np.ndarray],
        cross: dict[tuple[int, int], np.ndarray],
    ):
        self.diagonal = diagonal
        self.cross = cross

    def __getitem__(self, i: int) -> np.ndarray:
        return self.diagonal[i]

    def __len__(self) -> int:
        return len(self.diagonal)


def _diag_inverse_product(diag: np.ndarray) -> np.ndarray:
    """``R_jj^{-1} R_jj^{-T}`` via one triangular inversion."""
    rinv = tri_inverse(diag)
    return instrumented_matmul(rinv, _t(rinv))


def selinv_bidiagonal(factor: BidiagonalR) -> SelInvResult:
    """Algorithm 1: selected inversion of a block-bidiagonal ``R``.

    Each iteration costs two matrix products and three triangular
    solves with ``n`` right-hand sides, preserving the ``Theta(k n^3)``
    total of the Paige–Saunders smoother.
    """
    k = factor.k
    diag_s: list[np.ndarray | None] = [None] * (k + 1)
    cross: dict[tuple[int, int], np.ndarray] = {}
    last = factor.diag[k]
    n_last = last.shape[1]
    if last.shape[0] < n_last:
        raise np.linalg.LinAlgError(
            f"final diagonal block has {last.shape[0]} rows < {n_last}; "
            "the problem is rank deficient"
        )
    diag_s[k] = _diag_inverse_product(last[:n_last])
    for j in range(k - 1, -1, -1):
        rjj = factor.diag[j]
        n = rjj.shape[1]
        if rjj.shape[0] < n:
            raise np.linalg.LinAlgError(
                f"diagonal block {j} has {rjj.shape[0]} rows < {n}; the "
                "problem is rank deficient"
            )
        rjj = rjj[:n]
        nj = solve_upper(rjj, factor.offdiag[j][:n])
        s_cross = -instrumented_matmul(nj, diag_s[j + 1])
        cross[(j, j + 1)] = s_cross
        diag_s[j] = _diag_inverse_product(rjj) - instrumented_matmul(
            s_cross, nj.T
        )
    return SelInvResult([s for s in diag_s], cross)  # type: ignore[arg-type]


def _selinv_step(diag, r_ji, s_ii):
    """Algorithm 2's update for one stack of rows with couplings."""
    base = _diag_inverse_product(diag)
    nj = solve_upper(diag, r_ji)
    s_ji = -instrumented_matmul(nj, s_ii)
    s_jj = base - instrumented_matmul(s_ji, _t(nj))
    return s_jj, s_ji


def _selinv_costs(slices: int, n: int, k: int) -> list:
    """Per-column charges: ``R_jj^{-1} R_jj^{-T}``, plus ``N_j`` and the
    two products when the row has couplings (``k`` coupled columns)."""
    costs = []
    if n:
        costs.append((slices * trsm_flops(n, n), slices * trsm_bytes(n, n)))
    costs.append(
        (slices * matmul_flops(n, n, n), slices * matmul_bytes(n, n, n))
    )
    if k:
        if n:
            costs.append(
                (slices * trsm_flops(n, k), slices * trsm_bytes(n, k))
            )
        costs.append(
            (slices * matmul_flops(n, k, k), slices * matmul_bytes(n, k, k))
        )
        costs.append(
            (slices * matmul_flops(n, k, n), slices * matmul_bytes(n, k, n))
        )
    return costs


def selinv_oddeven(
    factor: OddEvenR, backend: Backend | None = None
) -> SelInvResult:
    """Algorithm 2: parallel selected inversion of the odd-even ``R``.

    Levels are processed deepest-first (the recursion's "odd columns
    first"); within a level every column is independent, so the level
    groups its columns by row shape and runs each group as stacked
    calls (:mod:`repro.core.stacked`).  For a batched factor (see
    :mod:`repro.batch`) every covariance block is a ``(B, n, n)``
    stack.  ``backend`` receives each level's per-column kernel costs.
    """
    if backend is None:
        backend = SerialBackend()
    diag_s: dict = {}
    cross: dict[tuple[int, int], np.ndarray] = {}

    def get_cross(a: int, b: int) -> np.ndarray:
        """``S_{a,b}`` in (rows=a, cols=b) orientation for any order."""
        if a <= b:
            return cross[(a, b)]
        return _t(cross[(b, a)])

    slices = _slices(factor)
    for level_idx in reversed(range(len(factor.levels))):
        cols = factor.levels[level_idx]
        for members, diag in level_diagonals(factor, cols):
            rows = [factor.rows[c] for c in members]
            n = rows[0].n
            xp = get_namespace(diag)
            i_cols = [row.offdiag_cols() for row in rows]
            couplings = len(i_cols[0])
            if not couplings:
                s_jj = stacked(_diag_inverse_product, diag, tail=(2,))
            else:
                r_ji = xp.concatenate(
                    [
                        stack(
                            [row.offdiag[j][1][..., :n, :] for row in rows]
                        )
                        for j in range(couplings)
                    ],
                    axis=-1,
                )
                # Assemble S_II from previously-computed deeper-level
                # blocks: S_aa, and with two couplings also S_ab, S_ba
                # and S_bb.
                s_ii = gather([diag_s[i[0]] for i in i_cols])
                if couplings == 2:
                    s_ab = stack([get_cross(a, b) for a, b in i_cols])
                    s_bb = gather([diag_s[i[1]] for i in i_cols])
                    s_ii = xp.concatenate(
                        [
                            xp.concatenate([s_ii, s_ab], axis=-1),
                            xp.concatenate([_t(s_ab), s_bb], axis=-1),
                        ],
                        axis=-2,
                    )
                s_jj, s_ji = stacked(
                    _selinv_step, diag, r_ji, s_ii, tail=(2, 2, 2)
                )
                lo = 0
                for j in range(couplings):
                    hi = lo + factor.dims[i_cols[0][j]]
                    block = s_ji[..., lo:hi]
                    blocks, flipped = list(block), list(_t(block))
                    for t, c in enumerate(members):
                        other = i_cols[t][j]
                        if c <= other:
                            cross[(c, other)] = blocks[t]
                        else:
                            cross[(other, c)] = flipped[t]
                    lo = hi
            # Symmetrize: roundoff accumulates asymmetrically through
            # the two matrix products.
            sym = 0.5 * (s_jj + _t(s_jj))
            for t, c in enumerate(members):
                diag_s[c] = (sym, t)
        backend.record_costs(
            cols,
            lambda c: _selinv_costs(
                slices,
                factor.rows[c].n,
                sum(factor.dims[o] for o in factor.rows[c].offdiag_cols()),
            ),
            phase=f"oddeven/selinv/L{level_idx}",
        )

    ordered = [base[t] for base, t in map(diag_s.get, range(len(factor.dims)))]
    return SelInvResult(ordered, cross)

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
  each level runs as stacked calls over its row groups
  (:class:`~repro.core.rfactor.RowGroup`).
  ``|I| <= 2``, and the cross block ``S_{a,b}`` needed when
  ``I = {a, b}`` corresponds to consecutive columns of the next level,
  hence to an ``R``-nonzero computed by the deeper recursion — the
  structural fact that makes the paper's adaptation work.

Like the solves (:mod:`repro.core.solve`), Algorithm 2 keeps its
results in stores rather than per column: the diagonal blocks ``S_jj``
in one array per state dimension, and the cross blocks ``S_{a,b}``
(``a < b``) in one array per pair of dimensions ``(n_a, n_b)``.  Its
first ``count(n_b)`` entries hold the blocks that rows ``b`` computed
for their left coupling ``a``, at ``b``'s slot; the rest hold the
blocks that rows ``a`` computed for their right coupling ``b``, at
``a``'s slot.  ``S_{a,b}`` is therefore read from the entry of
whichever of ``a`` and ``b`` was eliminated first.  Every group fetches
and writes these blocks with one integer-index operation per coupling.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping

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
from .solve import _by_column, _column_costs, _slices, _stores, level_diagonals
from .stacked import stacked

__all__ = ["selinv_bidiagonal", "selinv_oddeven", "SelInvResult"]


class SelInvResult:
    """Diagonal covariance blocks plus the computed cross blocks.

    ``cross[(a, b)]`` (with ``a < b`` in original indices) holds
    ``S_{a,b}`` for every pair where ``R`` has a nonzero block —
    useful for lag-one smoother covariances and verified against the
    dense inverse in the tests.  It is a read-only mapping; ``cross``
    may be given as a function that builds it on first access.
    """

    def __init__(
        self,
        diagonal: list[np.ndarray],
        cross: dict[tuple[int, int], np.ndarray] | Callable[[], dict],
    ):
        self.diagonal = diagonal
        self._cross = cross

    @property
    def cross(self) -> Mapping[tuple[int, int], np.ndarray]:
        if callable(self._cross):
            self._cross = self._cross()
        return MappingProxyType(self._cross)

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
    runs each of its row groups as stacked calls
    (:mod:`repro.core.stacked`).  For a batched factor (see
    :mod:`repro.batch`) every covariance block is a ``(B, n, n)``
    stack.  ``backend`` receives each level's per-column kernel costs.
    """
    if backend is None:
        backend = SerialBackend()
    slots, counts = factor.slots, factor.dim_counts
    first = factor.groups[0][0].diag
    xp = get_namespace(first)
    diag_s = _stores(factor, first.dtype, lambda n: (n, n))
    cross: dict = {}

    def cross_store(p: int, q: int):
        """The cross blocks ``S_{a,b}``, ``a < b``, of dimensions
        ``(n_a, n_b) = (p, q)``."""
        store = cross.get((p, q))
        if store is None:
            lead = (counts[q] + counts[p],) + factor.batch_shape
            store = cross[p, q] = xp.zeros(lead + (p, q), dtype=first.dtype)
        return store

    slices = _slices(factor)
    for level_idx in reversed(range(len(factor.levels))):
        for g in level_diagonals(factor, level_idx):
            n = g.n
            at = slots[g.cols]
            if not g.couplings:
                s_jj = stacked(_diag_inverse_product, g.square, tail=(2,))
            else:
                blocks = [block[..., :n, :] for _c, block in g.couplings]
                r_ji = (
                    blocks[0]
                    if len(blocks) == 1
                    else xp.concatenate(blocks, axis=-1)
                )
                # Assemble S_II from previously-computed deeper-level
                # blocks: S_aa, and with two couplings also S_ab, S_ba
                # and S_bb.
                a = g.couplings[0][0]
                m_a = blocks[0].shape[-1]
                s_ii = diag_s[m_a][slots[a]]
                if len(blocks) == 2:
                    b = g.couplings[1][0]
                    m_b = blocks[1].shape[-1]
                    s_ab = cross_store(m_a, m_b)[
                        np.where(
                            factor.level_of[a] < factor.level_of[b],
                            counts[m_b] + slots[a],
                            slots[b],
                        )
                    ]
                    s_bb = diag_s[m_b][slots[b]]
                    s_ii = xp.concatenate(
                        [
                            xp.concatenate([s_ii, s_ab], axis=-1),
                            xp.concatenate([_t(s_ab), s_bb], axis=-1),
                        ],
                        axis=-2,
                    )
                s_jj, s_ji = stacked(
                    _selinv_step, g.square, r_ji, s_ii, tail=(2, 2, 2)
                )
                lo = 0
                for others, block in g.couplings:
                    m = block.shape[-1]
                    s_jo = s_ji[..., lo : lo + m]
                    if others[0] > g.cols[0]:
                        cross_store(n, m)[counts[m] + at] = s_jo
                    else:
                        cross_store(m, n)[at] = _t(s_jo)
                    lo += m
            # Symmetrize: roundoff accumulates asymmetrically through
            # the two matrix products.
            diag_s[n][at] = 0.5 * (s_jj + _t(s_jj))
        backend.record_costs(
            factor.levels[level_idx],
            _column_costs(
                factor,
                level_idx,
                lambda n, others: _selinv_costs(slices, n, sum(others)),
            ),
            phase=f"oddeven/selinv/L{level_idx}",
        )
    return SelInvResult(
        _by_column(factor, diag_s), lambda: _cross_blocks(factor, cross)
    )


def _cross_blocks(factor: OddEvenR, cross: dict) -> dict:
    """``S_{a,b}`` keyed ``(a, b)``, ``a < b``, as views of the stores."""
    slots, counts = factor.slots, factor.dim_counts
    out = {}
    for groups in reversed(factor.groups):
        for g in groups:
            n = g.n
            for others, block in g.couplings:
                m = block.shape[-1]
                if others[0] > g.cols[0]:
                    store = cross[n, m]
                    pairs = zip(g.cols.tolist(), others.tolist())
                    at = counts[m] + slots[g.cols]
                else:
                    store = cross[m, n]
                    pairs = zip(others.tolist(), g.cols.tolist())
                    at = slots[g.cols]
                for pair, i in zip(pairs, at.tolist()):
                    out[pair] = store[i]
    return out

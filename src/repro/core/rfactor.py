"""Factor data structures produced by the QR smoothers.

Two triangular factors appear in this codebase:

* :class:`BidiagonalR` — the block-bidiagonal ``R`` of the sequential
  Paige–Saunders factorization (diagonal blocks ``R_ii`` plus
  superdiagonal blocks ``R_{i,i+1}``).
* :class:`OddEvenR` — the recursively-structured ``R`` of the paper's
  odd-even factorization (Fig 1): each block row has a pivot column,
  up to two off-diagonal blocks in columns eliminated at *later*
  levels, and the transformed right-hand side.  The factor keeps each
  level's rows as the stacks the elimination computed them in: one
  :class:`RowGroup` per run of rows with equal block shapes, holding
  the members' columns as an integer array, the diagonal stack, one
  ``(columns, block stack)`` pair per coupling and the RHS stack.
  Back substitution and SelInv read the groups whole; the per-column
  :class:`RBlockRow` views exist only on request (:attr:`OddEvenR.rows`).

Both factors satisfy ``R^T R = (U A P)^T (U A P)`` for their respective
column permutation ``P`` and carry the accumulated residual of the
least-squares problem (the squared RHS mass annihilated with zero
coefficient rows).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..linalg.blocks import BlockLayout

__all__ = ["BidiagonalR", "RBlockRow", "RowGroup", "OddEvenR"]


@dataclass
class BidiagonalR:
    """Block-bidiagonal triangular factor (Paige–Saunders ordering)."""

    diag: list[np.ndarray]
    offdiag: list[np.ndarray]
    rhs: list[np.ndarray]
    residual_sq: float = 0.0

    def __post_init__(self):
        if len(self.offdiag) != max(len(self.diag) - 1, 0):
            raise ValueError(
                f"{len(self.diag)} diagonal blocks need "
                f"{len(self.diag) - 1} superdiagonal blocks, got "
                f"{len(self.offdiag)}"
            )

    @property
    def k(self) -> int:
        return len(self.diag) - 1

    @property
    def dims(self) -> list[int]:
        return [d.shape[1] for d in self.diag]

    def to_dense(self) -> np.ndarray:
        """Materialize the full upper-triangular factor (tests)."""
        layout = BlockLayout.from_dims(self.dims)
        out = np.zeros((layout.total, layout.total))
        for i, d in enumerate(self.diag):
            sl = layout.slice(i)
            out[sl, sl] = d[: layout.dim(i), :]
            if i < self.k:
                out[sl, layout.slice(i + 1)] = self.offdiag[i][
                    : layout.dim(i), :
                ]
        return out

    def structure_rows(self) -> list[tuple[int, list[int]]]:
        return [
            (i, [i + 1] if i < self.k else [])
            for i in range(len(self.diag))
        ]


@dataclass(frozen=True)
class RBlockRow:
    """One block row of the odd-even factor, as a read-only view.

    ``col`` is the *original* block-column index of the pivot;
    ``offdiag`` lists ``(original_column, block)`` pairs for columns
    eliminated at deeper levels (so the factor is upper triangular in
    elimination order); ``level`` records the recursion level at which
    the row became permanent.  The blocks are views of the row's
    :class:`RowGroup`.

    Blocks are 2-D for a single sequence, or ``(B, rows, cols)`` stacks
    (with ``(B, rows)`` RHS arrays) when the factor was produced by a
    batched elimination — every shape query therefore addresses the
    trailing axes.
    """

    col: int
    diag: np.ndarray
    offdiag: tuple[tuple[int, np.ndarray], ...]
    rhs: np.ndarray
    level: int

    @property
    def n(self) -> int:
        return self.diag.shape[-1]

    def offdiag_cols(self) -> list[int]:
        return [c for c, _b in self.offdiag]


@dataclass(eq=False)
class RowGroup:
    """Block rows of one elimination level that share their block shapes.

    ``cols`` holds the members' original columns as an integer array;
    member ``t``'s blocks are slice ``t`` of the stacks: ``diag``
    (``(N, *batch, rows, n)``), ``rhs`` (``(N, *batch, rows)``) and, per
    coupling, the block stack of a ``(cols, block)`` pair whose ``cols``
    names the coupled column of each member.  A level's couplings are
    to the left and right neighbours of its columns, so every member of
    a pair sits on the same side of its coupled column.

    ``square`` is the checked ``(N, *batch, n, n)`` diagonal stack; the
    solves set it on first use (:func:`repro.core.solve.level_diagonals`).
    """

    cols: np.ndarray
    diag: np.ndarray
    couplings: tuple[tuple[np.ndarray, np.ndarray], ...]
    rhs: np.ndarray
    square: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.diag.shape[-1]

    def row(self, t: int, level: int) -> RBlockRow:
        """Member ``t`` as one block row."""
        return RBlockRow(
            col=int(self.cols[t]),
            diag=self.diag[t],
            offdiag=tuple(
                (int(cols[t]), block[t]) for cols, block in self.couplings
            ),
            rhs=self.rhs[t],
            level=level,
        )


@dataclass(eq=False)
class OddEvenR:
    """The recursive odd-even triangular factor ``R`` with ``Q^T U b``.

    ``levels[l]`` lists the original columns eliminated at recursion
    level ``l``; the last level holds the single base column.  The
    elimination order (all levels concatenated) is the column
    permutation ``P`` of the factorization ``Q R = U A P``.

    ``groups[l]`` holds level ``l``'s block rows as the stacks the
    elimination computed them in (:class:`RowGroup`): the consumers
    (:mod:`repro.core.solve`, :mod:`repro.core.selinv`) read them whole.
    :attr:`rows` builds one :class:`RBlockRow` view per column, on first
    use, for structure studies, :meth:`to_dense` and the tests.
    """

    groups: list[list[RowGroup]] = field(default_factory=list)
    levels: list[list[int]] = field(default_factory=list)
    dims: list[int] = field(default_factory=list)
    residual_sq: float = 0.0

    @property
    def k(self) -> int:
        return len(self.dims) - 1

    @property
    def order(self) -> list[int]:
        """Elimination order of the original block columns."""
        return [c for level in self.levels for c in level]

    @property
    def batch_shape(self) -> tuple:
        """Leading batch axes (empty for a single-sequence factor)."""
        return tuple(self.groups[0][0].diag.shape[1:-2])

    def depth(self) -> int:
        """Number of recursion levels (``Theta(log k)``, §3.3)."""
        return len(self.levels)

    @functools.cached_property
    def dim_counts(self) -> dict[int, int]:
        """Number of columns of each state dimension."""
        return dict(Counter(self.dims))

    @functools.cached_property
    def slots(self) -> np.ndarray:
        """Each column's index among the columns of its state dimension:
        its entry in a store that keeps one stack per dimension."""
        dims = np.asarray(self.dims)
        slots = np.empty(len(dims), dtype=np.intp)
        for n, count in self.dim_counts.items():
            slots[dims == n] = np.arange(count)
        return slots

    @functools.cached_property
    def level_of(self) -> np.ndarray:
        """The elimination level of each column."""
        out = np.empty(len(self.dims), dtype=np.intp)
        for level, groups in enumerate(self.groups):
            for g in groups:
                out[g.cols] = level
        return out

    @functools.cached_property
    def rows(self) -> Mapping[int, RBlockRow]:
        """One read-only :class:`RBlockRow` per column, in elimination
        order."""
        rows = {
            int(c): g.row(t, level)
            for level, groups in enumerate(self.groups)
            for g in groups
            for t, c in enumerate(g.cols)
        }
        return MappingProxyType({c: rows[c] for c in self.order})

    def row(self, col: int) -> RBlockRow:
        return self.rows[col]

    def structure_rows(self) -> list[tuple[int, list[int]]]:
        """Structure description consumed by Fig 1 rendering."""
        return [(col, row.offdiag_cols()) for col, row in self.rows.items()]

    def validate(self) -> None:
        """Internal consistency checks (used by tests)."""
        seen = sorted(self.order)
        if seen != list(range(len(self.dims))):
            raise AssertionError(
                f"elimination order {self.order} is not a permutation of "
                f"0..{len(self.dims) - 1}"
            )
        elim_pos = {c: i for i, c in enumerate(self.order)}
        for level, groups in zip(self.levels, self.groups):
            held = sorted(c for g in groups for c in g.cols.tolist())
            if held != sorted(level):
                raise AssertionError(
                    f"row groups hold columns {held}, their level {level}"
                )
            for g in groups:
                for col in g.cols.tolist():
                    if g.n != self.dims[col]:
                        raise AssertionError(
                            f"row {col}: diagonal block has shape "
                            f"{g.diag.shape}"
                        )
                for cols, block in g.couplings:
                    for col, other in zip(g.cols.tolist(), cols.tolist()):
                        if elim_pos[other] <= elim_pos[col]:
                            raise AssertionError(
                                f"row {col} references column {other} "
                                "eliminated earlier: factor is not upper "
                                "triangular"
                            )
                        if block.shape[-2:] != (
                            g.diag.shape[-2],
                            self.dims[other],
                        ):
                            raise AssertionError(
                                f"row {col}: off-diagonal block to {other} "
                                f"has shape {block.shape}"
                            )

    def to_dense(self) -> np.ndarray:
        """The permuted factor as one dense upper-triangular matrix.

        Rows and columns appear in elimination order, so the result is
        genuinely upper triangular; tests verify
        ``R^T R = (U A P)^T (U A P)``.
        """
        order = self.order
        layout = BlockLayout.from_dims([self.dims[c] for c in order])
        pos = {c: i for i, c in enumerate(order)}
        out = np.zeros((layout.total, layout.total))
        for col, row in self.rows.items():
            i = pos[col]
            rows_here = min(row.diag.shape[0], layout.dim(i))
            sl = layout.slice(i)
            out[sl, sl][:rows_here] = row.diag[:rows_here]
            for other, block in row.offdiag:
                out[sl, layout.slice(pos[other])][:rows_here] = block[
                    :rows_here
                ]
        return out

    def rhs_dense(self) -> np.ndarray:
        """The transformed right-hand side in elimination order."""
        return np.concatenate([row.rhs for row in self.rows.values()])

    def nonzero_blocks(self) -> int:
        return sum(
            len(g.cols) * (1 + len(g.couplings))
            for groups in self.groups
            for g in groups
        )

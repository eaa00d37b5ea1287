"""Back substitution for the odd-even factor (paper §3.1).

With the factorization ``Q R = U A P`` and transformed right-hand side
``Q^T U b`` in hand, the smoothed trajectory solves
``R P^T u = Q^T U b``.  The solve follows the recursion in reverse:
the base column first, then each level's even columns *in parallel* —
every even column's block row references only columns eliminated at
deeper levels, whose states are already known.  Each column costs one
or two small GEMVs plus one triangular solve.

The factor keeps each level's rows as row groups
(:class:`~repro.core.rfactor.RowGroup`), and the solves run each group
as stacked calls (:mod:`repro.core.stacked`).  Solved values live in
*stores*: one array per state dimension, allocated through the array
namespace, in which column ``c`` is entry ``factor.slots[c]``.  A group
fetches the states it couples to, and writes its own, with one
integer-index operation per coupling; nothing is kept per column.
"""

from __future__ import annotations

import numpy as np

from ..linalg.flops import matmul_bytes, matmul_flops, trsm_bytes, trsm_flops
from ..linalg.triangular import (
    batch_count,
    check_triangular_system,
    instrumented_matvec,
    mat_transpose,
    solve_upper,
    solve_upper_transpose,
)
from ..linalg.xp import get_namespace, to_host
from ..parallel.backend import Backend, SerialBackend
from .rfactor import OddEvenR, RBlockRow, RowGroup
from .stacked import stack, stacked

__all__ = ["oddeven_back_substitute", "oddeven_rt_solve", "square_diag"]


def square_diag(row: RBlockRow) -> np.ndarray:
    """The square triangular diagonal block of a row, validated.

    Raises a descriptive error when the factorization left fewer than
    ``n`` rows in the pivot — the least-squares problem does not
    determine that state (rank deficiency at this column).
    """
    n = row.n
    if row.diag.shape[-2] < n:
        raise np.linalg.LinAlgError(
            f"block column {row.col} is rank deficient: only "
            f"{row.diag.shape[-2]} of {n} pivot rows survive; state "
            f"{row.col} is not determined by the problem"
        )
    diag = row.diag[..., :n, :]
    check_triangular_system(diag, what=f"R[{row.col},{row.col}]")
    return diag


def level_diagonals(factor: OddEvenR, level: int) -> list[RowGroup]:
    """The row groups of ``level``, each with its square diagonal checked.

    A group's square diagonal stack is sliced and checked by one
    vectorized test the first time any solve asks for it, and kept as
    :attr:`RowGroup.square`.  When a check fails, the first failing
    column in level order raises :func:`square_diag`'s error (its batch
    slices name the failing sequences of a batched factor).
    """
    groups = factor.groups[level]
    bad = []
    for g in groups:
        if g.square is not None:
            continue
        n_rows, n = g.diag.shape[-2:]
        if n_rows < n:
            bad.append((g, np.ones(len(g.cols), dtype=bool)))
            continue
        diag = g.diag[..., :n, :]
        d = np.diagonal(to_host(diag), axis1=-2, axis2=-1)
        if not (np.isfinite(d).all() and d.all()):
            flags = (d == 0.0) | ~np.isfinite(d)
            bad.append((g, flags.reshape(len(g.cols), -1).any(axis=-1)))
            continue
        g.square = diag
    if bad:
        pos = {c: i for i, c in enumerate(factor.levels[level])}
        _, g, t = min(
            (pos[int(g.cols[t])], g, t)
            for g, flags in bad
            for t in np.flatnonzero(flags).tolist()
        )
        square_diag(g.row(t, level))
    return groups


def _slices(factor: OddEvenR) -> int:
    """Sequences per block of ``factor`` (1 for a single sequence)."""
    return batch_count(factor.batch_shape)


def _stores(factor: OddEvenR, dtype, tail) -> dict:
    """A zeroed ``(count, *batch, *tail(n))`` array per state dimension
    ``n`` of ``factor``, allocated in the factor's array namespace."""
    first = factor.groups[0][0].diag
    xp = get_namespace(first)
    lead = factor.batch_shape
    return {
        n: xp.zeros((count,) + lead + tail(n), dtype=dtype)
        for n, count in factor.dim_counts.items()
    }


def _by_column(factor: OddEvenR, stores: dict) -> list:
    """One view per column of a store, in natural column order."""
    if len(stores) == 1:
        (store,) = stores.values()
        return list(store)
    return [stores[n][s] for n, s in zip(factor.dims, factor.slots.tolist())]


def _by_dim(factor: OddEvenR, values: list) -> dict:
    """Per-column ``values`` stacked into one store per state dimension."""
    dims = np.asarray(factor.dims)
    return {
        n: stack(
            [_as_array(values[c]) for c in np.flatnonzero(dims == n).tolist()]
        )
        for n in factor.dim_counts
    }


def _column_costs(factor: OddEvenR, level: int, charge):
    """``record_costs``' per-column ``cost`` for one level:
    ``charge(n, coupled dims)`` of each column's row group, tabulated
    on first use (executing backends never ask)."""
    table: dict = {}

    def cost(col):
        if not table:
            for g in factor.groups[level]:
                costs = charge(g.n, [b.shape[-1] for _c, b in g.couplings])
                table.update(dict.fromkeys(g.cols.tolist(), costs))
        return table[col]

    return cost


def _check_finite(members, states) -> None:
    """Raise when a solved state is NaN or infinite.

    A non-finite value in the data reaches the solution through the
    right-hand side without touching the (checked) diagonals, so this
    is the solve's one guard against returning NaN estimates.
    """
    host = to_host(states)
    if np.isfinite(host).all():
        return
    bad = ~np.isfinite(host).all(axis=-1)
    lead = bad.reshape(len(members), -1)
    t = int(np.argmax(lead.any(axis=-1)))
    where = ""
    slices: list = []
    if bad.ndim > 1:
        slices = [
            tuple(int(i) for i in ix) if len(ix) > 1 else int(ix[0])
            for ix in np.argwhere(bad[t])
        ]
        where = f" in batch slice(s) {slices}"
    err = np.linalg.LinAlgError(
        f"state {int(members[t])} of the solution is not finite{where}; the "
        "problem holds a non-finite value or one that overflows"
    )
    err.batch_slices = slices
    raise err


def _back_solve(diag, b, *coupled):
    """``R_jj^{-1} (b - sum R_jI u_I)`` over one stack of columns."""
    for block, state in zip(coupled[::2], coupled[1::2]):
        b = b - instrumented_matvec(block, state)
    return solve_upper(diag, b)


def _solve_costs(slices: int, n: int, n_others: list[int]):
    """Per-column charges: one GEMV per coupling, one triangular solve."""
    costs = [
        (slices * matmul_flops(n, m, 1), slices * matmul_bytes(n, m, 1))
        for m in n_others
    ]
    if n:
        costs.append((slices * trsm_flops(n, 1), slices * trsm_bytes(n, 1)))
    return costs


def _as_array(x):
    return x if hasattr(x, "ndim") else np.asarray(x)


def oddeven_back_substitute(
    factor: OddEvenR,
    backend: Backend | None = None,
    rhs: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Solve for all smoothed states from an odd-even factor.

    Returns the states in natural (original) order.  For a batched
    factor (see :mod:`repro.batch`) every state is a ``(B, n)`` stack
    and every triangular solve runs batched over the ``B`` sequences.
    A state that comes out NaN or infinite raises
    :class:`numpy.linalg.LinAlgError` naming it (and, for a batched
    factor, its ``batch_slices``).

    Parameters
    ----------
    backend:
        Receives each level's per-column kernel costs; the solves run
        as stacked calls on the caller's thread.
    rhs:
        Optional replacement right-hand side: a list indexed by
        original column with one length-``n_i`` vector (or batched
        ``(B, n_i)`` stack) per state.  Defaults to the factor's own
        transformed RHS ``Q^T U b``.  The iterative-refinement path
        reuses the factor against correction right-hand sides this
        way (``R d = y``) without mutating the factor.
    """
    if backend is None:
        backend = SerialBackend()
    slots = factor.slots
    first = factor.groups[0][0].diag
    dtype = first.dtype
    if rhs is not None:
        rhs = _by_dim(factor, rhs)
        dtype = get_namespace(first).result_type(first, *rhs.values())
    states = _stores(factor, dtype, lambda n: (n,))
    slices = _slices(factor)
    for level_idx in reversed(range(len(factor.levels))):
        for g in level_diagonals(factor, level_idx):
            n = g.n
            at = slots[g.cols]
            b = g.rhs[..., :n] if rhs is None else rhs[n][at]
            operands = [g.square, b]
            for cols, block in g.couplings:
                operands.append(block[..., :n, :])
                operands.append(states[block.shape[-1]][slots[cols]])
            u = stacked(
                _back_solve,
                *operands,
                tail=(2, 1) + (2, 1) * len(g.couplings),
            )
            _check_finite(g.cols, u)
            states[n][at] = u
        backend.record_costs(
            factor.levels[level_idx],
            _column_costs(
                factor,
                level_idx,
                lambda n, others: _solve_costs(slices, n, others),
            ),
            phase=f"oddeven/solve/L{level_idx}",
        )
    return _by_column(factor, states)


def oddeven_rt_solve(
    factor: OddEvenR,
    rhs: list[np.ndarray],
    backend: Backend | None = None,
) -> list[np.ndarray]:
    """Solve ``(R P^T)^T y = w`` against the odd-even factor.

    The forward (transpose) sweep of the factor: columns are processed
    in *elimination* order — the reverse of back substitution —
    because each block row's off-diagonal entries reference only
    columns eliminated at deeper levels.  Solving column ``i`` first
    therefore lets its couplings be subtracted from the deeper
    columns' right-hand sides before they are solved.

    Together with :func:`oddeven_back_substitute` (called with a
    custom ``rhs``) this gives the corrected-seminormal-equations step
    of iterative refinement: ``R^T y = A^T r`` then ``R d = y`` reuse
    the existing factor, so one refinement sweep costs a few GEMVs
    plus two structured triangular solves — no re-factorization.

    Parameters
    ----------
    rhs:
        List indexed by original column with one length-``n_i`` vector
        (or batched ``(B, n_i)`` stack) per state.  Not mutated.

    Returns
    -------
    list of arrays in natural column order, matching ``rhs`` shapes.
    """
    if backend is None:
        backend = SerialBackend()
    slots = factor.slots
    first = factor.groups[0][0].diag
    xp = get_namespace(first)
    w = _by_dim(factor, rhs)
    dtype = xp.result_type(first, *w.values())
    # The right-hand sides take the solution's dtype up front, so the
    # in-place updates below round like ``w - term`` would.
    w = {
        n: a if a.dtype == dtype else xp.astype(a, dtype)
        for n, a in w.items()
    }
    y = _stores(factor, dtype, lambda n: (n,))
    slices = _slices(factor)
    for level_idx, cols in enumerate(factor.levels):
        updates = []
        for g in level_diagonals(factor, level_idx):
            n = g.n
            at = slots[g.cols]
            sol = stacked(
                solve_upper_transpose, g.square, w[n][at], tail=(2, 1)
            )
            y[n][at] = sol
            for others, block in g.couplings:
                # A contiguous copy: BLAS rounds a transposed block by
                # its leading dimension, and this one matches the
                # per-sequence stacks of a batched factor.
                terms = stacked(
                    instrumented_matvec,
                    mat_transpose(xp.copy(block[..., :n, :])),
                    sol,
                    tail=(2, 1),
                )
                updates.append((bool(others[0] < g.cols[0]), others, terms))
        backend.record_costs(
            cols,
            _column_costs(
                factor, level_idx, lambda n, _o: _solve_costs(slices, n, [])
            ),
            phase=f"oddeven/rtsolve/L{level_idx}",
        )
        # Propagate this level's couplings into the not-yet-solved
        # (deeper-level) columns' right-hand sides, in column order: a
        # deeper column takes its left neighbour's term (that row's
        # right coupling) before its right neighbour's.
        for _left, others, terms in sorted(updates, key=lambda u: u[0]):
            w[terms.shape[-1]][slots[others]] -= terms
    return _by_column(factor, y)

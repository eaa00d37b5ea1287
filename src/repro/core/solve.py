"""Back substitution for the odd-even factor (paper §3.1).

With the factorization ``Q R = U A P`` and transformed right-hand side
``Q^T U b`` in hand, the smoothed trajectory solves
``R P^T u = Q^T U b``.  The solve follows the recursion in reverse:
the base column first, then each level's even columns *in parallel* —
every even column's block row references only columns eliminated at
deeper levels, whose states are already known.  Each column costs one
or two small GEMVs plus one triangular solve; a level groups its
columns by row shape and runs each group as stacked calls
(:mod:`repro.core.stacked`).
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
from ..linalg.xp import to_host
from ..parallel.backend import Backend, SerialBackend
from .rfactor import OddEvenR, RBlockRow
from .stacked import gather, group_by, stack, stacked

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


def level_diagonals(factor: OddEvenR, cols: list[int]) -> list:
    """Group a level's columns by row shape; stack their diagonals.

    Returns ``[(members, diag)]`` with ``diag`` the ``(N, *batch, n,
    n)`` stack of the members' square diagonal blocks.  One vectorized
    test per group checks every block; when one fails, the first
    failing column in level order raises :func:`square_diag`'s error
    (its batch slices name the failing sequences of a batched factor).
    """
    rows = factor.rows

    def shapes(c):
        row = rows[c]
        return (row.diag.shape, *[b.shape for _o, b in row.offdiag])

    out = []
    bad = {}
    for key, members in group_by(cols, shapes, _slices(factor)):
        n_rows, n = key[0][-2:]
        if n_rows < n:
            bad[tuple(members)] = np.ones(len(members), dtype=bool)
            continue
        diag = stack([rows[c].diag[..., :n, :] for c in members])
        d = np.diagonal(to_host(diag), axis1=-2, axis2=-1)
        if not (np.isfinite(d).all() and d.all()):
            flags = (d == 0.0) | ~np.isfinite(d)
            bad[tuple(members)] = flags.reshape(len(members), -1).any(
                axis=-1
            )
        out.append((members, diag))
    if bad:
        flagged = {
            c
            for members, flags in bad.items()
            for c, flag in zip(members, flags)
            if flag
        }
        square_diag(rows[min(flagged, key=cols.index)])
    return out


def _slices(factor: OddEvenR) -> int:
    """Sequences per block of ``factor`` (1 for a single sequence)."""
    return batch_count(factor.rows[factor.levels[0][0]].batch_shape)


def _check_finite(members: list[int], states) -> None:
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
        f"state {members[t]} of the solution is not finite{where}; the "
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
    states: list = [None] * len(factor.dims)
    slices = _slices(factor)
    for level_idx in reversed(range(len(factor.levels))):
        cols = factor.levels[level_idx]
        for members, diag in level_diagonals(factor, cols):
            rows = [factor.rows[c] for c in members]
            n = rows[0].n
            if rhs is None:
                b = stack([row.rhs[..., :n] for row in rows])
            else:
                b = stack([_as_array(rhs[c])[..., :n] for c in members])
            operands = [diag, b]
            for j in range(len(rows[0].offdiag)):
                operands.append(
                    stack([row.offdiag[j][1][..., :n, :] for row in rows])
                )
                operands.append(
                    gather([states[row.offdiag[j][0]] for row in rows])
                )
            u = stacked(
                _back_solve,
                *operands,
                tail=(2, 1) + (2, 1) * len(rows[0].offdiag),
            )
            _check_finite(members, u)
            for t, c in enumerate(members):
                states[c] = (u, t)
        backend.record_costs(
            cols,
            lambda c: _solve_costs(
                slices,
                factor.rows[c].n,
                [factor.dims[o] for o in factor.rows[c].offdiag_cols()],
            ),
            phase=f"oddeven/solve/L{level_idx}",
        )
    return [base[t] for base, t in states]


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
    w: list = [_as_array(x) for x in rhs]
    y: list = [None] * len(factor.dims)
    slices = _slices(factor)
    for level_idx, cols in enumerate(factor.levels):
        coupling: dict = {}
        for members, diag in level_diagonals(factor, cols):
            rows = [factor.rows[c] for c in members]
            n = rows[0].n
            sol = stacked(
                solve_upper_transpose,
                diag,
                stack([w[c] for c in members]),
                tail=(2, 1),
            )
            for t, c in enumerate(members):
                y[c] = sol[t]
            for j in range(len(rows[0].offdiag)):
                blocks = stack(
                    [mat_transpose(row.offdiag[j][1][..., :n, :]) for row in rows]
                )
                terms = stacked(instrumented_matvec, blocks, sol, tail=(2, 1))
                for t, c in enumerate(members):
                    coupling[c, j] = terms[t]
        backend.record_costs(
            cols,
            lambda c: _solve_costs(slices, factor.rows[c].n, []),
            phase=f"oddeven/rtsolve/L{level_idx}",
        )
        # Propagate this level's couplings into the not-yet-solved
        # (deeper-level) columns' right-hand sides, in column order.
        for c in cols:
            for j, other in enumerate(factor.rows[c].offdiag_cols()):
                w[other] = w[other] - coupling[c, j]
    return y

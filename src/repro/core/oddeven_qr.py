"""The odd-even parallel QR factorization of Kalman matrices (paper §3).

The whitened least-squares matrix ``U A`` is block bidiagonal in block
columns: column ``i`` holds the observation rows ``C_i`` and couples to
column ``i-1`` through the evolution rows ``[-B_i  D_i]``.  The
algorithm recursively permutes even block columns first and eliminates
them with three batches of small independent QR factorizations per
recursion level:

* **Stage A** — for each even column ``i``: factor the last two block
  rows ``[C_i; -B_{i+1}]`` and apply ``Q^T`` to ``[0; D_{i+1}]``,
  producing ``R~_i``, fill ``X_i`` and remnant ``D~_{i+1}``.
* **Stage B** — for each even column ``i >= 2``: factor ``[D_i; R~_i]``
  and apply ``Q^T`` to the coupled blocks, producing the permanent
  block row ``(R_i, -B~_i, Y_i)`` of the factor plus leftover rows
  ``(Z_i, X~_i)`` that become the next level's evolution rows between
  odd columns ``i-1`` and ``i+1``.  Column 0 has no ``D_0`` and skips
  this stage (``R_0 = R~_0``).
* **Stage C** — for each odd column ``j``: factor ``[D~_j; C_j]`` into
  ``C~_j``, restoring the row-count invariant; ``C~_j`` is the next
  level's observation block.

The right-hand side rides through every ``Q^T`` application; rows whose
coefficients become identically zero contribute their squared RHS to
the least-squares residual.  Work is ``Theta(k n^3)`` and the critical
path ``Theta(log k * n log n)`` (paper §3.3); every stage is a
``parallel_for`` over disjoint block-row pairs.

Stacking
--------
Each stage of each level groups its columns by block signature and
factors every group with stacked calls (:mod:`repro.core.stacked`):
the pivots of a group are one ``(S, rows, cols)`` stack, factored by
:func:`~repro.linalg.householder.qr_factor` in chunks of at most
:data:`~repro.core.stacked.STACK_SLICES` slices, with ``Q^T`` applied
to the coupled blocks and the right-hand side in the same pass.  The
same code eliminates one sequence (2-D blocks, RHS vectors of shape
``(rows,)``) or a stack of ``B`` independent sequences with identical
block structure (3-D ``(B, rows, cols)`` blocks, RHS arrays of shape
``(B, rows)``): the group and batch axes flatten into one stack axis.
In the batched case the accumulated ``residual_sq`` is a ``(B,)`` array
(one residual per sequence).

Stages hand their outputs on as the stacks the stacked calls returned.
A level keeps them in stores (:class:`~repro.core.stacked.Store`) that
hold, per column position, only plain ints in Python lists: which
stack, which slot of it and how many rows; the level itself keeps each
position's original column and state dimension the same way.  A later
stage gathers a group's blocks as one strided view of the stack they
share, or one concatenation where the group spans stacks, and level 0
reads the whitened problem's per-shape stacks
(:class:`~repro.model.problem.WhitenedProblem`) through the same
stores.  So the objects a level allocates grow with its stacks, not
with its columns.  The factor keeps the stacks too: each Stage-B group
becomes one
:class:`~repro.core.rfactor.RowGroup` of the level (its diagonals,
left and right couplings and RHS as views of the stage's output), and
column 0 and the base become one-row groups, so the factor holds a
few objects per group rather than per column.  The execution
backend does not run the stages; a recording backend receives each
column's kernel costs, so the task graph it records is the per-column
one of the paper.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..linalg.flops import qr_apply_flops, qr_bytes, qr_flops
from ..linalg.householder import qr_factor
from ..linalg.triangular import batch_count
from ..linalg.xp import get_namespace
from ..model.problem import StateSpaceProblem, WhitenedProblem
from ..parallel.backend import Backend, SerialBackend
from .rfactor import OddEvenR, RowGroup
from .stacked import Store, group_by, stacked

__all__ = ["oddeven_factorize"]


def _qr_apply(pivot, coupled):
    """One stacked QR of ``pivot`` with ``Q^T`` applied to ``coupled``."""
    qf = qr_factor(pivot)
    return qf.r, qf.apply_qt(coupled)


def _qr_costs(slices: int, m: int, n: int, p: int) -> list:
    """Kernel charges of one column: an ``m x n`` QR and ``Q^T`` applied
    to ``p`` columns, for a block stack of ``slices`` sequences."""
    return [
        (slices * qr_flops(m, n), slices * qr_bytes(m, n)),
        (
            slices * qr_apply_flops(m, min(m, n), p),
            slices * qr_bytes(m, p),
        ),
    ]


def _sumsq(x):
    """Squared norm over the row axis."""
    return get_namespace(x).sum(x * x, axis=-1)


class _Level:
    """One recursion level: its columns, coupling rows and stage outputs.

    Positions index the level's columns: ``orig[p]`` is column ``p``'s
    original column and ``dims[p]`` its state dimension.  The stores
    (:class:`~repro.core.stacked.Store`) of the level's blocks are
    indexed by position:

    * ``cols`` — the observation rows ``(C, rhs)`` of column ``p``;
    * ``evos`` — the rows ``(-B, D, rhs)`` coupling column ``p - 1`` to
      column ``p`` (position 0 unused);
    * ``rtil`` — Stage A's ``(R~, rhs, X)`` of even ``p`` (no fill ``X``
      for the last column);
    * ``remnant`` — Stage A's remnant ``(D~, rhs)`` below even ``p``,
      which joins odd column ``p + 1`` in Stage C.

    Odd column ``p`` is the next level's column ``p // 2``, and the
    stores Stages B and C fill are indexed that way, so they are the
    next level's input as they stand:

    * ``next_evos`` — Stage B's leftover rows ``(-B, D, rhs)`` of even
      ``p``, the next level's coupling between odd columns ``p - 1``
      and ``p + 1``;
    * ``extra`` — the last even column's leftover rows ``(-B, rhs)``,
      extra observation rows on its left neighbour;
    * ``next_cols`` — Stage C's compressed ``(C~, rhs)``.
    """

    def __init__(self, engine: "_Engine", index, orig, dims, cols, evos):
        self.engine = engine
        self.orig = orig
        self.dims = dims
        self.cols = cols
        self.evos = evos
        self.index = index
        kk = len(orig) - 1
        self.kk = kk
        self.evens = range(0, kk + 1, 2)
        self.odds = range(1, kk + 1, 2)
        self.rtil = Store(kk + 1)
        self.remnant = Store(kk + 1)
        self.next_evos = Store(len(self.odds))
        self.extra = Store(len(self.odds))
        self.next_cols = Store(len(self.odds))
        # The level's permanent block rows as row groups.
        self.groups: list = []
        # Squared RHS of annihilated rows: the last even column's in
        # Stage A, and the odd columns' in Stage C, by odd index.
        self.resid_a = None
        self.resid_c = None

    # -- Stage A -------------------------------------------------------
    def stage_a(self) -> None:
        kk, dims, e = self.kk, self.dims, self.engine
        rows, evo_rows = self.cols.rows, self.evos.rows
        # Every even column but the last couples to its right neighbour.
        keys = chain(
            zip(rows[:kk:2], dims[:kk:2], evo_rows[1::2], dims[1::2]),
            [(rows[kk], dims[kk])] if kk % 2 == 0 else [],
        )
        for sig, members in group_by(self.evens, keys, e.slices):
            if len(sig) == 4:
                self._a_coupled(members, *sig)
            else:
                self._a_last(members, *sig)

        def cost(p):
            if p < kk:
                m = rows[p] + evo_rows[p + 1]
                return _qr_costs(e.slices, m, dims[p], dims[p + 1] + 1)
            return _qr_costs(e.slices, rows[p], dims[p], 1) if rows[p] else []

        e.backend.record_costs(
            self.evens, cost, phase=f"oddeven/L{self.index}/stageA"
        )

    def _a_coupled(self, members, mc, n, rows, n_right):
        e = self.engine
        xp = e.xp
        c, rhs_c = self.cols.gather(members, 0, 1)
        nb, d, rhs_e = self.evos.gather([p + 1 for p in members], 0, 1, 2)
        lead = tuple(c.shape[:-2])
        pivot = xp.concatenate([c, nb], axis=-2)
        # [0 | rhs_c] over [D | rhs_e], written into one buffer.
        applied_to = e.zeros(lead + (mc + rows, n_right + 1), d, rhs_c)
        applied_to[..., mc:, :n_right] = d
        applied_to[..., :mc, -1] = rhs_c
        applied_to[..., mc:, -1] = rhs_e
        r, applied = stacked(_qr_apply, pivot, applied_to, tail=(2, 2))
        ncap = min(n, mc + rows)
        self.rtil.put(
            members,
            (r, applied[..., :ncap, -1], applied[..., :ncap, :n_right]),
            ncap,
        )
        self.remnant.put(
            members,
            (applied[..., ncap:, :n_right], applied[..., ncap:, -1]),
            mc + rows - ncap,
        )

    def _a_last(self, members, rows, n):
        """The last even column: only its observation rows take part."""
        r, r_rhs, resid = self.engine.compress(
            [self.cols.gather(members, 0, 1)], len(members), rows, n
        )
        self.rtil.put(members, (r, r_rhs), min(rows, n))
        if resid is not None:
            self.resid_a = resid[0]

    # -- Stage B -------------------------------------------------------
    def stage_b(self) -> None:
        kk, dims, e = self.kk, self.dims, self.engine
        evo_rows, rt_rows = self.evos.rows, self.rtil.rows
        self._first_row()
        # The last even column has no right neighbour when kk is even.
        keys = zip(
            evo_rows[2::2], rt_rows[2::2], dims[2::2], dims[1::2],
            dims[3::2] + [0],
        )
        for sig, members in group_by(self.evens[1:], keys, e.slices):
            self._b_group(members, *sig)

        def cost(p):
            if p == 0:
                return []
            right = dims[p + 1] if p < kk else 0
            return _qr_costs(
                e.slices,
                evo_rows[p] + rt_rows[p],
                dims[p],
                dims[p - 1] + right + 1,
            )

        e.backend.record_costs(
            self.evens, cost, phase=f"oddeven/L{self.index}/stageB"
        )

    def _first_row(self) -> None:
        """Column 0 of the level: ``R_0 = R~_0`` with its Stage-A fill.

        Its blocks are copied out of the Stage-A stack, which would
        otherwise stay alive as long as the factor for one row's sake.
        """
        r, rhs, fill = (
            self.engine.xp.copy(a) for a in self.rtil.gather([0], 0, 1, 2)
        )
        couplings = ((np.array([self.orig[1]]), fill),)
        self.groups.append(
            RowGroup(np.array([self.orig[0]]), r, couplings, rhs)
        )

    def _b_group(self, members, d_rows, rt_rows, n, n_left, n_right):
        orig, e = self.orig, self.engine
        xp = e.xp
        nb, d, rhs_e = self.evos.gather(members, 0, 1, 2)
        # The last even column has no fill.
        rtil, rtil_rhs, *fill = self.rtil.gather(
            members, *range(3 if n_right else 2)
        )
        lead = tuple(d.shape[:-2])
        pivot = xp.concatenate([d, rtil], axis=-2)
        # [-B | 0 | rhs_e] over [0 | X | rhs~], written into one buffer.
        split = n_left + n_right
        applied_to = e.zeros(
            lead + (d_rows + rt_rows, split + 1), nb, rtil_rhs, *fill
        )
        applied_to[..., :d_rows, :n_left] = nb
        if n_right:
            applied_to[..., d_rows:, n_left:split] = fill[0]
        applied_to[..., :d_rows, -1] = rhs_e
        applied_to[..., d_rows:, -1] = rtil_rhs
        r, applied = stacked(_qr_apply, pivot, applied_to, tail=(2, 2))
        ncap = min(n, d_rows + rt_rows)
        top = applied[..., :ncap, :]
        couplings = [
            (np.array([orig[p - 1] for p in members]), top[..., :n_left])
        ]
        if n_right:
            couplings.append(
                (
                    np.array([orig[p + 1] for p in members]),
                    top[..., n_left:split],
                )
            )
        self.groups.append(
            RowGroup(
                np.array([orig[p] for p in members]),
                r,
                tuple(couplings),
                top[..., -1],
            )
        )
        bottom_left = applied[..., ncap:, :n_left]
        bottom_rhs = applied[..., ncap:, -1]
        rows = d_rows + rt_rows - ncap
        if n_right:
            self.next_evos.put(
                [p // 2 for p in members],
                (bottom_left, applied[..., ncap:, n_left:split], bottom_rhs),
                rows,
            )
        else:
            # Last even column: the leftover rows touch only the left
            # odd neighbour — they become extra observation rows on it.
            self.extra.put(
                [p // 2 - 1 for p in members], (bottom_left, bottom_rhs), rows
            )

    # -- Stage C -------------------------------------------------------
    def stage_c(self) -> None:
        """Compress every odd column into the next level's columns."""
        dims, e = self.dims, self.engine
        dt_rows, c_rows = self.remnant.rows, self.cols.rows
        x_rows = self.extra.rows
        keys = zip(dt_rows[::2], c_rows[1::2], x_rows, dims[1::2])
        for sig, members in group_by(self.odds, keys, e.slices):
            self._c_group(members, *sig)

        def cost(p):
            rows = dt_rows[p - 1] + c_rows[p] + x_rows[p // 2]
            return _qr_costs(e.slices, rows, dims[p], 1) if rows else []

        e.backend.record_costs(
            self.odds, cost, phase=f"oddeven/L{self.index}/stageC"
        )

    def _c_group(self, members, dt_rows, c_rows, x_rows, n):
        e = self.engine
        after = [p // 2 for p in members]
        pieces = []
        if dt_rows:
            pieces.append(
                self.remnant.gather([p - 1 for p in members], 0, 1)
            )
        if c_rows:
            pieces.append(self.cols.gather(members, 0, 1))
        if x_rows:
            pieces.append(self.extra.gather(after, 0, 1))
        rows = dt_rows + c_rows + x_rows
        r, r_rhs, resid = e.compress(pieces, len(members), rows, n)
        self.next_cols.put(after, (r, r_rhs), min(rows, n))
        if resid is not None:
            if self.resid_c is None:
                self.resid_c = e.zeros((len(self.odds),) + e.batch_shape)
            self.resid_c[after] = resid

    # -- transition ----------------------------------------------------
    def add_residual(self, residual):
        """``residual`` plus the squared RHS this level annihilated,
        added per stage in column order, as the stages would have
        returned it one column at a time."""
        if self.resid_a is not None:
            residual = residual + self.resid_a
        if self.resid_c is not None:
            # Columns without annihilated rows hold zeros, which leave
            # the sequential sum's bits alone.
            residual = residual + sum(self.resid_c)
        return residual


class _Engine:
    """State shared by the levels of one factorization."""

    def __init__(self, white: WhitenedProblem, backend: Backend):
        # The stack holding step 0's observation rows sets the working
        # dtype, as step 0's block would.
        first = white.obs[0][1]
        self.xp = get_namespace(first)
        self.dtype = first.dtype
        self.batch_shape = tuple(first.shape[1:-2])
        #: sequences per block (1 for a single sequence)
        self.slices = batch_count(self.batch_shape)
        self.backend = backend
        self.factor = OddEvenR(dims=white.state_dims)
        # The working dtype as an array, since the torch namespace's
        # ``result_type`` takes arrays only.
        self.empty = self.xp.zeros((0,), dtype=self.dtype)

    def zeros(self, shape: tuple, *like):
        """Zeros of the working dtype promoted with ``like``'s dtypes,
        as a concatenation of working-dtype zeros with ``like`` would
        be."""
        dtype = self.xp.result_type(self.empty, *like) if like else self.dtype
        return self.xp.zeros(shape, dtype=dtype)

    def compress(self, pieces: list, members: int, rows: int, n: int):
        """QR-compress the row pieces of ``members`` columns to at most
        ``n`` rows each.

        ``pieces`` lists ``(blocks, rhs)`` stacks top to bottom.
        Returns the stacked triangular factors, their transformed RHS
        and the per-column residual of the annihilated rows (``None``
        when no row is annihilated).  With no rows at all nothing is
        factored.
        """
        xp = self.xp
        if not rows:
            lead = (members,) + self.batch_shape
            return self.zeros(lead + (0, n)), self.zeros(lead + (0,)), None
        if len(pieces) == 1:
            stack, vec = pieces[0]
        else:
            stack = xp.concatenate([b for b, _ in pieces], axis=-2)
            vec = xp.concatenate([v for _, v in pieces], axis=-1)
        r, qtr = stacked(_qr_apply, stack, vec[..., None], tail=(2, 2))
        ncap = min(rows, n)
        resid = _sumsq(qtr[..., ncap:, 0]) if rows > n else None
        return r, qtr[..., :ncap, 0], resid


def _level_zero(white: WhitenedProblem) -> tuple[Store, Store]:
    """The whitened problem's observation and evolution rows as level
    0's stores.

    They keep the whitened problem's per-shape stacks, so level 0
    gathers its groups as views of them; only the evolution blocks are
    negated, once per stack.
    """
    size = len(white.dims)
    cols, evos = Store(size), Store(size)
    for steps, c, rhs in white.observation_blocks():
        cols.put(steps, (c, rhs), c.shape[-2])
    for steps, b, d, rhs in white.evolution_blocks():
        evos.put(steps, (-b, d, rhs), b.shape[-2])
    return cols, evos


def oddeven_factorize(
    problem: StateSpaceProblem | WhitenedProblem,
    backend: Backend | None = None,
) -> OddEvenR:
    """Compute the odd-even factorization ``Q R = U A P`` with ``Q^T U b``.

    Parameters
    ----------
    problem:
        A :class:`~repro.model.problem.StateSpaceProblem` (whitened
        internally) or an already-whitened problem.  A whitened problem
        whose stacks carry a batch axis (``(S, B, rows, cols)`` — see
        :mod:`repro.batch`) factors all ``B`` sequences at once.
    backend:
        Receives each stage's per-column kernel costs (one
        ``parallel_for`` phase per stage of each level); the stages
        themselves run as stacked calls on the caller's thread.
        Defaults to the serial backend.

    Returns
    -------
    OddEvenR
        The triangular factor with transformed right-hand side,
        elimination levels, and the accumulated least-squares residual
        (a ``(B,)`` array in the batched case).
    """
    if backend is None:
        backend = SerialBackend()
    white = (
        problem.whiten()
        if isinstance(problem, StateSpaceProblem)
        else problem
    )
    engine = _Engine(white, backend)
    factor = engine.factor
    cols, evos = _level_zero(white)
    orig, dims = list(range(len(white.dims))), list(white.dims)
    # One residual per sequence: a 0-d array for a single sequence.
    residual = engine.zeros(engine.batch_shape)
    index = 0
    while len(orig) > 1:
        level = _Level(engine, index, orig, dims, cols, evos)
        level.stage_a()
        level.stage_b()
        level.stage_c()
        factor.levels.append(orig[0::2])
        factor.groups.append(level.groups)
        residual = level.add_residual(residual)
        orig, dims = orig[1::2], dims[1::2]
        cols, evos = level.next_cols, level.next_evos
        index += 1

    # Base case: a single remaining column.
    rows, n = cols.rows[0], dims[0]
    r, r_rhs, resid = engine.compress([cols.gather([0], 0, 1)], 1, rows, n)
    factor.groups.append([RowGroup(np.array(orig), r, (), r_rhs)])
    backend.record_costs(
        [0],
        lambda _p: _qr_costs(engine.slices, rows, n, 1) if rows else [],
        phase=f"oddeven/L{index}/base",
    )
    factor.levels.append(orig)
    if resid is not None:
        residual = residual + resid[0]
    factor.residual_sq = (
        float(residual) if np.ndim(residual) == 0 else residual
    )
    return factor

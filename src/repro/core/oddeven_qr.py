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
(one residual per sequence).  Level 0 reads its blocks straight from
the whitened problem's per-shape stacks
(:class:`~repro.model.problem.WhitenedProblem`).  The factor keeps
the stacks too: each Stage-B group becomes one
:class:`~repro.core.rfactor.RowGroup` of the level (its diagonals,
left and right couplings and RHS as views of the stage's output), and
column 0 and the base become one-row groups, so the factor holds a
few objects per group rather than per column.  The execution
backend does not run the stages; a recording backend receives each
column's kernel costs, so the task graph it records is the per-column
one of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg.flops import qr_apply_flops, qr_bytes, qr_flops
from ..linalg.householder import qr_factor
from ..linalg.triangular import batch_count
from ..linalg.xp import get_namespace
from ..model.problem import StateSpaceProblem, WhitenedProblem
from ..parallel.backend import Backend, SerialBackend
from .rfactor import OddEvenR, RowGroup
from .stacked import Ref, gather, group_by, stacked

__all__ = ["oddeven_factorize", "OddEvenLevelStats"]


@dataclass
class OddEvenLevelStats:
    """Per-level diagnostics exposed on the returned factor."""

    level: int
    columns: int
    evens: int
    odds: int


@dataclass
class _Column:
    """One block column at some recursion level: ``rows`` observation
    rows ``c`` (``rows x n``) with right-hand side ``rhs``."""

    orig: int
    n: int
    rows: int
    c: Ref
    rhs: Ref


@dataclass
class _EvoRows:
    """Evolution-like rows coupling a column to its left neighbour.

    ``nb`` is the block as it appears in the matrix (i.e. ``-B``); no
    sign bookkeeping is ever needed because Stage B leftovers are
    already in as-it-appears form.
    """

    rows: int
    nb: Ref
    d: Ref
    rhs: Ref


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

    Positions index the level's columns; ``evos[t]`` couples column
    ``t-1`` to column ``t`` (``evos[0]`` is ``None``).
    """

    def __init__(self, engine: "_Engine", columns, evos, index: int):
        self.engine = engine
        self.columns = columns
        self.evos = evos
        self.index = index
        kk = len(columns) - 1
        self.kk = kk
        self.evens = list(range(0, kk + 1, 2))
        self.odds = list(range(1, kk + 1, 2))
        # Stage A outputs per even position: R~, its RHS, the fill X
        # and the remnant D~ with its RHS (refs, or None).
        self.rtil: dict = {}
        self.rtil_rows: dict = {}
        self.rtil_rhs: dict = {}
        self.fill: dict = {}
        self.dtil: dict = {}
        self.dtil_rhs: dict = {}
        self.dtil_rows: dict = {}
        # Stage B outputs: the level's permanent block rows as row
        # groups, and per even position the next-level coupling rows or
        # extra observation rows for the left odd neighbour.
        self.groups: list = []
        self.new_evo: dict = {}
        self.extra: dict = {}
        # Squared RHS of annihilated rows per position (stage A's last
        # even column, stage C's odd columns).
        self.resid_a: dict = {}
        self.resid_c: dict = {}

    # -- Stage A -------------------------------------------------------
    def stage_a(self) -> None:
        cols, evos, e = self.columns, self.evos, self.engine
        sig = {}
        for p in self.evens:
            col = cols[p]
            if p + 1 <= self.kk:
                evo = evos[p + 1]
                sig[p] = (col.rows, col.n, evo.rows, cols[p + 1].n)
            else:
                sig[p] = (col.rows, col.n)
        for key, members in group_by(self.evens, sig.get, e.slices):
            if len(key) == 4:
                self._a_coupled(members, *key)
            else:
                self._a_last(members, *key)

        def cost(p):
            key = sig[p]
            if len(key) == 4:
                mc, n, rows, n_right = key
                return _qr_costs(e.slices, mc + rows, n, n_right + 1)
            rows, n = key
            return _qr_costs(e.slices, rows, n, 1) if rows else []

        e.backend.record_costs(
            self.evens, cost, phase=f"oddeven/L{self.index}/stageA"
        )

    def _a_coupled(self, members, mc, n, rows, n_right):
        cols, evos, e = self.columns, self.evos, self.engine
        xp = e.xp
        c = gather([cols[p].c for p in members])
        rhs_c = gather([cols[p].rhs for p in members])
        nb = gather([evos[p + 1].nb for p in members])
        d = gather([evos[p + 1].d for p in members])
        rhs_e = gather([evos[p + 1].rhs for p in members])
        lead = tuple(c.shape[:-2])
        pivot = xp.concatenate([c, nb], axis=-2)
        coupled = xp.concatenate(
            [e.zeros(lead + (mc, n_right)), d], axis=-2
        )
        rhs = xp.concatenate([rhs_c, rhs_e], axis=-1)
        applied_to = xp.concatenate([coupled, rhs[..., None]], axis=-1)
        r, applied = stacked(_qr_apply, pivot, applied_to, tail=(2, 2))
        ncap = min(n, mc + rows)
        r_rhs = applied[..., :ncap, -1]
        fill = applied[..., :ncap, :n_right]
        dtil = applied[..., ncap:, :n_right]
        dtil_rhs = applied[..., ncap:, -1]
        for t, p in enumerate(members):
            self.rtil[p] = (r, t)
            self.rtil_rows[p] = ncap
            self.rtil_rhs[p] = (r_rhs, t)
            self.fill[p] = (fill, t)
            self.dtil[p] = (dtil, t)
            self.dtil_rhs[p] = (dtil_rhs, t)
            self.dtil_rows[p] = mc + rows - ncap

    def _a_last(self, members, rows, n):
        """The last even column: only its observation rows take part."""
        cols = self.columns
        r, r_rhs, resid = self.engine.compress(
            [[cols[p].c for p in members]],
            [[cols[p].rhs for p in members]],
            len(members),
            rows,
            n,
        )
        for t, p in enumerate(members):
            self.rtil[p] = (r, t)
            self.rtil_rows[p] = min(rows, n)
            self.rtil_rhs[p] = (r_rhs, t)
            if resid is not None:
                self.resid_a[p] = resid[t]

    # -- Stage B -------------------------------------------------------
    def stage_b(self) -> None:
        cols, evos, e = self.columns, self.evos, self.engine
        sig = {}
        for p in self.evens:
            if p == 0:
                continue
            evo = evos[p]
            right = cols[p + 1].n if p in self.fill else 0
            sig[p] = (
                evo.rows, self.rtil_rows[p], cols[p].n, cols[p - 1].n, right
            )
        self._first_row()
        for key, members in group_by(self.evens[1:], sig.get, e.slices):
            self._b_group(members, *key)

        def cost(p):
            if p == 0:
                return []
            d_rows, rt_rows, n, n_left, n_right = sig[p]
            return _qr_costs(
                e.slices, d_rows + rt_rows, n, n_left + n_right + 1
            )

        e.backend.record_costs(
            self.evens, cost, phase=f"oddeven/L{self.index}/stageB"
        )

    def _first_row(self) -> None:
        """Column 0 of the level: ``R_0 = R~_0`` with its Stage-A fill.

        Its blocks are copied out of the Stage-A stack, which would
        otherwise stay alive as long as the factor for one row's sake.
        """
        cols = self.columns

        def own(ref: Ref):
            base, index = ref
            return self.engine.xp.copy(base[index : index + 1])

        couplings = ()
        if 0 in self.fill:
            couplings = ((np.array([cols[1].orig]), own(self.fill[0])),)
        self.groups.append(
            RowGroup(
                np.array([cols[0].orig]),
                own(self.rtil[0]),
                couplings,
                own(self.rtil_rhs[0]),
            )
        )

    def _b_group(self, members, d_rows, rt_rows, n, n_left, n_right):
        cols, evos, e = self.columns, self.evos, self.engine
        xp = e.xp
        d = gather([evos[p].d for p in members])
        rtil = gather([self.rtil[p] for p in members])
        nb = gather([evos[p].nb for p in members])
        rhs = xp.concatenate(
            [
                gather([evos[p].rhs for p in members]),
                gather([self.rtil_rhs[p] for p in members]),
            ],
            axis=-1,
        )
        lead = tuple(d.shape[:-2])
        pivot = xp.concatenate([d, rtil], axis=-2)
        pieces = [
            xp.concatenate([nb, e.zeros(lead + (rt_rows, n_left))], axis=-2)
        ]
        if n_right:
            fill = gather([self.fill[p] for p in members])
            pieces.append(
                xp.concatenate(
                    [e.zeros(lead + (d_rows, n_right)), fill], axis=-2
                )
            )
        pieces.append(rhs[..., None])
        r, applied = stacked(
            _qr_apply, pivot, xp.concatenate(pieces, axis=-1), tail=(2, 2)
        )
        ncap = min(n, d_rows + rt_rows)
        split = n_left + n_right
        top = applied[..., :ncap, :]
        couplings = [
            (np.array([cols[p - 1].orig for p in members]), top[..., :n_left])
        ]
        if n_right:
            couplings.append(
                (
                    np.array([cols[p + 1].orig for p in members]),
                    top[..., n_left:split],
                )
            )
        self.groups.append(
            RowGroup(
                np.array([cols[p].orig for p in members]),
                r,
                tuple(couplings),
                top[..., -1],
            )
        )
        bottom_left = applied[..., ncap:, :n_left]
        bottom_rhs = applied[..., ncap:, -1]
        rows = d_rows + rt_rows - ncap
        if n_right:
            bottom_right = applied[..., ncap:, n_left:split]
            for t, p in enumerate(members):
                self.new_evo[p] = _EvoRows(
                    rows,
                    (bottom_left, t),
                    (bottom_right, t),
                    (bottom_rhs, t),
                )
        else:
            # Last even column: the leftover rows touch only the left
            # odd neighbour — they become extra observation rows on it.
            for t, p in enumerate(members):
                self.extra[p - 1] = (
                    rows, (bottom_left, t), (bottom_rhs, t)
                )

    # -- Stage C -------------------------------------------------------
    def stage_c(self) -> list[_Column]:
        """Compress every odd column; returns the next level's columns."""
        cols, e = self.columns, self.engine
        sig = {}
        for p in self.odds:
            extra = self.extra.get(p)
            sig[p] = (
                self.dtil_rows.get(p - 1, 0),
                cols[p].rows,
                extra[0] if extra is not None else 0,
                cols[p].n,
            )
        new: dict = {}
        for key, members in group_by(self.odds, sig.get, e.slices):
            self._c_group(members, *key, new)

        def cost(p):
            dt_rows, c_rows, x_rows, n = sig[p]
            rows = dt_rows + c_rows + x_rows
            return _qr_costs(e.slices, rows, n, 1) if rows else []

        e.backend.record_costs(
            self.odds, cost, phase=f"oddeven/L{self.index}/stageC"
        )
        return [new[p] for p in self.odds]

    def _c_group(self, members, dt_rows, c_rows, x_rows, n, new):
        cols = self.columns
        blocks, rhs = [], []
        if dt_rows:
            blocks.append([self.dtil[p - 1] for p in members])
            rhs.append([self.dtil_rhs[p - 1] for p in members])
        if c_rows:
            blocks.append([cols[p].c for p in members])
            rhs.append([cols[p].rhs for p in members])
        if x_rows:
            blocks.append([self.extra[p][1] for p in members])
            rhs.append([self.extra[p][2] for p in members])
        rows = dt_rows + c_rows + x_rows
        r, r_rhs, resid = self.engine.compress(
            blocks, rhs, len(members), rows, n
        )
        for t, p in enumerate(members):
            new[p] = _Column(
                cols[p].orig, n, min(rows, n), (r, t), (r_rhs, t)
            )
            if resid is not None:
                self.resid_c[p] = resid[t]

    # -- transition ----------------------------------------------------
    def next_evos(self, new_columns: list[_Column]) -> list:
        evos: list = [None]
        for t, p in enumerate(self.evens[1:], start=1):
            if t >= len(new_columns):
                break
            evo = self.new_evo.get(p)
            if evo is None:
                evo = self.engine.empty_evo(
                    new_columns[t - 1].n, new_columns[t].n
                )
            evos.append(evo)
        return evos


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

    def zeros(self, shape: tuple):
        return self.xp.zeros(shape, dtype=self.dtype)

    def empty_evo(self, n_left: int, n_right: int) -> _EvoRows:
        lead = (1,) + self.batch_shape
        return _EvoRows(
            0,
            (self.zeros(lead + (0, n_left)), 0),
            (self.zeros(lead + (0, n_right)), 0),
            (self.zeros(lead + (0,)), 0),
        )

    def compress(self, blocks, rhs, members: int, rows: int, n: int):
        """QR-compress the row pieces of ``members`` columns to at most
        ``n`` rows each.

        ``blocks``/``rhs`` list the pieces top to bottom, each a list
        of one ref per column.  Returns the stacked triangular factors,
        their transformed RHS and the per-column residual of the
        annihilated rows (``None`` when no row is annihilated).  With
        no rows at all nothing is factored.
        """
        xp = self.xp
        if not rows:
            lead = (members,) + self.batch_shape
            return self.zeros(lead + (0, n)), self.zeros(lead + (0,)), None
        pieces = [gather(b) for b in blocks]
        rhs_pieces = [gather(b) for b in rhs]
        stack = (
            pieces[0]
            if len(pieces) == 1
            else xp.concatenate(pieces, axis=-2)
        )
        vec = (
            rhs_pieces[0]
            if len(rhs_pieces) == 1
            else xp.concatenate(rhs_pieces, axis=-1)
        )
        r, qtr = stacked(_qr_apply, stack, vec[..., None], tail=(2, 2))
        ncap = min(rows, n)
        resid = _sumsq(qtr[..., ncap:, 0]) if rows > n else None
        return r, qtr[..., :ncap, 0], resid


def _level_zero(white: WhitenedProblem) -> tuple[list, list]:
    """The whitened blocks as level-0 columns and coupling rows.

    Each column refers to a slice of the whitened problem's per-shape
    stacks, so level 0 gathers its groups as views of them; only the
    evolution blocks are negated, once per stack.
    """
    columns: list = [None] * len(white.dims)
    evos: list = [None] * len(white.dims)
    for steps, c, rhs in white.observation_blocks():
        rows = c.shape[-2]
        for s, i in enumerate(steps):
            columns[i] = _Column(i, white.dims[i], rows, (c, s), (rhs, s))
    for steps, b, d, rhs in white.evolution_blocks():
        nb, rows = -b, b.shape[-2]
        for s, i in enumerate(steps):
            evos[i] = _EvoRows(rows, (nb, s), (d, s), (rhs, s))
    return columns, evos


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
    columns, evos = _level_zero(white)
    # One residual per sequence: a 0-d array for a single sequence.
    residual = engine.zeros(engine.batch_shape)
    level_idx = 0
    while len(columns) > 1:
        level = _Level(engine, columns, evos, level_idx)
        level.stage_a()
        level.stage_b()
        new_columns = level.stage_c()
        factor.levels.append([columns[p].orig for p in level.evens])
        factor.groups.append(level.groups)
        # Residuals add up per stage in column order, as the stages
        # would have returned them one column at a time.
        residual = residual + sum(
            level.resid_a[p] for p in level.evens if p in level.resid_a
        )
        residual = residual + sum(
            level.resid_c[p] for p in level.odds if p in level.resid_c
        )
        evos = level.next_evos(new_columns)
        columns = new_columns
        level_idx += 1

    # Base case: a single remaining column.
    base = columns[0]
    r, r_rhs, resid = engine.compress(
        [[base.c]], [[base.rhs]], 1, base.rows, base.n
    )
    factor.groups.append([RowGroup(np.array([base.orig]), r, (), r_rhs)])
    backend.record_costs(
        [0],
        lambda _p: _qr_costs(engine.slices, base.rows, base.n, 1)
        if base.rows
        else [],
        phase=f"oddeven/L{level_idx}/base",
    )
    factor.levels.append([base.orig])
    if resid is not None:
        residual = residual + resid[0]
    factor.residual_sq = (
        float(residual) if np.ndim(residual) == 0 else residual
    )
    return factor

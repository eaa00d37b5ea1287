"""The estimation problem and its whitened least-squares form.

:class:`StateSpaceProblem` holds the step sequence (paper §2.1) and an
optional Gaussian prior, validates dimension chaining, and produces the
whitened block rows

    ``C_i = W_i G_i``, ``B_i = V_i F_i``, ``D_i = V_i H_i``

of the coefficient matrix ``U A`` (paper §3) via :meth:`whiten`.  Every
block row is whitened on its own, so whitening is as parallel in time
as the elimination: :func:`whiten_problems` whitens all blocks of one
shape with one stacked call, for one sequence or a fleet of them.  The
whitened form (:class:`WhitenedProblem`, per-shape stacks) is the
common input of the Paige–Saunders and Odd-Even QR smoothers;
:mod:`repro.model.dense` materializes it densely as the test oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..linalg.cholesky import Whitener, stack_whiten
from ..linalg.xp import get_namespace
from .steps import Evolution, GaussianPrior, Observation, Step

__all__ = [
    "EquationStack",
    "StateSpaceProblem",
    "WhitenedStep",
    "WhitenedProblem",
    "whiten_problems",
]


@dataclass
class WhitenedStep:
    """Whitened blocks of one step of ``U A`` and ``U b``.

    ``C``/``rhs_C`` are the observation rows (``m_i x n_i``; for step 0
    they also absorb the prior rows, if any).  ``B``/``D``/``rhs_BD``
    are the evolution rows ``[-B_i  D_i]`` (``l_i`` rows spanning block
    columns ``i-1`` and ``i``); absent for step 0.  Note the sign: the
    stored ``B`` is the *unnegated* ``V_i F_i``; assembly places
    ``-B``.

    Blocks may carry a leading batch axis (``(B, rows, cols)`` with
    ``(B, rows)`` RHS — see :mod:`repro.batch`), so shape queries
    address the trailing axes.
    """

    index: int
    n: int
    C: np.ndarray
    rhs_C: np.ndarray
    B: np.ndarray | None = None
    D: np.ndarray | None = None
    rhs_BD: np.ndarray | None = None

    @property
    def obs_rows(self) -> int:
        return self.C.shape[-2]

    @property
    def evo_rows(self) -> int:
        return 0 if self.B is None else self.B.shape[-2]


class WhitenedProblem:
    """The full whitened system, held as one stack per block shape.

    :attr:`obs` lists the observation rows as groups ``(steps, stack)``:
    ``steps`` are the ascending indices of the steps whose blocks share
    one shape, and ``stack[s]`` is step ``steps[s]``'s block packed as
    ``[C | rhs_C]`` (``rows x (n + 1)``).  :attr:`evo` lists the
    evolution rows of steps ``1 .. k`` the same way, packed as
    ``[B | D | rhs_BD]``.  A stack has shape ``(S, *batch, rows,
    cols)``: a fleet of sequences with one block structure carries its
    batch axis after the group axis (see :mod:`repro.batch`).

    The odd-even engine reads the stacks directly.  :attr:`steps` builds
    one :class:`WhitenedStep` of views per step, on first use, for the
    consumers that sweep step by step.  ``WhitenedProblem(steps)``
    groups a list of :class:`WhitenedStep` once, when it is built.
    """

    def __init__(self, steps: list[WhitenedStep]):
        xp = get_namespace(steps[0].C)
        obs: dict = {}
        evo: dict = {}
        for i, ws in enumerate(steps):
            obs.setdefault(tuple(ws.C.shape[-2:]), []).append(i)
            if ws.B is not None:
                key = tuple(ws.B.shape[-2:]) + (ws.D.shape[-1],)
                evo.setdefault(key, []).append(i)

        def group(members, blocks, rhs):
            packed = [
                xp.concatenate(
                    [getattr(steps[i], name) for name in blocks]
                    + [getattr(steps[i], rhs)[..., None]],
                    axis=-1,
                )
                for i in members
            ]
            return tuple(members), xp.stack(packed)

        self.dims = tuple(ws.n for ws in steps)
        self.obs = [group(m, ["C"], "rhs_C") for m in obs.values()]
        self.evo = [group(m, ["B", "D"], "rhs_BD") for m in evo.values()]

    @classmethod
    def from_groups(cls, dims, obs: list, evo: list) -> "WhitenedProblem":
        """A whitened problem from its state dims and stacked groups."""
        white = cls.__new__(cls)
        white.dims = tuple(dims)
        white.obs = obs
        white.evo = evo
        return white

    def map_stacks(self, fn) -> "WhitenedProblem":
        """The same problem with ``fn`` applied to every stack once (a
        cast, a move to another array backend, a view)."""
        return WhitenedProblem.from_groups(
            self.dims,
            [(steps, fn(stack)) for steps, stack in self.obs],
            [(steps, fn(stack)) for steps, stack in self.evo],
        )

    def observation_blocks(self):
        """``(steps, C, rhs_C)`` per observation group, as views."""
        for steps, stack in self.obs:
            n = self.dims[steps[0]]
            yield steps, stack[..., :n], stack[..., n]

    def evolution_blocks(self):
        """``(steps, B, D, rhs_BD)`` per evolution group, as views."""
        for steps, stack in self.evo:
            n_prev = self.dims[steps[0] - 1]
            b, d = stack[..., :n_prev], stack[..., n_prev:-1]
            yield steps, b, d, stack[..., -1]

    @functools.cached_property
    def steps(self) -> list[WhitenedStep]:
        """One :class:`WhitenedStep` of views into the stacks per step."""
        out: list = [None] * len(self.dims)
        for steps, c, rhs in self.observation_blocks():
            for s, i in enumerate(steps):
                out[i] = WhitenedStep(i, self.dims[i], c[s], rhs[s])
        for steps, b, d, rhs in self.evolution_blocks():
            for s, i in enumerate(steps):
                out[i].B, out[i].D, out[i].rhs_BD = b[s], d[s], rhs[s]
        return out

    @property
    def k(self) -> int:
        """Index of the last state (states are ``0 .. k``)."""
        return len(self.dims) - 1

    @property
    def state_dims(self) -> list[int]:
        return list(self.dims)

    def total_rows(self) -> int:
        groups = self.obs + self.evo
        return sum(len(steps) * stack.shape[-2] for steps, stack in groups)


@dataclass(frozen=True, eq=False)
class EquationStack:
    """Equations of one kind and one shape, held as stacks.

    ``steps`` are the ascending indices of the steps the equations
    belong to.  ``blocks`` stacks their ``F`` (evolutions, ``H = I``)
    or ``G`` (observations) as ``(S, rows, cols)``, and ``rhs`` their
    ``c`` or ``o`` as ``(S, rows)``.  ``noise`` is the ``(S, rows,
    rows)`` stack of lower Cholesky factors of their noise covariances
    (as :func:`~repro.linalg.cholesky.spd_cholesky` returns them), or a
    list of one :class:`~repro.linalg.cholesky.Whitener` per equation.
    ``what`` names the covariance (``"evolution covariance K"``).
    """

    what: str
    steps: tuple[int, ...]
    blocks: np.ndarray
    rhs: np.ndarray
    noise: np.ndarray | list

    def whitener(self, j: int) -> Whitener:
        """Equation ``j``'s noise as a :class:`Whitener`."""
        if isinstance(self.noise, np.ndarray):
            return Whitener(self.noise[j], kind="factor", what=self.what)
        return self.noise[j]


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _locate(stacks: list[EquationStack], n_states: int):
    """Per step: the index of the stack holding its equation (-1 for
    none) and its position there."""
    at = np.full(n_states, -1)
    pos = np.zeros(n_states, dtype=int)
    for s, stack in enumerate(stacks):
        at[list(stack.steps)] = s
        pos[list(stack.steps)] = np.arange(len(stack.steps))
    return at, pos


#: why :func:`whiten_problems` refuses a list of problems
_MIXED = (
    "problems in one stack must share a structure signature; "
    "run bucket_problems first"
)


def whiten_problems(
    problems: list["StateSpaceProblem"], dtype=None
) -> WhitenedProblem:
    """Whiten problems into per-shape stacks with a batch axis.

    Every prior, observation and evolution block is whitened by its own
    whitener, but all blocks of one shape go through one
    :func:`~repro.linalg.cholesky.stack_whiten` call.  Each stack has
    shape ``(S, len(problems), rows, cols)``: problem ``b``'s blocks
    are slice ``b`` of the batch axis, and its bits do not depend on
    the other problems.  A member held as stacks
    (:meth:`StateSpaceProblem.from_groups`) gives its blocks and noise
    factors from its stacks; a member built from steps, from its steps.

    The problems must share their state dimensions and evolution row
    counts at every step.  Observation row counts may differ: a short
    block is padded with zero rows after whitening (a ``0 · u = 0`` row
    is exactly satisfiable, so it changes neither the estimates nor the
    residual).  Step 0's block is assembled from the whitened prior
    rows, when there is a prior, above the whitened observation rows.

    ``dtype`` is the stacks' dtype.  ``None`` keeps the data's working
    dtype (float32 data stays float32) and gives empty blocks the
    promoted dtype of all the others.
    """
    count = len(problems)
    dims = problems[0].state_dims
    evo_rows = _evolution_rows(problems[0])
    for p in problems[1:]:
        if p.state_dims != dims or _evolution_rows(p) != evo_rows:
            raise ValueError(_MIXED)
    # A step's observation rows: the most of any member.
    member_rows = [_observation_rows(p) for p in problems]
    rows = [max(r) for r in zip(*member_rows)]
    evo_groups = [
        (steps, _evolution_stack(problems, steps, dtype))
        for steps in _grouped(zip(evo_rows, dims, dims[1:]), 1)
    ]
    obs_groups = [
        (
            steps,
            _observation_stack(
                problems, member_rows, steps, rows[steps[0]], dims, dtype
            ),
        )
        for steps in _grouped(zip(rows, dims), 0)
    ]
    if dtype is None:
        dtypes = [a.dtype for _, a in obs_groups + evo_groups if a is not None]
        dtype = (
            functools.reduce(np.promote_types, dtypes)
            if dtypes
            else np.float64
        )
    obs_groups = [
        (steps, np.zeros((len(steps), count, 0, dims[steps[0]] + 1), dtype))
        if stack is None
        else (steps, stack)
        for steps, stack in obs_groups
    ]
    return WhitenedProblem.from_groups(dims, obs_groups, evo_groups)


def _evolution_rows(problem: "StateSpaceProblem") -> list[int]:
    return problem.row_counts()[0][1:]


def _observation_rows(problem: "StateSpaceProblem") -> list[int]:
    """Rows of each step's observation block, the prior's in step 0's."""
    rows = list(problem.row_counts()[1])
    if problem.prior is not None:
        rows[0] += problem.prior.dim
    return rows


def _grouped(keys, first: int) -> list[tuple[int, ...]]:
    """Steps ``first, first + 1, ...`` grouped by their ``keys``, in
    order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys, first):
        groups.setdefault(key, []).append(i)
    return [tuple(steps) for steps in groups.values()]


def _stacked(blocks: list[np.ndarray]) -> np.ndarray:
    """Equal-shape blocks stacked on a new leading axis (one
    concatenation, which promotes their dtypes)."""
    return np.concatenate(blocks).reshape((len(blocks),) + blocks[0].shape)


def _whitened(members: list[tuple], dtype) -> np.ndarray:
    """The raw blocks of several members, stacked and whitened.

    ``members[b]`` is ``(noise, *columns)`` for the same ``S`` pieces of
    member ``b``: each column stacks one block column of the pieces —
    ``(S, rows, width)`` matrices, or ``(S, rows)`` vectors that become
    one column — and ``noise`` their whiteners or factors
    (:func:`~repro.linalg.cholesky.stack_whiten`).  Returns the ``(S,
    len(members), rows, cols)`` stack of the whitened raw blocks ``[M_1
    | ... | v]``, piece ``s`` of member ``b`` at ``[s, b]``.
    """
    pieces = len(members[0][1])
    parts = [_column([m[c] for m in members]) for c in range(1, len(members[0]))]
    raw = np.concatenate(parts, axis=-1, dtype=dtype)
    white = stack_whiten(_interleaved([m[0] for m in members], pieces), raw)
    return white.reshape((pieces, len(members)) + white.shape[1:])


def _column(stacks: list[np.ndarray]) -> np.ndarray:
    """One block column of every member's pieces, ``(S * len(stacks),
    rows, width)`` in ``(piece, member)`` order.

    It is laid out as ``np.concatenate`` lays out the blocks one by one:
    column-major when every block is, row-major otherwise.  The
    concatenation of the columns takes its layout from theirs, and the
    rounding of the products that later read the whitened stack
    depends on that layout.
    """
    first = stacks[0]
    pieces, rows = first.shape[:2]
    width = first.shape[2] if first.ndim == 3 else 1
    shape = (pieces * len(stacks), rows, width)
    dtype = np.result_type(*stacks)
    if (
        first.ndim == 3
        and rows > 1
        and width > 1
        and all(abs(a.strides[2]) > abs(a.strides[1]) for a in stacks)
    ):
        out = np.empty((width, shape[0] * rows), dtype).T.reshape(shape)
    else:
        out = np.empty(shape, dtype)
    slots = out.reshape((pieces, len(stacks), rows, width))
    for b, stack in enumerate(stacks):
        slots[:, b] = stack if stack.ndim == 3 else stack[..., None]
    return out


def _interleaved(noises: list, pieces: int):
    """The members' noise in ``(piece, member)`` order: one factor stack
    when every member gives one, a list otherwise."""
    if len(noises) == 1:
        return noises[0]
    if all(isinstance(n, np.ndarray) for n in noises):
        out = np.empty(
            (pieces, len(noises)) + noises[0].shape[1:], np.result_type(*noises)
        )
        for b, noise in enumerate(noises):
            out[:, b] = noise
        return out.reshape((-1,) + out.shape[2:])
    return [noise[s] for s in range(pieces) for noise in noises]


def _evolution_stack(problems: list, steps: tuple, dtype) -> np.ndarray:
    """The whitened ``[B | D | rhs_BD]`` stack of one evolution group."""
    return _whitened([p._evolution_parts(steps) for p in problems], dtype)


def _fills(have: list[int], steps: tuple, rows: int) -> bool:
    """Whether every one of ``steps`` has ``rows`` rows in ``have``."""
    first, end = steps[0], steps[-1] + 1
    if end - first == len(steps):
        return have[first:end].count(rows) == len(steps)
    return all(have[i] == rows for i in steps)


def _prior_piece(prior: GaussianPrior | None) -> tuple | None:
    """``(G, o, noise)`` of the prior as an observation of ``u_0``, in
    the mean's dtype."""
    if prior is None:
        return None
    return np.eye(prior.dim, dtype=prior.mean.dtype), prior.mean, prior.cov


@functools.lru_cache(maxsize=64)
def _identities(count: int, n: int, dtype) -> np.ndarray:
    """A read-only ``(count, n, n)`` stack of identities."""
    return np.broadcast_to(np.eye(n, dtype=dtype), (count, n, n))


def _observation_stack(
    problems: list, member_rows: list, steps: tuple, rows: int, dims, dtype
) -> np.ndarray | None:
    """The whitened ``[C | rhs_C]`` stack of one observation group.

    ``None`` for a group without rows.  When every block of the group is
    one observation that fills its rows, the raw stack is whitened in
    place.  Otherwise the pieces at each row offset — the prior's rows,
    then the observation's — are whitened as one stack and copied into a
    zero stack, which leaves short blocks padded with zero rows.
    """
    if not rows:
        return None
    count = len(problems)
    shape = (len(steps), count, rows, dims[steps[0]] + 1)
    prior = steps[0] == 0 and any(p.prior is not None for p in problems)
    if not prior and all(_fills(have, steps, rows) for have in member_rows):
        return _whitened([p._observation_parts(steps) for p in problems], dtype)
    slots: dict = {}
    for s, i in enumerate(steps):
        for b, p in enumerate(problems):
            # the prior's rows ``I u_0 = mean``, then the observation's
            pieces = [_prior_piece(p.prior) if i == 0 else None]
            pieces.append(p._observation_piece(i))
            offset = 0
            for piece in pieces:
                if piece is None:
                    continue
                piece_rows = piece[0].shape[0]
                slots.setdefault((offset, piece_rows), []).append((s, b, piece))
                offset += piece_rows
    parts = []
    for (offset, piece_rows), members in slots.items():
        blocks, rhs, noise = zip(*(piece for _, _, piece in members))
        white = _whitened([(list(noise), _stacked(blocks), _stacked(rhs))], dtype)
        where = ([s for s, _, _ in members], [b for _, b, _ in members])
        parts.append((where + (slice(offset, offset + piece_rows),), white[:, 0]))
    out = np.zeros(
        shape, functools.reduce(np.promote_types, [w.dtype for _, w in parts])
    )
    for where, white in parts:
        out[where] = white
    return out


class StateSpaceProblem:
    """A linear dynamic-system estimation problem.

    Parameters
    ----------
    steps:
        ``Step`` objects; ``steps[0]`` must have no evolution, every
        later step must have one, and evolution input dimensions must
        chain (``F_i`` has ``n_{i-1}`` columns).
    prior:
        Optional :class:`GaussianPrior` on ``u_0``.
    """

    def __init__(
        self, steps: list[Step], prior: GaussianPrior | None = None
    ):
        if not steps:
            raise ValueError("a problem needs at least one step")
        if steps[0].evolution is not None:
            raise ValueError(
                "the first state is not defined by an evolution recurrence "
                "(paper §2.1); steps[0].evolution must be None"
            )
        for i, step in enumerate(steps[1:], start=1):
            if step.evolution is None:
                raise ValueError(f"step {i} is missing its evolution equation")
            expected = steps[i - 1].state_dim
            if step.evolution.prev_dim != expected:
                raise ValueError(
                    f"step {i} evolution F has {step.evolution.prev_dim} "
                    f"columns but state {i - 1} has dimension {expected}"
                )
        if prior is not None and prior.dim != steps[0].state_dim:
            raise ValueError(
                f"prior has dimension {prior.dim}, state 0 has dimension "
                f"{steps[0].state_dim}"
            )
        self.steps = steps
        self.prior = prior

    #: the evolution and observation :class:`EquationStack` lists of a
    #: problem held as stacks (:meth:`from_groups`); ``None`` when it is
    #: built from steps
    evolution_stacks: list[EquationStack] | None = None
    observation_stacks: list[EquationStack] | None = None

    @classmethod
    def from_groups(
        cls,
        dims,
        evolution: list[EquationStack],
        observation: list[EquationStack],
        prior: GaussianPrior | None = None,
    ) -> "StateSpaceProblem":
        """A problem held as per-shape stacks of its equations.

        ``dims`` are the state dimensions; ``evolution`` must hold one
        equation for each of steps ``1 .. k`` and ``observation`` at
        most one per step (see :class:`EquationStack`).  Nothing is
        validated: the caller builds consistent stacks
        (:meth:`~repro.model.nonlinear.NonlinearProblem.linearize`).
        Whitening (:func:`whiten_problems`) and bucketing read the
        stacks; :attr:`steps` is a view built from them on first use.
        """
        problem = cls.__new__(cls)
        problem._dims = tuple(dims)
        problem.evolution_stacks = list(evolution)
        problem.observation_stacks = list(observation)
        problem.prior = prior
        return problem

    @functools.cached_property
    def steps(self) -> list[Step]:
        """The steps of a problem held as stacks, built on first use.

        Their ``F``, ``c``, ``G`` and ``o`` are read-only views into the
        stacks, so a write raises instead of being ignored by
        whitening, which reads the stacks.  (A problem built from steps
        holds its ``steps`` list as given.)
        """
        evolution: dict[int, Evolution] = {}
        for stack in self.evolution_stacks:
            blocks, rhs = _read_only(stack.blocks), _read_only(stack.rhs)
            for j, i in enumerate(stack.steps):
                evolution[i] = Evolution(F=blocks[j], c=rhs[j], K=stack.whitener(j))
        observation: dict[int, Observation] = {}
        for stack in self.observation_stacks:
            blocks, rhs = _read_only(stack.blocks), _read_only(stack.rhs)
            for j, i in enumerate(stack.steps):
                observation[i] = Observation(
                    G=blocks[j], o=rhs[j], L=stack.whitener(j)
                )
        return [
            Step(
                state_dim=n,
                evolution=evolution.get(i),
                observation=observation.get(i),
            )
            for i, n in enumerate(self._dims)
        ]

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Index of the last state (``k + 1`` states total)."""
        return self.n_states - 1

    @property
    def n_states(self) -> int:
        if self.evolution_stacks is not None:
            return len(self._dims)
        return len(self.steps)

    @property
    def state_dims(self) -> list[int]:
        if self.evolution_stacks is not None:
            return list(self._dims)
        return [s.state_dim for s in self.steps]

    def row_counts(self) -> tuple[list[int], list[int]]:
        """Rows of each step's evolution and observation block (``0``
        where it has none; the prior's rows are not counted)."""
        if self.evolution_stacks is not None:
            return self._stacked_rows
        return (
            [0 if s.evolution is None else s.evolution.rows for s in self.steps],
            [s.obs_dim for s in self.steps],
        )

    def total_state_dim(self) -> int:
        return sum(self.state_dims)

    def has_uniform_dims(self) -> bool:
        dims = set(self.state_dims)
        return len(dims) == 1

    def all_h_identity(self) -> bool:
        """Whether every evolution uses ``H_i = I`` (RTS requirement)."""
        return all(
            s.evolution.is_identity_h() for s in self.steps[1:]
        )

    def observation_count(self) -> int:
        return sum(1 for s in self.steps if s.observation is not None)

    # ------------------------------------------------------------------
    # where whitening reads a member's blocks (see whiten_problems)
    # ------------------------------------------------------------------
    @functools.cached_property
    def _located(self):
        n = len(self._dims)
        return (
            _locate(self.evolution_stacks, n),
            _locate(self.observation_stacks, n),
        )

    @functools.cached_property
    def _stacked_rows(self) -> tuple[list[int], list[int]]:
        counts = []
        for stacks, (at, _) in zip(
            (self.evolution_stacks, self.observation_stacks), self._located
        ):
            rows = [stack.blocks.shape[1] for stack in stacks] + [0]
            counts.append(np.asarray(rows)[at].tolist())
        return counts[0], counts[1]

    def _gathered(self, kind: int, steps: tuple) -> tuple:
        """``(blocks, rhs, noise)`` of the stacked equations of ``kind``
        (0 evolution, 1 observation) at ``steps``, one at each: views
        when one stack holds them in a run."""
        stacks = (self.evolution_stacks, self.observation_stacks)[kind]
        for stack in stacks:
            if stack.steps == steps:
                return stack.blocks, stack.rhs, stack.noise
        at, pos = self._located[kind]
        index = np.asarray(steps)
        where, slots = at[index], pos[index]
        if (where == where[0]).all() and slots[-1] - slots[0] == len(steps) - 1:
            stack = stacks[where[0]]
            run = slice(int(slots[0]), int(slots[-1]) + 1)
            return stack.blocks[run], stack.rhs[run], stack.noise[run]
        taken = [(stacks[w], q) for w, q in zip(where.tolist(), slots.tolist())]
        return (
            _stacked([s.blocks[q] for s, q in taken]),
            _stacked([s.rhs[q] for s, q in taken]),
            [s.noise[q] for s, q in taken],
        )

    def _evolution_parts(self, steps: tuple) -> tuple:
        """``(noise, F, H, c)`` of the evolutions at ``steps``."""
        if self.evolution_stacks is None:
            evos = [self.steps[i].evolution for i in steps]
            return (
                [e.K for e in evos],
                _stacked([e.F for e in evos]),
                _stacked([e.H for e in evos]),
                _stacked([e.c for e in evos]),
            )
        blocks, rhs, noise = self._gathered(0, steps)
        return noise, blocks, _identities(*blocks.shape[:2], blocks.dtype), rhs

    def _observation_parts(self, steps: tuple) -> tuple:
        """``(noise, G, o)`` of the observations at ``steps`` (every
        one of which has one)."""
        if self.observation_stacks is None:
            obs = [self.steps[i].observation for i in steps]
            return (
                [ob.L for ob in obs],
                _stacked([ob.G for ob in obs]),
                _stacked([ob.o for ob in obs]),
            )
        blocks, rhs, noise = self._gathered(1, steps)
        return noise, blocks, rhs

    def _observation_piece(self, i: int) -> tuple | None:
        """``(G, o, noise)`` of step ``i``'s observation, if it has one."""
        if self.observation_stacks is None:
            ob = self.steps[i].observation
            return None if ob is None else (ob.G, ob.o, ob.L)
        at, pos = self._located[1]
        if at[i] < 0:
            return None
        stack = self.observation_stacks[at[i]]
        return stack.blocks[pos[i]], stack.rhs[pos[i]], stack.noise[pos[i]]

    def nonfinite_field(self) -> str | None:
        """Name the first NaN or infinite value of the problem's data.

        Scans the prior mean and covariance factor, then each step's
        evolution ``F``, ``H``, ``c``, ``K`` and observation ``G``,
        ``o``, ``L`` (covariances by their whiteners' factors), and
        returns e.g. ``"step 6 has a non-finite observation o"``, or
        ``None`` when all are finite.  Smoothers call it only after a
        non-finite result, so a healthy solve never pays for the scan.
        """
        prior = self.prior
        if prior is not None:
            if not np.isfinite(prior.mean).all():
                return "the prior has a non-finite mean"
            if not np.isfinite(prior.cov.factor_matrix()).all():
                return "the prior has a non-finite covariance"
        for i, step in enumerate(self.steps):
            evo, obs = step.evolution, step.observation
            fields = []
            if evo is not None:
                fields += [
                    ("evolution F", evo.F),
                    ("evolution H", evo.H),
                    ("evolution c", evo.c),
                    ("evolution covariance K", evo.K),
                ]
            if obs is not None:
                fields += [
                    ("observation G", obs.G),
                    ("observation o", obs.o),
                    ("observation covariance L", obs.L),
                ]
            for name, value in fields:
                if isinstance(value, Whitener):
                    value = value.factor_matrix()
                if not np.isfinite(value).all():
                    return f"step {i} has a non-finite {name}"
        return None

    # ------------------------------------------------------------------
    # whitening
    # ------------------------------------------------------------------
    def whiten(self) -> WhitenedProblem:
        """Produce the whitened block rows of ``U A`` and ``U b``.

        The prior, when present, is folded into step 0's observation
        rows (an extra ``I u_0 = mean`` block weighted by the prior
        covariance), exactly as UltimateKalman encodes known initial
        expectations.  The blocks of one shape are whitened in one
        stacked call (:func:`whiten_problems`, here without a batch
        axis).
        """
        return whiten_problems([self]).map_stacks(lambda stack: stack[:, 0])

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def without_prior(self) -> "StateSpaceProblem":
        """A copy of the problem with the prior removed."""
        return StateSpaceProblem(self.steps, prior=None)

    def with_prior(self, prior: GaussianPrior) -> "StateSpaceProblem":
        return StateSpaceProblem(self.steps, prior=prior)

    def subproblem(self, k_last: int) -> "StateSpaceProblem":
        """The problem restricted to states ``0 .. k_last`` (filtering
        semantics: smoothing the subproblem at its last state equals
        Kalman filtering the full problem at that state)."""
        if not 0 <= k_last <= self.k:
            raise ValueError(f"k_last must be in [0, {self.k}]")
        return StateSpaceProblem(self.steps[: k_last + 1], prior=self.prior)

    def objective(self, states: list[np.ndarray]) -> float:
        """The generalized least-squares objective ``||U(A u - b)||^2``.

        Used by tests: the smoothed trajectory must minimize it.  (The
        nonlinear solvers' line search and damping evaluate
        :meth:`~repro.model.nonlinear.NonlinearProblem.objective`.)
        """
        if len(states) != self.n_states:
            raise ValueError(
                f"expected {self.n_states} state vectors, got {len(states)}"
            )
        total = 0.0
        white = self.whiten()
        for i, ws in enumerate(white.steps):
            u_i = np.asarray(states[i], dtype=float)
            r_obs = ws.C @ u_i - ws.rhs_C
            total += float(r_obs @ r_obs)
            if ws.B is not None:
                u_prev = np.asarray(states[i - 1], dtype=float)
                r_evo = ws.D @ u_i - ws.B @ u_prev - ws.rhs_BD
                total += float(r_evo @ r_evo)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = self.state_dims
        uniform = dims[0] if self.has_uniform_dims() else "varying"
        return (
            f"StateSpaceProblem(k={self.k}, n={uniform}, "
            f"observations={self.observation_count()}, "
            f"prior={'yes' if self.prior else 'no'})"
        )

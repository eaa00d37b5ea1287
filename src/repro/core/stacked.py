"""Grouping, gathering and chunking for the level-stacked odd-even engine.

Every stage of every odd-even level is a set of independent block
operations (paper §3, the ``parallel_for`` of Figs. 2-4; §4, Algorithm
2).  The engine groups a stage's columns by *block signature* — the
shapes of the blocks the stage touches — and runs each group as stacked
kernel calls over one leading axis.  That axis is the group's columns
times the batch axis of a ``(B, rows, cols)`` factor, flattened, so one
sequence and a fleet of them share one code path.

Two properties hold for every stacked call:

* **Bounded stacks.**  A group runs in consecutive runs of columns
  whose stacks hold at most :data:`STACK_SLICES` slices, and a kernel
  call never takes more (a batch wider than the cap splits further).
  This bounds the transient memory of a level — the stacked
  orthogonal factors above all — without a knob.
* **Slice independence.**  Every kernel computes slice ``s`` from slice
  ``s`` of its operands alone, so a slice's bits do not depend on the
  size, composition or chunk boundaries of its stack.

Between stages a level keeps its blocks in stores (:class:`Store`):
the arrays each stacked call returned stay as they are, and per
position a store holds plain ints in Python lists (which stack, which
slot of it, how many rows), so a level allocates a few objects per
stack rather than per column.  A later stage gathers a run of positions
as one strided view of the stack they share, or as one concatenation
where the run spans stacks; level 0 reads the whitened problem's
per-shape stacks (:class:`~repro.model.problem.WhitenedProblem`) the
same way.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, TypeVar

from ..linalg.triangular import STACK_SLICES
from ..linalg.xp import get_namespace

__all__ = [
    "STACK_SLICES",
    "Store",
    "group_by",
    "stack",
    "stacked",
]

T = TypeVar("T")


def group_by(
    items: Iterable[T], keys: Iterable[Hashable], slices: int
) -> list[tuple]:
    """``(key, members)`` runs of ``items`` that share a block signature.

    ``keys`` holds each item's signature, in item order.  Groups keep
    the order of first appearance, and each is cut into consecutive
    runs whose stacks — members times ``slices`` sequences per block —
    hold at most :data:`STACK_SLICES` slices, so every array a run
    gathers, builds or returns stays that small too.
    """
    groups: dict = {}
    for item, key in zip(items, keys):
        members = groups.get(key)
        if members is None:
            groups[key] = [item]
        else:
            members.append(item)
    size = max(1, STACK_SLICES // slices)
    return [
        (k, members[lo : lo + size])
        for k, members in groups.items()
        for lo in range(0, len(members), size)
    ]


def stack(blocks: list):
    """Stack equally shaped blocks along a new leading axis.

    Spelled as one concatenation plus a reshape, which copies many
    small blocks several times faster than ``numpy.stack`` does.
    """
    return (
        get_namespace(blocks[0])
        .concatenate(blocks)
        .reshape((len(blocks),) + blocks[0].shape)
    )


class Store:
    """Where the blocks of a level's positions live.

    Position ``i``'s blocks are slice ``slot[i]`` of every array of
    ``stacks[at[i]]`` (a tuple of arrays that share their leading
    axis), and ``rows[i]`` is their row count.  ``at``, ``slot`` and
    ``rows`` are int lists, one entry per position.
    """

    __slots__ = ("stacks", "at", "slot", "rows")

    def __init__(self, size: int):
        self.stacks: list[tuple] = []
        self.at = [0] * size
        self.slot = [0] * size
        self.rows = [0] * size

    def put(self, positions, arrays: tuple, rows: int) -> None:
        """Keep ``arrays``, whose slice ``t`` holds the blocks of
        ``positions[t]``; every one of them has ``rows`` rows."""
        index = len(self.stacks)
        self.stacks.append(arrays)
        at, slot, count = self.at, self.slot, self.rows
        for t, i in enumerate(positions):
            at[i] = index
            slot[i] = t
            count[i] = rows

    def gather(self, positions, *fields: int) -> list:
        """Stack array ``fields[j]`` of each position's stacks along a
        new leading axis, one array per field.

        Consecutive positions held by one stack at evenly spaced slots
        come out as one strided slice of it, so positions that sit in
        one stack cost a view and positions spread over a few stacks
        one concatenation of slices.
        """
        at, slot = self.at, self.slot
        runs = []
        lo, count = 0, len(positions)
        while lo < count:
            here = at[positions[lo]]
            first = slot[positions[lo]]
            hi = lo + 1
            step = slot[positions[hi]] - first if hi < count else 1
            if step > 0:
                while (
                    hi < count
                    and at[positions[hi]] == here
                    and slot[positions[hi]] == first + (hi - lo) * step
                ):
                    hi += 1
            else:
                step = 1
            runs.append(
                (
                    self.stacks[here],
                    slice(first, first + (hi - lo - 1) * step + 1, step),
                )
            )
            lo = hi
        if len(runs) == 1:
            arrays, where = runs[0]
            return [arrays[f][where] for f in fields]
        xp = get_namespace(runs[0][0][fields[0]])
        return [
            xp.concatenate([arrays[f][where] for arrays, where in runs])
            for f in fields
        ]


def stacked(kernel: Callable, *operands, tail: tuple[int, ...]):
    """Run ``kernel`` over the flattened leading axes of ``operands``.

    Every operand carries the same leading shape (group times batch)
    followed by ``tail[j]`` trailing axes.  The leading axes are
    flattened into one stack axis, ``kernel`` runs on consecutive
    chunks of at most :data:`STACK_SLICES` slices, and its outputs —
    one array or a tuple — come back concatenated with the leading
    shape restored.
    """
    first = operands[0]
    lead = first.shape[: first.ndim - tail[0]]
    flat = [
        a.reshape((-1,) + a.shape[a.ndim - t :])
        for a, t in zip(operands, tail)
    ]
    size = flat[0].shape[0]
    if size <= STACK_SLICES:
        outs = kernel(*flat)
    else:
        parts = [
            kernel(*[a[lo : lo + STACK_SLICES] for a in flat])
            for lo in range(0, size, STACK_SLICES)
        ]
        xp = get_namespace(*operands)
        outs = (
            tuple(xp.concatenate(p) for p in zip(*parts))
            if isinstance(parts[0], tuple)
            else xp.concatenate(parts)
        )
    if isinstance(outs, tuple):
        return tuple(a.reshape(lead + a.shape[1:]) for a in outs)
    return outs.reshape(lead + outs.shape[1:])

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

Per-column values travel between stages as :data:`Ref` pairs
``(stack, index)`` — slice ``index`` of a stacked stage output, or at
level 0 of one of the whitened problem's per-shape stacks
(:class:`~repro.model.problem.WhitenedProblem`) — so a group whose
members sit at evenly spaced positions of one stack is gathered as a
strided view instead of being copied slice by slice.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, TypeVar

from ..linalg.triangular import STACK_SLICES
from ..linalg.xp import get_namespace

__all__ = [
    "STACK_SLICES",
    "Ref",
    "group_by",
    "stack",
    "gather",
    "stacked",
]

T = TypeVar("T")

#: ``(stack, index)``: slice ``index`` of ``stack``.
Ref = tuple


def group_by(
    items: Iterable[T], key: Callable[[T], Hashable], slices: int
) -> list[tuple]:
    """``(key, members)`` runs of ``items`` that share a block signature.

    Groups keep the order of first appearance, and each is cut into
    consecutive runs whose stacks — members times ``slices`` sequences
    per block — hold at most :data:`STACK_SLICES` slices, so every
    array a run gathers, builds or returns stays that small too.
    """
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
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


def gather(members: list[Ref]):
    """Stack the referenced blocks along a new leading axis.

    Consecutive members taken from one stack at evenly spaced positions
    come out as one strided slice of it, so a group that sits in one
    stack costs a view and a group spread over a few stacks one
    concatenation of slices.
    """
    pieces = []
    lo, count = 0, len(members)
    while lo < count:
        base, first = members[lo]
        hi = lo + 1
        step = members[hi][1] - first if hi < count else 1
        if step > 0:
            while (
                hi < count
                and members[hi][0] is base
                and members[hi][1] == first + (hi - lo) * step
            ):
                hi += 1
        else:
            step = 1
        pieces.append(base[first : first + (hi - lo - 1) * step + 1 : step])
        lo = hi
    if len(pieces) == 1:
        return pieces[0]
    return get_namespace(pieces[0]).concatenate(pieces)


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

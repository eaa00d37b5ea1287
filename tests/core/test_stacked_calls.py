"""Whitening, level 0 and the factor stay stacked as sequences grow.

One sequence whitens each block shape with one stacked call and solves
its Cholesky-factored slices in chunks of at most ``STACK_SLICES``; the
odd-even engine's level 0 gathers its groups from those stacks as
views, and the factor and SelInv keep their blocks as per-level stacks
and per-dimension stores.  Kernel calls and live Python objects
therefore grow with the number of chunks, ``ceil(k / STACK_SLICES)``,
not with the number of steps ``k``; a return to per-step whitening,
per-step level-0 blocks or per-column factor rows multiplies them by
``k``.
"""

from __future__ import annotations

import gc
import math
import types

import numpy as np

import repro.core.oddeven_qr as oddeven_qr
import repro.model.problem as problem_module
from repro.batch.stacking import stack_whitened
from repro.core.oddeven_qr import _level_zero, oddeven_factorize
from repro.core.selinv import selinv_oddeven
from repro.core.stacked import STACK_SLICES
from repro.model.generators import random_problem
from repro.parallel.tally import measure_flops

SHORT, LONG = 64, 1024
#: how much more a stacked call count may be at ``LONG`` than at ``SHORT``
CHUNKS = math.ceil(LONG / STACK_SLICES)


def sequence(k: int):
    """One block shape at every step and a Cholesky factor on every
    covariance, so every block goes through the factor kernel."""
    return random_problem(k, seed=k, dims=3, random_cov=True)


def fleet(k: int):
    """Members with missing observations: short blocks are padded."""
    return [
        random_problem(k, seed=s, dims=3, random_cov=True, obs_prob=0.7)
        for s in range(4)
    ]


def counting(monkeypatch, module, name: str) -> list:
    """Count the calls ``module`` makes to its ``name``."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_sequence_whitening_kernel_calls_grow_with_chunks_not_steps():
    """Per-step whitening makes two triangular solves per step here."""
    calls = {
        k: measure_flops(sequence(k).whiten)[1].kernel_calls
        for k in (SHORT, LONG)
    }
    assert 0 < calls[LONG] <= calls[SHORT] * CHUNKS


def test_sequence_whitens_each_block_shape_once(monkeypatch):
    calls = counting(monkeypatch, problem_module, "stack_whiten")
    counts = {}
    for k in (SHORT, LONG):
        calls.clear()
        sequence(k).whiten()
        counts[k] = len(calls)
    # Observations, evolutions, and step 0's prior and observation
    # pieces, whatever the length.
    assert counts[SHORT] == counts[LONG] == 4


def test_fleet_whitening_calls_count_shape_groups_not_steps(monkeypatch):
    calls = counting(monkeypatch, problem_module, "stack_whiten")
    counts = {}
    for k in (SHORT, LONG):
        calls.clear()
        white = stack_whitened(fleet(k))
        counts[k] = len(calls)
        # At most two pieces (prior and observation) per group.
        assert counts[k] <= 2 * (len(white.obs) + len(white.evo))
    assert counts[SHORT] == counts[LONG]


def test_level_zero_gathers_views_of_the_whitened_stacks():
    for k in (SHORT, LONG):
        white = sequence(k).whiten()
        columns, evos = _level_zero(white)
        stacks = [stack for _, stack in white.obs + white.evo]
        refs = [ref for col in columns for ref in (col.c, col.rhs)]
        refs += [ref for evo in evos[1:] for ref in (evo.d, evo.rhs)]
        # Two view bases per observation group, two per evolution group
        # (the negated B is the one copy, made once per group).
        assert len({id(base) for base, _ in refs}) == 2 * len(stacks)
        assert all(
            any(np.shares_memory(base, stack) for stack in stacks)
            for base, _ in refs
        )
        assert len({id(evo.nb[0]) for evo in evos[1:]}) == len(white.evo)


def test_factorization_qr_calls_grow_with_chunks_not_steps(monkeypatch):
    calls = counting(monkeypatch, oddeven_qr, "qr_factor")
    counts = {}
    for k in (SHORT, LONG):
        white = sequence(k).whiten()
        calls.clear()
        oddeven_factorize(white)
        counts[k] = len(calls)
    assert counts[LONG] <= counts[SHORT] * CHUNKS


def reachable_containers(*roots) -> int:
    """GC-tracked objects reachable from ``roots`` through instances,
    containers and closures (classes, modules and globals excluded)."""
    seen: dict = {}
    todo = list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.FunctionType):
            todo.extend(obj.__closure__ or ())
        else:
            todo.extend(gc.get_referents(obj))
    return sum(gc.is_tracked(obj) for obj in seen.values())


def test_factor_and_selinv_objects_grow_with_chunks_not_steps():
    """A factor with one row object per column, each with a list of its
    couplings, or a SelInv result with one key per cross block, holds
    thousands of objects the collector walks."""
    counts = {}
    for k in (SHORT, LONG):
        factor = oddeven_factorize(sequence(k).whiten())
        result = selinv_oddeven(factor)
        # Untrack the tuples and dicts that hold no container, so the
        # count does not depend on when the collector last ran.
        gc.collect()
        counts[k] = reachable_containers(factor, result)
    assert counts[LONG] <= counts[SHORT] * CHUNKS
    # The per-column views are built on request.
    assert len(factor.rows) == LONG + 1
    assert len(result.cross) == factor.nonzero_blocks() - (LONG + 1)

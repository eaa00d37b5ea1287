"""Whitening, level 0 and the factor stay stacked as sequences grow.

One sequence whitens each block shape with one stacked call and solves
its Cholesky-factored slices in chunks of at most ``STACK_SLICES``; the
odd-even engine's level 0 gathers its groups from those stacks as
views, its stages hand their outputs on as stacks with int-list
stores, and the factor and SelInv keep their blocks as per-level
stacks and per-dimension stores.  Kernel calls and live Python objects
therefore grow with the number of chunks, ``ceil(k / STACK_SLICES)``,
not with the number of steps ``k``; a return to per-step whitening,
per-step level-0 blocks, a per-column stage handoff or per-column
factor rows multiplies them by ``k``.
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
        cols, evos = _level_zero(white)
        stacks = [stack for _, stack in white.obs + white.evo]
        views = [a for arrays in cols.stacks for a in arrays]
        views += [a for arrays in evos.stacks for a in arrays[1:]]
        # Two view bases per observation group, two per evolution group
        # (the negated B is the one copy, made once per group).
        assert len({id(a) for a in views}) == 2 * len(stacks)
        assert all(
            any(np.shares_memory(a, stack) for stack in stacks)
            for a in views
        )
        assert len({id(arrays[0]) for arrays in evos.stacks}) == len(
            white.evo
        )
        # The metadata is plain ints, one entry per step.
        for store in (cols, evos):
            for column in (store.at, store.slot, store.rows):
                assert len(column) == k + 1
                assert all(type(x) is int for x in column)
        # Stage A's first group, the even columns from 2 on, sits at
        # evenly spaced slots of one stack: one strided view.
        c, rhs = cols.gather(list(range(2, k + 1, 2)), 0, 1)
        assert any(np.shares_memory(c, stack) for stack in stacks)
        assert any(np.shares_memory(rhs, stack) for stack in stacks)


def test_factorization_qr_calls_grow_with_chunks_not_steps(monkeypatch):
    calls = counting(monkeypatch, oddeven_qr, "qr_factor")
    counts = {}
    for k in (SHORT, LONG):
        white = sequence(k).whiten()
        calls.clear()
        oddeven_factorize(white)
        counts[k] = len(calls)
    # The engine calls the kernel through the module attribute, which
    # is what a counter patched onto it sees.
    assert 0 < counts[SHORT] <= counts[LONG] <= counts[SHORT] * CHUNKS


def test_factorization_sets_off_no_garbage_collection():
    """A per-column handoff between stages (an object, a tuple or a
    dict entry per column and stage) fills the collector's youngest
    generation every few hundred columns: about 20 collections here."""
    white = sequence(LONG).whiten()
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        oddeven_factorize(white)
    finally:
        gc.callbacks.remove(count)
    assert len(collections) <= 1, collections


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

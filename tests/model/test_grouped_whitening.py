"""Grouped whitening: every block by its own whitener, stacked by shape.

``StateSpaceProblem.whiten`` and ``stack_whitened`` whiten all blocks of
one shape in one stacked call (``whiten_problems``).  Whatever the
grouping, each block must equal its own whitener's ``Whitener.whiten``
of the raw block, a sequence's bits must not depend on the fleet it is
whitened with, and a whitened problem rebuilt from per-step blocks must
factor exactly like the grouped form.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch.stacking import stack_whitened
from repro.core.oddeven_qr import oddeven_factorize
from repro.model.problem import (
    StateSpaceProblem,
    WhitenedProblem,
    WhitenedStep,
)
from repro.model.steps import Evolution, GaussianPrior, Observation, Step

#: unit, scaled-identity and Cholesky-factor whiteners
KINDS = ("unit", "scaled", "factor")


@st.composite
def structures(draw, max_states: int = 9):
    """State dims (varying), evolution rows (``H`` square or tall),
    observation rows (0 = missing) and whether there is a prior."""
    count = draw(st.integers(1, max_states))
    dims = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    evo_rows = [draw(st.sampled_from([n, n + 1])) for n in dims[1:]]
    obs_rows = draw(
        st.lists(st.integers(0, 3), min_size=count, max_size=count)
    )
    return dims, evo_rows, obs_rows, draw(st.booleans())


def _cov(rng, rows: int, kinds, dtype):
    kind = kinds[rng.integers(len(kinds))]
    if kind == "unit":
        return None
    if kind == "scaled":
        return float(rng.uniform(0.25, 4.0))
    a = rng.standard_normal((rows, rows))
    return (a @ a.T + rows * np.eye(rows)).astype(dtype)


def make_problem(structure, seed: int, kinds=KINDS, dtype=np.float64):
    """A problem of the given structure; its values and the kind of each
    block's whitener are drawn from ``seed``."""
    dims, evo_rows, obs_rows, prior = structure
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape).astype(dtype)

    steps = []
    for i, n in enumerate(dims):
        evo = obs = None
        if i:
            rows = evo_rows[i - 1]
            evo = Evolution(
                F=draw(rows, dims[i - 1]),
                H=(np.eye(rows, n) + 0.1 * draw(rows, n)).astype(dtype),
                c=draw(rows),
                K=_cov(rng, rows, kinds, dtype),
            )
        if obs_rows[i]:
            rows = obs_rows[i]
            obs = Observation(
                G=draw(rows, n), o=draw(rows), L=_cov(rng, rows, kinds, dtype)
            )
        steps.append(Step(state_dim=n, evolution=evo, observation=obs))
    gauss = (
        GaussianPrior(mean=draw(dims[0]), cov=_cov(rng, dims[0], kinds, dtype))
        if prior
        else None
    )
    return StateSpaceProblem(steps, prior=gauss)


def reference(problem: StateSpaceProblem):
    """Each step's ``[C | rhs_C]`` and ``[B | D | rhs_BD]`` whitened piece
    by piece with ``Whitener.whiten``, and whether every piece's
    whitener is an identity kind (whose whitening is exact)."""
    out = []
    for i, step in enumerate(problem.steps):
        pieces = [step.observation] if step.observation is not None else []
        if i == 0 and problem.prior is not None:
            pieces.insert(0, problem.prior.as_observation())
        whiteners = [ob.L for ob in pieces]
        blocks = [ob.L.whiten(np.column_stack([ob.G, ob.o])) for ob in pieces]
        obs = (
            np.vstack(blocks) if blocks else np.zeros((0, step.state_dim + 1))
        )
        evo = None
        if step.evolution is not None:
            e = step.evolution
            evo = e.K.whiten(np.column_stack([e.F, e.H, e.c]))
            whiteners.append(e.K)
        exact = all(
            w.kind in ("identity", "scaled_identity") for w in whiteners
        )
        out.append((obs, evo, exact))
    return out


def packed(ws: WhitenedStep, b=None):
    """A whitened step's blocks as ``[C | rhs_C]`` and ``[B | D | rhs_BD]``
    (slice ``b`` of a batched step)."""
    pick = (lambda a: a) if b is None else (lambda a: a[b])
    obs = np.column_stack([pick(ws.C), pick(ws.rhs_C)])
    if ws.B is None:
        return obs, None
    return obs, np.column_stack([pick(ws.B), pick(ws.D), pick(ws.rhs_BD)])


@settings(max_examples=40, deadline=None)
@given(
    structure=structures(),
    seed=st.integers(0, 2**16),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_blocks_equal_their_own_whitening(structure, seed, dtype):
    """Unit, scaled and factor whiteners mixed in one sequence, varying
    dims with rectangular ``H``, missing observations and a prior."""
    problem = make_problem(structure, seed, dtype=dtype)
    white = problem.whiten()
    tol = 1e-12 if dtype == np.float64 else 2e-5
    assert white.state_dims == problem.state_dims
    for ws, (obs, evo, exact) in zip(white.steps, reference(problem)):
        got_obs, got_evo = packed(ws)
        if obs.shape[0]:
            # Exact unless a stack-mate promotes the stack: the prior's
            # float64 rows share a stack with float32 observations of
            # the same shape.
            assert np.can_cast(obs.dtype, got_obs.dtype, "safe")
        assert (got_evo is None) == (evo is None)
        pairs = [(got_obs, obs)]
        if evo is not None:
            pairs.append((got_evo, evo))
        for got, want in pairs:
            if exact:
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
    if dtype == np.float32:
        # float32 data stays float32, empty blocks included (the prior's
        # rows are float64, as GaussianPrior.as_observation builds them;
        # a problem without any block has no data dtype to keep).
        assert all(s.dtype == np.float32 for _, s in white.evo)
        has_data = white.evo or any(s.shape[-2] for _, s in white.obs)
        if problem.prior is None and has_data:
            assert all(s.dtype == np.float32 for _, s in white.obs)


@settings(max_examples=30, deadline=None)
@given(
    structure=structures(),
    seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=4, unique=True),
)
def test_sequence_alone_equals_its_fleet_slice(structure, seeds):
    """Same observation row counts, different values and whitener kinds
    at every step: member ``b`` of the fleet is ``fleet[b].whiten()``
    bit for bit."""
    fleet = [make_problem(structure, s) for s in seeds]
    stacked = stack_whitened(fleet)
    for b, problem in enumerate(fleet):
        alone = problem.whiten()
        for ws, got in zip(alone.steps, stacked.steps):
            for want, have in zip(packed(ws), packed(got, b)):
                if want is None:
                    assert have is None
                else:
                    np.testing.assert_array_equal(have, want)


@settings(max_examples=30, deadline=None)
@given(
    structure=structures(),
    seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=4, unique=True),
    data=st.data(),
)
def test_short_blocks_are_padded_after_whitening(structure, seeds, data):
    """Members with missing observations and without a prior: each
    member's rows lead its padded block bit for bit, and the padding rows
    are exactly zero."""
    dims, evo_rows, obs_rows, _ = structure
    fleet = []
    for s in seeds:
        own_obs = [
            data.draw(st.sampled_from([0, rows])) for rows in obs_rows
        ]
        own = (dims, evo_rows, own_obs, data.draw(st.booleans()))
        fleet.append(make_problem(own, s))
    stacked = stack_whitened(fleet)
    for b, problem in enumerate(fleet):
        for ws, got in zip(problem.whiten().steps, stacked.steps):
            want, have = packed(ws)[0], packed(got, b)[0]
            rows = want.shape[0]
            np.testing.assert_array_equal(have[:rows], want)
            assert not have[rows:].any()


def test_one_fleet_step_mixes_whitener_kinds():
    """Unit, scaled and factor whiteners side by side at every step of
    one fleet, each slice whitened by its own."""
    structure = ([2] * 5, [2] * 4, [2] * 5, True)
    fleet = [
        make_problem(structure, seed, kinds=(kind,))
        for seed, kind in enumerate(KINDS)
    ]
    stacked = stack_whitened(fleet)
    for b, problem in enumerate(fleet):
        for (obs, evo, _), got in zip(reference(problem), stacked.steps):
            have_obs, have_evo = packed(got, b)
            np.testing.assert_allclose(have_obs, obs, rtol=1e-12, atol=1e-12)
            if evo is not None:
                np.testing.assert_allclose(
                    have_evo, evo, rtol=1e-12, atol=1e-12
                )
            if KINDS[b] != "factor":
                np.testing.assert_array_equal(have_obs, obs)


def _rebuilt(white: WhitenedProblem) -> WhitenedProblem:
    """The whitened problem built again from copies of its step blocks."""
    steps = []
    for ws in white.steps:
        step = WhitenedStep(ws.index, ws.n, ws.C.copy(), ws.rhs_C.copy())
        if ws.B is not None:
            step.B, step.D = ws.B.copy(), ws.D.copy()
            step.rhs_BD = ws.rhs_BD.copy()
        steps.append(step)
    return WhitenedProblem(steps)


def _assert_same_factor(a, b):
    assert a.levels == b.levels
    np.testing.assert_array_equal(a.residual_sq, b.residual_sq)
    for col, row in a.rows.items():
        other = b.rows[col]
        np.testing.assert_array_equal(row.diag, other.diag)
        np.testing.assert_array_equal(row.rhs, other.rhs)
        assert row.offdiag_cols() == other.offdiag_cols()
        for (_, x), (_, y) in zip(row.offdiag, other.offdiag):
            np.testing.assert_array_equal(x, y)


@settings(max_examples=30, deadline=None)
@given(structure=structures(), seed=st.integers(0, 2**16))
def test_step_list_form_factors_like_grouped_form(structure, seed):
    white = make_problem(structure, seed).whiten()
    rebuilt = _rebuilt(white)
    assert rebuilt.state_dims == white.state_dims
    assert rebuilt.total_rows() == white.total_rows()
    _assert_same_factor(oddeven_factorize(white), oddeven_factorize(rebuilt))


@pytest.mark.parametrize("k", [5, 40])
def test_fleet_step_list_form_factors_like_grouped_form(k):
    structure = ([3] * (k + 1), [3] * k, [3] * (k + 1), True)
    white = stack_whitened([make_problem(structure, s) for s in range(3)])
    _assert_same_factor(
        oddeven_factorize(white), oddeven_factorize(_rebuilt(white))
    )


def test_fleet_rejects_mixed_structures():
    a = make_problem(([2, 2, 2], [2, 2], [2, 2, 2], False), 0)
    taller = make_problem(([2, 2, 2], [3, 2], [2, 2, 2], False), 1)
    longer = make_problem(([2, 2, 2, 2], [2, 2, 2], [2] * 4, False), 2)
    for other in (taller, longer):
        with pytest.raises(ValueError, match="share a structure signature"):
            stack_whitened([a, other])

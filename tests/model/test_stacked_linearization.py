"""Stacked linearization and objective against per-step references.

``NonlinearProblem.linearize`` and ``.objective`` handle all equations
of one shape in stacked calls.  The references below are the one-step
forms they replaced: the sigma-point regression of a single density,
and the objective that builds one whitener per equation and adds the
squares as it goes.  The stacked forms must agree with them — the
objective bit for bit, because Levenberg–Marquardt accepts, rejects
and stops on objective differences at roundoff level.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.model.nonlinear as nl
from repro.linalg.cholesky import Whitener
from repro.model.nonlinear import (
    JacobianLinearizer,
    LinearizedFn,
    NonlinearFunction,
    NonlinearProblem,
    SigmaPointLinearizer,
    bearings_only_tunnel_problem,
    coordinated_turn_problem,
    cubic_sensor_problem,
    pendulum_problem,
    pointwise,
)
from repro.batch import BatchSmoother
from repro.batch.plan import workload_key
from repro.batch.stacking import bucket_problems, stack_whitened
from repro.model.generators import random_problem
from repro.model.nonlinear import as_nonlinear
from repro.model.problem import StateSpaceProblem
from repro.model.steps import Evolution, GaussianPrior, Observation, _as_cov_whitener


# ---------------------------------------------------------------------------
# per-step references
# ---------------------------------------------------------------------------


def reference_slr(lin: SigmaPointLinearizer, fn, mean, cov) -> LinearizedFn:
    """Sigma-point regression of one density, one step at a time."""
    mean = np.asarray(mean, dtype=float)
    n = mean.shape[0]
    lam, w_mean, w_cov = lin.weights(n)
    cov = np.asarray(cov, dtype=float)
    scaled = (n + lam) * 0.5 * (cov + cov.T)
    try:
        root = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(scaled)
        root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    points = np.empty((2 * n + 1, n))
    points[0] = mean
    points[1 : n + 1] = mean + root.T
    points[n + 1 :] = mean - root.T
    ys = np.stack([fn(p) for p in points])
    ybar = w_mean @ ys
    dx = points - mean
    dy = ys - ybar
    p_xx = (dx * w_cov[:, None]).T @ dx
    p_xy = (dx * w_cov[:, None]).T @ dy
    p_yy = (dy * w_cov[:, None]).T @ dy
    try:
        f = np.linalg.solve(0.5 * (p_xx + p_xx.T), p_xy).T
    except np.linalg.LinAlgError:
        f = np.linalg.lstsq(p_xx, p_xy, rcond=None)[0].T
    omega = p_yy - f @ p_xy
    omega = 0.5 * (omega + omega.T)
    vals, vecs = np.linalg.eigh(omega)
    if vals.size and vals[0] < 0.0:
        clipped = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        omega = 0.5 * (clipped + clipped.T)
    return LinearizedFn(F=f, c=ybar - f @ mean, omega=omega)


def reference_objective(problem: NonlinearProblem, trajectory) -> float:
    """One whitener per equation, squares added as they come."""
    total = 0.0
    if problem.prior is not None:
        r = problem.prior.cov.whiten(
            np.asarray(trajectory[0], dtype=float) - problem.prior.mean
        )
        total += float(r @ r)
    for i, s in enumerate(problem.steps):
        u = np.asarray(trajectory[i], dtype=float)
        if i > 0 and s.evolution_fn is not None:
            c = s.c if s.c is not None else np.zeros(s.state_dim)
            resid = u - s.evolution_fn(trajectory[i - 1]) - c
            white = Evolution(F=np.eye(s.state_dim), K=s.evolution_cov).K.whiten(
                resid
            )
            total += float(white @ white)
        if s.observation_fn is not None and s.observation is not None:
            resid = s.observation - s.observation_fn(u)
            white = Observation(
                G=np.eye(len(resid)), o=resid, L=s.observation_cov
            ).L.whiten(resid)
            total += float(white @ white)
    return total


def random_map(rng, n: int, m: int) -> NonlinearFunction:
    """A smooth nonlinear ``R^n -> R^m`` map with an analytic Jacobian."""
    a = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    s = rng.normal(size=(m, n))

    def fn(x):
        return a @ x + b + np.sin(s @ x)

    def jac(x):
        return a + np.cos(s @ x)[:, None] * s

    return pointwise(fn, jac)


def random_spd(rng, n: int) -> np.ndarray:
    root = rng.normal(size=(n, n))
    return root @ root.T + 0.1 * np.eye(n)


def assert_close(actual, expected, rtol=1e-12):
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(actual, expected, rtol=0, atol=rtol * scale)


# ---------------------------------------------------------------------------
# the stacked sigma-point regression
# ---------------------------------------------------------------------------


class TestStackedSigmaPoints:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 3),
        count=st.integers(1, 6),
        alpha=st.floats(0.3, 2.0),
        beta=st.floats(0.0, 3.0),
        kappa=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_step_reference(
        self, n, m, count, alpha, beta, kappa, seed
    ):
        rng = np.random.default_rng(seed)
        lin = SigmaPointLinearizer(alpha=alpha, beta=beta, kappa=kappa)
        fns = [random_map(rng, n, m) for _ in range(count)]
        means = rng.normal(size=(count, n))
        covs = np.stack([random_spd(rng, n) for _ in range(count)])
        stacked = lin.linearize(fns, means, covs)
        assert stacked.F.shape == (count, m, n)
        assert stacked.c.shape == (count, m)
        assert stacked.omega.shape == (count, m, m)
        for j in range(count):
            ref = reference_slr(lin, fns[j], means[j], covs[j])
            assert_close(stacked.F[j], ref.F)
            assert_close(stacked.c[j], ref.c)
            assert_close(stacked.omega[j], ref.omega)

    def test_one_point_is_the_unstacked_case(self):
        rng = np.random.default_rng(3)
        fn = random_map(rng, 3, 2)
        mean, cov = rng.normal(size=3), random_spd(rng, 3)
        lin = SigmaPointLinearizer(alpha=0.8, beta=2.0, kappa=1.0)
        one = lin.linearize(fn, mean, cov)
        stack = lin.linearize([fn], mean[None], cov[None])
        assert one.F.shape == (2, 3) and one.omega.shape == (2, 2)
        assert np.array_equal(one.F, stack.F[0])
        assert np.array_equal(one.c, stack.c[0])
        assert np.array_equal(one.omega, stack.omega[0])
        assert lin.sigma_points(mean, cov).shape == (7, 3)

    def test_singular_density_falls_back_on_its_slice_only(self, monkeypatch):
        """A rank-deficient marginal takes the eigenvalue root and the
        least-squares fit; the regular slices keep the stacked path and
        are bit-identical to linearizing them without it."""
        rng = np.random.default_rng(11)
        lin = SigmaPointLinearizer()
        fns = [random_map(rng, 2, 2) for _ in range(5)]
        means = rng.normal(size=(5, 2))
        covs = np.stack([random_spd(rng, 2) for _ in range(5)])
        covs[2] = np.diag([1.0, 0.0])
        calls = {"eigh_root": 0, "lstsq": 0}
        eigh_root, lstsq = nl._eigh_root, np.linalg.lstsq

        def counted_root(a):
            calls["eigh_root"] += 1
            return eigh_root(a)

        def counted_lstsq(*args, **kwargs):
            calls["lstsq"] += 1
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(nl, "_eigh_root", counted_root)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        mixed = lin.linearize(fns, means, covs)
        assert calls == {"eigh_root": 1, "lstsq": 1}
        regular = [0, 1, 3, 4]
        alone = lin.linearize(
            [fns[j] for j in regular], means[regular], covs[regular]
        )
        for field in ("F", "c", "omega"):
            assert np.array_equal(
                getattr(mixed, field)[regular], getattr(alone, field)
            )
        ref = reference_slr(lin, fns[2], means[2], covs[2])
        assert np.all(np.isfinite(mixed.F[2]))
        assert_close(mixed.F[2], ref.F)
        assert_close(mixed.c[2], ref.c)
        assert_close(mixed.omega[2], ref.omega)

    def test_function_count_must_match(self):
        fn = random_map(np.random.default_rng(0), 2, 1)
        with pytest.raises(ValueError, match="2 functions for 3"):
            SigmaPointLinearizer().linearize(
                [fn, fn], np.zeros((3, 2)), np.stack([np.eye(2)] * 3)
            )


class TestStackedJacobian:
    def test_matches_per_point_taylor_expansion(self):
        rng = np.random.default_rng(5)
        fns = [random_map(rng, 3, 2) for _ in range(4)]
        means = rng.normal(size=(4, 3))
        lf = JacobianLinearizer().linearize(fns, means)
        assert lf.omega is None
        for j, (fn, x) in enumerate(zip(fns, means)):
            f = fn.jac(x)
            assert np.array_equal(lf.F[j], f)
            assert_close(lf.c[j], fn(x) - f @ x)


# ---------------------------------------------------------------------------
# the problem-level linearization and objective
# ---------------------------------------------------------------------------

MODELS = {
    "pendulum": lambda: pendulum_problem(12, seed=1),
    "bearings": lambda: bearings_only_tunnel_problem(12, seed=2),
    "turn": lambda: coordinated_turn_problem(12, seed=3),
    "cubic": lambda: cubic_sensor_problem(12, seed=4),
}


def mixed_covariance_problem() -> tuple[NonlinearProblem, np.ndarray]:
    """Pendulum steps with every kind of model covariance mixed in."""
    problem, truth = pendulum_problem(12, seed=5)
    steps = problem.steps
    steps[2].evolution_cov = 0.02
    steps[3].evolution_cov = None
    steps[4].evolution_cov = Whitener(np.diag([1e-3, 2e-3]))
    steps[5].evolution_cov = np.asarray(steps[5].evolution_cov, np.float32)
    steps[6].observation_cov = 0.3
    steps[7].observation_cov = np.asarray([[0.2]], np.float32)
    steps[8].observation = None
    steps[9].c = np.array([0.01, -0.02])
    return NonlinearProblem(steps, prior=problem.prior), truth


def trajectories(truth, count=4, seed=0):
    rng = np.random.default_rng(seed)
    yield [t for t in truth]
    for _ in range(count):
        yield [t + 0.3 * rng.normal(size=t.shape) for t in truth]


@pytest.mark.parametrize("model", [*MODELS, "mixed"])
def test_objective_is_bit_identical_to_per_step_reference(model):
    problem, truth = (
        mixed_covariance_problem() if model == "mixed" else MODELS[model]()
    )
    for trajectory in trajectories(truth):
        assert problem.objective(trajectory) == reference_objective(
            problem, trajectory
        )


@pytest.mark.parametrize("model", [*MODELS, "mixed"])
def test_linearize_matches_per_step_construction(model):
    """Each step of the stacked linearization is the step the per-step
    loop built: SLR slice, ``S S^T + omega`` noise, today's whitener."""
    problem, truth = (
        mixed_covariance_problem() if model == "mixed" else MODELS[model]()
    )
    lin = SigmaPointLinearizer(alpha=0.9, beta=2.0, kappa=0.5)
    rng = np.random.default_rng(9)
    n = problem.steps[0].state_dim
    covs = [0.05 * random_spd(rng, n) for _ in truth]
    linear = problem.linearize(list(truth), linearizer=lin, covariances=covs)
    for i, (s, out) in enumerate(zip(problem.steps, linear.steps)):
        if i > 0:
            ref = reference_slr(lin, s.evolution_fn, truth[i - 1], covs[i - 1])
            c = s.c if s.c is not None else np.zeros(n)
            model_cov = _as_cov_whitener(s.evolution_cov, n, "K").covariance()
            noise = Whitener(model_cov + ref.omega)
            assert_close(out.evolution.F, ref.F)
            assert_close(out.evolution.c, c + ref.c)
            assert_close(out.evolution.K.factor_matrix(), noise.factor_matrix())
        if s.observation is None:
            assert out.observation is None
            continue
        ref = reference_slr(lin, s.observation_fn, truth[i], covs[i])
        rows = len(s.observation)
        model_cov = _as_cov_whitener(s.observation_cov, rows, "L").covariance()
        noise = Whitener(model_cov + ref.omega)
        assert_close(out.observation.G, ref.F)
        assert_close(out.observation.o, s.observation - ref.c)
        assert_close(out.observation.L.factor_matrix(), noise.factor_matrix())


# ---------------------------------------------------------------------------
# the linearized problem is held as stacks
# ---------------------------------------------------------------------------


def linear_model(k: int, seed: int):
    problem = random_problem(k, seed=seed, dims=3, random_cov=True, obs_prob=0.7)
    return as_nonlinear(problem), np.zeros((k + 1, 3))


#: problem builders by ``(k, seed)``; the mixed-covariance problem has
#: a fixed length
STACKED_MODELS = {
    "pendulum": lambda k, seed: pendulum_problem(k, seed=seed),
    "bearings": lambda k, seed: bearings_only_tunnel_problem(k, seed=seed),
    "turn": lambda k, seed: coordinated_turn_problem(k, seed=seed),
    "cubic": lambda k, seed: cubic_sensor_problem(k, seed=seed),
    "mixed": lambda k, seed: mixed_covariance_problem(),
    "linear": linear_model,
}


def linearized(model: str, k: int, seed: int, sigma: bool, dtype):
    problem, truth = STACKED_MODELS[model](k, seed)
    rng = np.random.default_rng(seed)
    trajectory = [t + 0.1 * rng.normal(size=t.shape) for t in truth]
    if not sigma:
        return problem.linearize(trajectory, dtype=dtype)
    covs = [0.05 * random_spd(rng, len(t)) for t in truth]
    return problem.linearize(
        trajectory, linearizer=SigmaPointLinearizer(), covariances=covs, dtype=dtype
    )


def step_built(linear: StateSpaceProblem) -> StateSpaceProblem:
    """The same problem built from its steps view."""
    return StateSpaceProblem(linear.steps, linear.prior)


def assert_same_whitening(a, b):
    """Equal stacks, bit for bit, in equal layouts (the rounding of the
    products that read a stack depends on its layout)."""
    assert a.dims == b.dims
    assert len(a.obs) == len(b.obs) and len(a.evo) == len(b.evo)
    for (steps_a, x), (steps_b, y) in zip(a.obs + a.evo, b.obs + b.evo):
        assert steps_a == steps_b
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.strides == y.strides
        assert np.array_equal(x, y)


class TestLinearizedStacks:
    """``linearize`` returns per-shape stacks that whiten exactly like
    the problem built from their steps view."""

    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(sorted(STACKED_MODELS)),
        k=st.integers(1, 14),
        extra=st.integers(1, 9),
        seed=st.integers(0, 2**16),
        sigma=st.booleans(),
        dtype=st.sampled_from([None, np.float32]),
    )
    def test_stacks_whiten_like_their_steps(self, model, k, extra, seed, sigma, dtype):
        linear = linearized(model, k, seed, sigma, dtype)
        assert linear.evolution_stacks is not None
        reference = step_built(linear)
        assert_same_whitening(linear.whiten(), reference.whiten())
        assert_same_whitening(
            stack_whitened([linear]), stack_whitened([reference])
        )
        # A longer mate of the same structure: the bucket pads the
        # shorter member with one more evolution stack.
        mate = linearized(model, k + extra, seed + 1, sigma, dtype)
        if model == "mixed":
            mate = linearized("pendulum", 8 + extra, seed + 1, sigma, dtype)
        fleet = [linear, mate]
        references = [step_built(p) for p in fleet]
        for bucket in bucket_problems(fleet):
            assert_same_whitening(
                stack_whitened(bucket.members(fleet)),
                stack_whitened(bucket.members(references)),
            )

    @settings(max_examples=15, deadline=None)
    @given(
        models=st.lists(
            st.sampled_from(sorted(STACKED_MODELS)), min_size=2, max_size=4
        ),
        k=st.integers(1, 10),
        seed=st.integers(0, 2**16),
        sigma=st.booleans(),
    )
    def test_mixed_fleet_agrees_with_smoothing_each_alone(self, models, k, seed, sigma):
        """Stacked and step-built members share buckets."""
        fleet = [
            linearized(model, k + j, seed + j, sigma, None)
            for j, model in enumerate(models)
        ]
        fleet += [step_built(p) for p in fleet]
        smoother = BatchSmoother()
        together = smoother.smooth_many(fleet)
        for problem, result in zip(fleet, together):
            alone = smoother.smooth(problem)
            for a, b in zip(result.means, alone.means):
                assert_close(a, b, rtol=1e-9)
            for a, b in zip(result.covariances, alone.covariances):
                assert_close(a, b, rtol=1e-9)

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("evolution", "F"),
            ("evolution", "c"),
            ("observation", "G"),
            ("observation", "o"),
        ],
    )
    def test_steps_view_is_read_only(self, kind, field):
        """A write into the view would be ignored by whitening, which
        reads the stacks; it raises instead."""
        linear = linearized("bearings", 6, 1, True, None)
        stack = getattr(linear, f"{kind}_stacks")[0]
        block = getattr(getattr(linear.steps[3], kind), field)
        assert np.shares_memory(block, stack.blocks if field in "FG" else stack.rhs)
        with pytest.raises(ValueError, match="read-only"):
            block[0] = 1.0

    def test_bucketing_reads_the_stacks(self, monkeypatch):
        """Signatures, plan keys and padding never build the steps."""
        fleet = [linearized("pendulum", k, k, True, None) for k in (5, 7)]
        calls = []
        monkeypatch.setattr(
            StateSpaceProblem, "steps", property(lambda p: calls.append(p))
        )
        workload_key(fleet, exact_obs=True)
        for bucket in bucket_problems(fleet):
            stack_whitened(bucket.members(fleet))
        assert calls == []


def test_float32_linearization_stays_float32():
    problem, truth = mixed_covariance_problem()
    covs = [0.05 * np.eye(2) for _ in truth]
    linear = problem.linearize(
        list(truth),
        linearizer=SigmaPointLinearizer(),
        covariances=covs,
        dtype=np.float32,
    )
    for s in linear.steps:
        if s.evolution is not None:
            assert s.evolution.F.dtype == np.float32
            assert s.evolution.K.factor_matrix().dtype == np.float32
        if s.observation is not None:
            assert s.observation.o.dtype == np.float32
            assert s.observation.L.factor_matrix().dtype == np.float32


# ---------------------------------------------------------------------------
# errors name the equation and the step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoisonedOmega:
    """Sigma-point SLR whose residual covariance at one position of the
    stack of ``rows``-row equations is made negative enough to leave
    the inflated noise indefinite."""

    position: int
    rows: int
    name = "poisoned"
    needs_covariance = True

    def linearize(self, fn, mean, cov=None):
        lf = SigmaPointLinearizer().linearize(fn, mean, cov)
        omega = lf.omega.copy()
        if omega.shape[-1] == self.rows:
            omega[self.position] -= 10.0 * np.eye(self.rows)
        return LinearizedFn(F=lf.F, c=lf.c, omega=omega)


def test_indefinite_inflated_noise_names_its_step():
    problem, truth = pendulum_problem(10, seed=1)
    covs = [0.05 * np.eye(2) for _ in truth]
    # The pendulum's evolution equations (two rows; its observations
    # have one) stack steps 1 to 10 in order, so step 6 is at 5.
    lin = PoisonedOmega(position=5, rows=2)
    with pytest.raises(
        np.linalg.LinAlgError,
        match=r"evolution covariance K \+ omega at step 6 is not positive definite",
    ):
        problem.linearize(list(truth), linearizer=lin, covariances=covs)


@dataclass(frozen=True)
class InfiniteOmega(PoisonedOmega):
    """Sigma-point SLR whose residual covariance has ``+inf`` on one
    diagonal entry at one position of the ``rows``-row stack."""

    def linearize(self, fn, mean, cov=None):
        lf = SigmaPointLinearizer().linearize(fn, mean, cov)
        omega = lf.omega.copy()
        if omega.shape[-1] == self.rows:
            omega[self.position, 0, 0] = np.inf
        return LinearizedFn(F=lf.F, c=lf.c, omega=omega)


def test_infinite_inflated_noise_names_its_step():
    """An infinite variance factors without error; it is named instead
    of whitening its row to zero."""
    problem, truth = pendulum_problem(10, seed=1)
    covs = [0.05 * np.eye(2) for _ in truth]
    with pytest.raises(
        np.linalg.LinAlgError,
        match=r"evolution covariance K \+ omega at step 6 has a non-finite entry",
    ):
        problem.linearize(
            list(truth), linearizer=InfiniteOmega(position=5, rows=2), covariances=covs
        )


@pytest.mark.parametrize("method", ["linearize", "objective"])
def test_indefinite_model_covariance_names_its_step(method):
    problem, truth = pendulum_problem(10, seed=1)
    problem.steps[4].observation_cov = -np.eye(1)
    problem.steps[7].observation_cov = np.array([[0.0]])
    match = r"observation covariance L at step 4, step 7 is not positive definite"
    with pytest.raises(np.linalg.LinAlgError, match=match):
        getattr(problem, method)(list(truth))


def test_asymmetric_model_covariance_names_its_step():
    problem, truth = pendulum_problem(10, seed=1)
    problem.steps[3].evolution_cov = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(
        np.linalg.LinAlgError,
        match="evolution covariance K at step 3 must be symmetric",
    ):
        problem.objective(list(truth))


def test_misshapen_model_covariance_names_its_step():
    problem, truth = pendulum_problem(10, seed=1)
    problem.steps[5].evolution_cov = np.eye(3)
    with pytest.raises(
        ValueError, match=r"evolution covariance K at step 5 has shape \(3, 3\)"
    ):
        problem.linearize(list(truth))


# ---------------------------------------------------------------------------
# non-finite data is rejected at construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "step, field, value",
    [
        (4, "observation", np.array([np.nan])),
        (6, "c", np.array([0.0, np.inf])),
        (3, "evolution_cov", np.array([[np.inf, 0.0], [0.0, 1.0]])),
        (2, "evolution_cov", np.nan),
        (5, "observation_cov", np.array([[np.nan]])),
        (0, "observation_cov", -np.inf),
    ],
    ids=[
        "observation",
        "c",
        "evolution-cov-matrix",
        "evolution-cov-scalar",
        "observation-cov-matrix",
        "observation-cov-scalar",
    ],
)
def test_nonfinite_step_data_rejected_at_construction(step, field, value):
    problem, _ = pendulum_problem(10, seed=1)
    setattr(problem.steps[step], field, value)
    with pytest.raises(
        ValueError, match=f"step {step} has a non-finite {field}"
    ) as info:
        NonlinearProblem(problem.steps, problem.prior)
    assert not isinstance(info.value, np.linalg.LinAlgError)


@pytest.mark.parametrize("field", ["mean", "covariance"])
def test_nonfinite_prior_rejected_at_construction(field):
    problem, _ = pendulum_problem(10, seed=1)
    prior = problem.prior
    if field == "mean":
        prior = GaussianPrior(mean=[1.2, np.nan], cov=prior.cov)
    else:
        # A covariance matrix with an infinite variance is rejected
        # when it is factored; a factor given as such is not factored.
        with pytest.raises(np.linalg.LinAlgError, match="non-finite entry"):
            GaussianPrior(mean=prior.mean, cov=np.diag([np.inf, 1.0]))
        infinite = Whitener(np.diag([np.inf, 1.0]), kind="factor")
        prior = GaussianPrior(mean=prior.mean, cov=infinite)
    with pytest.raises(ValueError, match=f"prior has a non-finite {field}"):
        NonlinearProblem(problem.steps, prior)


def test_whitener_covariances_skip_the_finiteness_check():
    problem, _ = pendulum_problem(10, seed=1)
    problem.steps[1].evolution_cov = Whitener.scaled_identity(2, 0.1)
    NonlinearProblem(problem.steps, problem.prior)

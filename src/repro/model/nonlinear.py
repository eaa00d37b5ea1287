"""Nonlinear dynamic systems and their pluggable linearization layer.

The paper reduces nonlinear Kalman smoothing to a sequence of linear
smoothing problems (§2.2): each iteration replaces the nonlinear
``F_i``/``G_i`` by affine surrogates at the current iterate and adjusts
the constant terms so the linear solution is the next iterate.  *How*
the surrogate is produced is a policy, captured by the
:class:`Linearizer` protocol:

* :class:`JacobianLinearizer` — first-order Taylor expansion at a
  point (the classic extended/iterated Kalman smoother linearization,
  refactored out of the old ``NonlinearProblem.linearize`` body);
* :class:`SigmaPointLinearizer` — statistical linear regression (SLR)
  against a Gaussian density: unscented/cubature sigma points of
  ``N(mean, cov)`` are propagated through the function and moment
  matching yields the best affine fit ``F x + c`` *plus* the
  regression-residual covariance ``Omega`` that inflates the step's
  noise (Yaghoobi, Corenflos, Hassan & Särkkä, "Parallel Iterated
  Extended and Sigma-point Kalman Smoothers").  This is what the
  iterated posterior-linearization smoother
  (:class:`~repro.nonlinear.ipls.IteratedPosteriorLinearizationSmoother`)
  re-linearizes with around the current smoothed marginals.

This module holds the nonlinear model description, the linearization
layer, and four benchmark systems (pendulum, coordinated turn,
bearings-only tunnel, cubic sensor).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..linalg.cholesky import Whitener, spd_cholesky, whiten_each
from .problem import StateSpaceProblem
from .steps import Evolution, GaussianPrior, Observation, Step, _as_cov_whitener

__all__ = [
    "NonlinearFunction",
    "NonlinearStep",
    "NonlinearProblem",
    "Linearizer",
    "LinearizedFn",
    "JacobianLinearizer",
    "SigmaPointLinearizer",
    "as_nonlinear",
    "pendulum_problem",
    "coordinated_turn_problem",
    "bearings_only_tunnel_problem",
    "cubic_sensor_problem",
]


@dataclass
class NonlinearFunction:
    """A differentiable vector function with its Jacobian.

    ``fn(x) -> y`` and ``jacobian(x) -> dy/dx``.  When ``jacobian`` is
    omitted a central finite difference is used (tests verify analytic
    Jacobians against it).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    fd_step: float = 1e-6

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def jac(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            return np.atleast_2d(np.asarray(self.jacobian(x), dtype=float))
        y0 = self(x)
        jac = np.zeros((y0.shape[0], x.shape[0]))
        for j in range(x.shape[0]):
            dx = np.zeros_like(x)
            dx[j] = self.fd_step
            jac[:, j] = (self(x + dx) - self(x - dx)) / (2 * self.fd_step)
        return jac


@dataclass(frozen=True)
class LinearizedFn:
    """An affine surrogate ``y ~ F x + c`` for a nonlinear function.

    ``omega`` is the covariance of the regression residual
    ``y - F x - c`` under the linearization density (``None`` for
    point linearizations, which carry no residual model).  Iterated
    smoothers add it to the step's noise covariance, which is what
    makes posterior-linearization iterations well posed away from the
    Gauss–Newton fixed point.

    A stacked linearization holds ``(N, m, n)``/``(N, m)``/``(N, m, m)``
    arrays, slice ``j`` belonging to point ``j``.
    """

    F: np.ndarray
    c: np.ndarray
    omega: np.ndarray | None = None


@runtime_checkable
class Linearizer(Protocol):
    """Policy producing affine surrogates of :class:`NonlinearFunction`.

    ``linearize(fn, mean, cov)`` returns a :class:`LinearizedFn` valid
    around ``mean`` (point methods) or against the Gaussian density
    ``N(mean, cov)`` (statistical methods).  It works on stacks: with
    an ``(N, n)`` ``mean``, an ``(N, n, n)`` ``cov`` and ``fn`` either
    one function or a sequence of ``N`` (one per point), it returns
    stacked arrays; a single ``(n,)`` point is the ``N = 1`` case and
    returns unstacked ones.  ``needs_covariance`` advertises whether
    ``cov`` is required — callers without marginal covariances (plain
    Gauss–Newton) check it up front instead of failing mid-sweep.
    """

    name: str
    needs_covariance: bool

    def linearize(
        self,
        fn: NonlinearFunction | Sequence[NonlinearFunction],
        mean: np.ndarray,
        cov: np.ndarray | None = None,
    ) -> LinearizedFn: ...


def _stacked(fn, mean, cov):
    """``(fns, mean, cov, single)`` with a leading point axis."""
    mean = np.asarray(mean, dtype=float)
    single = mean.ndim == 1
    if single:
        mean = mean[None]
    if cov is not None:
        cov = np.asarray(cov, dtype=float)
        if single:
            cov = cov[None]
    fns = [fn] * len(mean) if callable(fn) else list(fn)
    if len(fns) != len(mean):
        raise ValueError(
            f"got {len(fns)} functions for {len(mean)} linearization points"
        )
    return fns, mean, cov, single


def _unstacked(lf: LinearizedFn, single: bool) -> LinearizedFn:
    if not single:
        return lf
    omega = None if lf.omega is None else lf.omega[0]
    return LinearizedFn(F=lf.F[0], c=lf.c[0], omega=omega)


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a[j] @ x[j]`` for every slice ``j``."""
    return (a @ x[..., None])[..., 0]


@dataclass(frozen=True)
class JacobianLinearizer:
    """First-order Taylor expansion at a point (EKF/Gauss–Newton).

    ``F = fn'(mean)``, ``c = fn(mean) - F mean``, no residual
    covariance — exactly the linearization the iterated smoothers have
    always used, now behind the :class:`Linearizer` protocol.
    """

    name = "jacobian"
    needs_covariance = False

    def linearize(
        self,
        fn: NonlinearFunction | Sequence[NonlinearFunction],
        mean: np.ndarray,
        cov: np.ndarray | None = None,
    ) -> LinearizedFn:
        fns, mean, _, single = _stacked(fn, mean, None)
        f = np.stack([g.jac(x) for g, x in zip(fns, mean)])
        y = np.stack([g(x) for g, x in zip(fns, mean)])
        return _unstacked(LinearizedFn(F=f, c=y - _matvec(f, mean)), single)


@dataclass(frozen=True)
class SigmaPointLinearizer:
    """Statistical linear regression through unscented sigma points.

    Propagates the ``2n + 1`` scaled sigma points of ``N(mean, cov)``
    through ``fn`` and moment-matches the best affine fit: with
    ``P_xy = sum_j w_j (x_j - mean)(y_j - ybar)^T``,

    ``F = P_xy^T P_xx^{-1}``, ``c = ybar - F mean``,
    ``omega = P_yy - F P_xy``  (the SLR residual covariance, PSD).

    The defaults ``alpha=1, beta=0, kappa=0`` reproduce the spherical
    cubature rule (zero center weight); any valid ``alpha/beta/kappa``
    recovers ``F, c`` exactly on affine functions with ``omega = 0``,
    which is why IPLS collapses to the linear solution on linear
    problems.

    A stack of ``N`` densities is regressed with stacked ``cholesky``/
    ``solve``/``eigh`` calls; only a slice whose scaled covariance is
    not positive definite takes the eigenvalue square root, and only a
    slice whose ``P_xx`` is singular takes the least-squares fit.
    """

    alpha: float = 1.0
    beta: float = 0.0
    kappa: float = 0.0

    name = "sigma-point"
    needs_covariance = True

    def weights(self, n: int) -> tuple[float, np.ndarray, np.ndarray]:
        """Scaling ``lambda`` plus mean/covariance weight vectors."""
        lam = self.alpha**2 * (n + self.kappa) - n
        if not np.isfinite(lam) or n + lam <= 0:
            raise ValueError(
                f"sigma-point scaling n + lambda must be positive; got "
                f"alpha={self.alpha}, kappa={self.kappa} for dimension {n}"
            )
        w_mean = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
        w_mean[0] = lam / (n + lam)
        w_cov = w_mean.copy()
        w_cov[0] += 1.0 - self.alpha**2 + self.beta
        return lam, w_mean, w_cov

    def sigma_points(self, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
        """The ``(N, 2n + 1, n)`` scaled sigma points of the densities
        ``N(mean[j], cov[j])`` (``(2n + 1, n)`` for one density)."""
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.ndim == 1:
            return self.sigma_points(mean[None], cov[None])[0]
        n = mean.shape[-1]
        lam, _, _ = self.weights(n)
        root_t = np.swapaxes(_psd_sqrt((n + lam) * _symmetrize(cov)), 1, 2)
        center = mean[:, None, :]
        return np.concatenate([center, center + root_t, center - root_t], axis=1)

    def linearize(
        self,
        fn: NonlinearFunction | Sequence[NonlinearFunction],
        mean: np.ndarray,
        cov: np.ndarray | None = None,
    ) -> LinearizedFn:
        if cov is None:
            raise ValueError(
                "sigma-point linearization regresses against a density "
                "N(mean, cov): pass the marginal covariances (IPLS "
                "threads the current smoothed covariances here)"
            )
        fns, mean, cov, single = _stacked(fn, mean, cov)
        count, n = mean.shape
        _, w_mean, w_cov = self.weights(n)
        points = self.sigma_points(mean, cov)
        ys = np.stack([g(p) for g, pts in zip(fns, points) for p in pts])
        ys = ys.reshape(count, 2 * n + 1, -1)
        ybar = w_mean @ ys
        # C order lays each slice out as the one-point expression does,
        # so the products below make the same BLAS calls per slice.
        dx = np.subtract(points, mean[:, None, :], order="C")
        dy = np.subtract(ys, ybar[:, None, :], order="C")
        # Regress against the sigma-point-reconstructed P_xx (the
        # center point drops out: dx_0 = 0), so F is exactly the
        # least-squares fit on the propagated points and omega is PSD
        # up to roundoff regardless of the cov's conditioning.
        wdx_t = np.swapaxes(np.multiply(dx, w_cov[:, None], order="C"), 1, 2)
        p_xx = wdx_t @ dx
        p_xy = wdx_t @ dy
        p_yy = np.swapaxes(np.multiply(dy, w_cov[:, None], order="C"), 1, 2) @ dy
        slopes = _each_or(
            lambda sym, b, _raw: np.linalg.solve(sym, b),
            lambda _sym, b, raw: np.linalg.lstsq(raw, b, rcond=None)[0],
            _symmetrize(p_xx),
            p_xy,
            p_xx,
        )
        f = np.swapaxes(slopes, 1, 2)
        omega = _psd_clip(p_yy - f @ p_xy)
        return _unstacked(
            LinearizedFn(F=f, c=ybar - _matvec(f, mean), omega=omega), single
        )


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _each_or(kernel, fallback, *stacks: np.ndarray) -> np.ndarray:
    """``kernel`` over whole stacks; when it raises ``LinAlgError``,
    slice by slice, with ``fallback`` on just the slices that raise."""
    try:
        return kernel(*stacks)
    except np.linalg.LinAlgError:
        pass
    out = []
    for parts in zip(*stacks):
        try:
            out.append(kernel(*parts))
        except np.linalg.LinAlgError:
            out.append(fallback(*parts))
    return np.stack(out)


def _eigh_root(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """A square root ``S`` with ``S S^T = a`` (lower Cholesky when PD,
    eigenvalue-clipped symmetric root otherwise), slice by slice."""
    return _each_or(np.linalg.cholesky, _eigh_root, a)


def _psd_clip(a: np.ndarray) -> np.ndarray:
    """Project nearly-PSD matrices onto the PSD cone (roundoff guard)."""
    a = _symmetrize(a)
    if a.shape[-1] == 0:
        return a
    vals, vecs = np.linalg.eigh(a)
    negative = vals[..., 0] < 0.0
    if not negative.any():
        return a
    scaled = np.multiply(vecs, np.clip(vals, 0.0, None)[..., None, :], order="C")
    clipped = scaled @ np.swapaxes(vecs, -1, -2)
    return np.where(negative[..., None, None], _symmetrize(clipped), a)


def _cast(a: np.ndarray, dtype) -> np.ndarray:
    return np.asarray(a, dtype=float if dtype is None else dtype)


@dataclass
class NonlinearStep:
    """One step of a nonlinear problem.

    ``evolution_fn`` maps ``u_{i-1}`` to the predicted ``H_i u_i``
    contribution (paper form ``H_i u_i = F_i(u_{i-1}) + c_i + eps``);
    ``observation_fn`` maps ``u_i`` to the predicted observation.
    """

    state_dim: int
    evolution_fn: NonlinearFunction | None = None
    evolution_cov: np.ndarray | None = None
    c: np.ndarray | None = None
    observation_fn: NonlinearFunction | None = None
    observation: np.ndarray | None = None
    observation_cov: np.ndarray | None = None


#: the :class:`NonlinearStep` data that must be finite
_FINITE_FIELDS = ("observation", "c", "evolution_cov", "observation_cov")


def _is_matrix(cov) -> bool:
    """Whether a model covariance is a matrix (not ``None``, a scalar
    variance or a :class:`Whitener`)."""
    return isinstance(cov, np.ndarray) or not (
        cov is None or isinstance(cov, Whitener) or np.isscalar(cov)
    )


def _cov_key(cov):
    """Grouping key of a model covariance: matrices stack per dtype,
    everything else is whitened one equation at a time."""
    return np.asarray(cov).dtype if _is_matrix(cov) else None


def _group_by(indices, key) -> list[list[int]]:
    groups: dict = {}
    for i in indices:
        groups.setdefault(key(i), []).append(i)
    return list(groups.values())


def _step_names(steps: list[int]) -> list[str]:
    return [f"step {i}" for i in steps]


def _model_factors(covs, rows: int, what: str, steps: list[int], dtype=None):
    """Cholesky factors of a group's covariance matrices, validated in
    one stacked call."""
    mats = [np.asarray(cov) for cov in covs]
    for i, mat in zip(steps, mats):
        if mat.shape != (rows, rows):
            raise ValueError(
                f"{what} at step {i} has shape {mat.shape}, expected "
                f"({rows}, {rows})"
            )
    stack = np.stack(mats)
    if dtype is not None:
        stack = stack.astype(dtype)
    return spd_cholesky(stack, what, names=_step_names(steps))


def _group_noise(covs, rows: int, omega, dtype, what: str, steps: list[int]):
    """The noise of each linearized equation of one group.

    Point linearizations (``omega is None``) keep the model covariance:
    a scalar, ``Whitener`` or ``None`` passes through untouched and a
    matrix becomes the whitener of its factor.  Statistical
    linearizations build the model covariance ``S S^T`` from its
    validated factor, add the SLR residual covariance and validate and
    factor the sums in one stacked call.  ``dtype`` casts the matrices
    that are factored.
    """
    if _is_matrix(covs[0]):
        factors = _model_factors(
            covs, rows, what, steps, dtype if omega is None else None
        )
        if omega is None:
            return [Whitener(f, kind="factor", what=what) for f in factors]
        model = factors @ np.swapaxes(factors, 1, 2)
    elif omega is None:
        return list(covs)
    else:
        model = np.stack(
            [_as_cov_whitener(cov, rows, what).covariance() for cov in covs]
        )
    factors = spd_cholesky(
        _cast(model + omega, dtype), f"{what} + omega", names=_step_names(steps)
    )
    return [Whitener(f, kind="factor", what=what) for f in factors]


def _whitened_squares(resid: np.ndarray, covs, what: str, steps: list[int]):
    """``|V r|^2`` of each residual row, whitened exactly as its own
    :meth:`Whitener.whiten` would."""
    rows = resid.shape[1]
    if _is_matrix(covs[0]):
        white = whiten_each(_model_factors(covs, rows, what, steps), resid)
    else:
        white = np.stack(
            [
                _as_cov_whitener(cov, rows, what).whiten(r)
                for cov, r in zip(covs, resid)
            ]
        )
    return np.vecdot(white, white)


def _offset(step: NonlinearStep) -> np.ndarray:
    return step.c if step.c is not None else np.zeros(step.state_dim)


def _stack_at(arrays, indices: list[int]):
    return None if arrays is None else np.stack([arrays[i] for i in indices])


class NonlinearProblem:
    """A nonlinear estimation problem (``H_i = I`` throughout).

    Construction rejects non-finite observations, offsets, noise
    covariances and prior data, naming the step and field.
    """

    def __init__(
        self, steps: list[NonlinearStep], prior: GaussianPrior | None = None
    ):
        if not steps:
            raise ValueError("a problem needs at least one step")
        if steps[0].evolution_fn is not None:
            raise ValueError("steps[0] must not have an evolution function")
        for i, s in enumerate(steps[1:], start=1):
            if s.evolution_fn is None:
                raise ValueError(f"step {i} is missing its evolution function")
        for i, s in enumerate(steps):
            for name in _FINITE_FIELDS:
                value = getattr(s, name)
                if value is None or isinstance(value, Whitener):
                    continue
                if not np.isfinite(value).all():
                    raise ValueError(f"step {i} has a non-finite {name}")
        if prior is not None:
            if not np.isfinite(prior.mean).all():
                raise ValueError("the prior has a non-finite mean")
            if not np.isfinite(prior.cov.factor_matrix()).all():
                raise ValueError("the prior has a non-finite covariance")
        self.steps = steps
        self.prior = prior

    @property
    def k(self) -> int:
        return len(self.steps) - 1

    @property
    def state_dims(self) -> list[int]:
        return [s.state_dim for s in self.steps]

    def _evolution_groups(self, states: list[np.ndarray]) -> list[list[int]]:
        """Steps whose evolution equations share their shapes."""
        steps = self.steps
        return _group_by(
            (i for i in range(1, len(steps)) if steps[i].evolution_fn is not None),
            lambda i: (
                states[i - 1].shape,
                steps[i].state_dim,
                _cov_key(steps[i].evolution_cov),
            ),
        )

    def _observation_groups(self, states: list[np.ndarray]) -> list[list[int]]:
        """Steps whose observation equations share their shapes."""
        steps = self.steps
        return _group_by(
            (
                i
                for i, s in enumerate(steps)
                if s.observation_fn is not None and s.observation is not None
            ),
            lambda i: (
                states[i].shape,
                np.shape(steps[i].observation),
                _cov_key(steps[i].observation_cov),
            ),
        )

    def linearize(
        self,
        trajectory: list[np.ndarray],
        *,
        linearizer: Linearizer | None = None,
        covariances: list[np.ndarray] | None = None,
        dtype: np.dtype | type | None = None,
    ) -> StateSpaceProblem:
        """Linear problem whose solution is the next iterate.

        With the default :class:`JacobianLinearizer`, at the iterate
        ``u^0`` the evolution residual linearizes as
        ``u_i - F'(u^0_{i-1}) u_{i-1} - c_i'`` with
        ``c_i' = c_i + F(u^0_{i-1}) - F'(u^0_{i-1}) u^0_{i-1}``, and the
        observation residual as ``o_i' - G'(u^0_i) u_i`` with
        ``o_i' = o_i - G(u^0_i) + G'(u^0_i) u^0_i`` (paper §2.2, [16])
        — the classic Gauss–Newton step.

        A statistical ``linearizer`` (:class:`SigmaPointLinearizer`)
        instead regresses against ``N(u^0_i, covariances[i])`` and adds
        its residual covariance ``omega`` to the step noise — the
        posterior-linearization construction.  ``dtype`` casts the
        materialized matrices to the working dtype
        (``EstimatorConfig(dtype=...).solve_dtype``) so the
        mixed-precision batched path is not silently defeated by
        float64 inputs.

        Equations with the same shapes are linearized together: one
        stacked linearizer call per group, and one stacked validation
        and factorization per group of the noise covariances it needs.
        Their errors name the step.
        """
        if len(trajectory) != len(self.steps):
            raise ValueError(
                f"trajectory has {len(trajectory)} states, problem has "
                f"{len(self.steps)}"
            )
        lin = linearizer if linearizer is not None else JacobianLinearizer()
        if covariances is not None and len(covariances) != len(self.steps):
            raise ValueError(
                f"got {len(covariances)} covariances for "
                f"{len(self.steps)} steps"
            )
        if lin.needs_covariance and covariances is None:
            raise ValueError(
                f"the {lin.name!r} linearizer needs per-step marginal "
                "covariances; pass covariances= (IPLS threads the "
                "current smoothed covariances automatically)"
            )
        steps = self.steps
        states = [np.asarray(u, dtype=float) for u in trajectory]
        evolutions: dict[int, Evolution] = {}
        for idx in self._evolution_groups(states):
            prev = [i - 1 for i in idx]
            lf = lin.linearize(
                [steps[i].evolution_fn for i in idx],
                np.stack([states[i] for i in prev]),
                _stack_at(covariances, prev),
            )
            c = _cast(np.stack([_offset(steps[i]) for i in idx]) + lf.c, dtype)
            noise = _group_noise(
                [steps[i].evolution_cov for i in idx],
                steps[idx[0]].state_dim,
                lf.omega,
                dtype,
                "evolution covariance K",
                idx,
            )
            f = _cast(lf.F, dtype)
            for j, i in enumerate(idx):
                evolutions[i] = Evolution(F=f[j], c=c[j], K=noise[j])
        observations: dict[int, Observation] = {}
        for idx in self._observation_groups(states):
            lf = lin.linearize(
                [steps[i].observation_fn for i in idx],
                np.stack([states[i] for i in idx]),
                _stack_at(covariances, idx),
            )
            o = np.stack([np.asarray(steps[i].observation, dtype=float) for i in idx])
            noise = _group_noise(
                [steps[i].observation_cov for i in idx],
                o.shape[1],
                lf.omega,
                dtype,
                "observation covariance L",
                idx,
            )
            g, o = _cast(lf.F, dtype), _cast(o - lf.c, dtype)
            for j, i in enumerate(idx):
                observations[i] = Observation(G=g[j], o=o[j], L=noise[j])
        out = [
            Step(
                state_dim=s.state_dim,
                evolution=evolutions.get(i),
                observation=observations.get(i),
            )
            for i, s in enumerate(steps)
        ]
        prior = self.prior
        if dtype is not None and prior is not None:
            prior = GaussianPrior(
                mean=_cast(prior.mean, dtype),
                cov=_cast(prior.cov_matrix(), dtype),
            )
        return StateSpaceProblem(out, prior=prior)

    def objective(self, trajectory: list[np.ndarray]) -> float:
        """The nonlinear generalized least-squares objective (paper eq. 4).

        Equations with the same shapes are evaluated and whitened
        together, then the squares are added one equation at a time:
        the prior first, then each step's evolution and observation
        term.  The sum is therefore the same, bit for bit, as whitening
        and adding each equation on its own.
        """
        steps = self.steps
        states = [np.asarray(u, dtype=float) for u in trajectory]
        squares = np.zeros((len(steps), 2))
        for idx in self._evolution_groups(states):
            resid = np.stack(
                [
                    states[i] - steps[i].evolution_fn(states[i - 1]) - _offset(steps[i])
                    for i in idx
                ]
            )
            squares[idx, 0] = _whitened_squares(
                resid,
                [steps[i].evolution_cov for i in idx],
                "evolution covariance K",
                idx,
            )
        for idx in self._observation_groups(states):
            resid = np.stack(
                [steps[i].observation - steps[i].observation_fn(states[i]) for i in idx]
            )
            squares[idx, 1] = _whitened_squares(
                resid,
                [steps[i].observation_cov for i in idx],
                "observation covariance L",
                idx,
            )
        total = 0.0
        if self.prior is not None:
            r = self.prior.cov.whiten(states[0] - self.prior.mean)
            total += float(r @ r)
        # An absent equation adds 0.0, which leaves a sum unchanged.
        for term in squares.ravel().tolist():
            total += term
        return total


def as_nonlinear(problem: StateSpaceProblem) -> NonlinearProblem:
    """Lift a linear problem into the nonlinear form.

    The evolution/observation maps become linear
    :class:`NonlinearFunction` objects with constant Jacobians, so the
    iterated smoothers (Gauss–Newton, Levenberg–Marquardt) accept
    linear problems through the uniform ``smooth(problem)`` surface —
    on which they converge in one exact step.  Square invertible
    ``H_i`` are reduced away as in
    :func:`~repro.kalman.standard_form.to_standard_form`; rectangular
    ``H_i`` are a QR-smoother-only feature and raise.
    """
    if isinstance(problem, NonlinearProblem):
        return problem
    out: list[NonlinearStep] = []
    for i, step in enumerate(problem.steps):
        evo_fn = evo_cov = cvec = None
        if i > 0:
            evo = step.evolution
            h = evo.H
            if h.shape[0] != h.shape[1]:
                raise ValueError(
                    f"step {i} has a rectangular H ({h.shape[0]}x"
                    f"{h.shape[1]}); the nonlinear form requires H_i = I "
                    "or square invertible H_i — use the QR-based smoothers"
                )
            f, cvec, k_cov = evo.F, evo.c, evo.K.covariance()
            if not evo.is_identity_h():
                f = np.linalg.solve(h, f)
                cvec = np.linalg.solve(h, cvec)
                hinv_k = np.linalg.solve(h, k_cov)
                k_cov = np.linalg.solve(h, hinv_k.T).T
            evo_fn = NonlinearFunction(
                fn=lambda x, _f=f: _f @ x, jacobian=lambda x, _f=f: _f
            )
            evo_cov = k_cov
        obs_fn = obs = obs_cov = None
        if step.observation is not None:
            g = step.observation.G
            obs_fn = NonlinearFunction(
                fn=lambda x, _g=g: _g @ x, jacobian=lambda x, _g=g: _g
            )
            obs = step.observation.o
            obs_cov = step.observation.L.covariance()
        out.append(
            NonlinearStep(
                state_dim=step.state_dim,
                evolution_fn=evo_fn,
                evolution_cov=evo_cov,
                c=cvec,
                observation_fn=obs_fn,
                observation=obs,
                observation_cov=obs_cov,
            )
        )
    return NonlinearProblem(out, prior=problem.prior)


def pendulum_problem(
    k: int,
    dt: float = 0.05,
    q: float = 0.01,
    r: float = 0.1,
    seed: int = 0,
) -> tuple[NonlinearProblem, np.ndarray]:
    """Noisy pendulum with ``sin`` observations (Särkkä's classic demo).

    State ``[angle, angular velocity]``; dynamics
    ``theta' = omega, omega' = -g sin(theta)`` discretized by Euler;
    observation ``sin(theta)``.  Returns ``(problem, true_states)``.
    """
    g_const = 9.81
    rng = np.random.default_rng(seed)

    def evo_fn(x):
        return np.array([x[0] + dt * x[1], x[1] - dt * g_const * np.sin(x[0])])

    def evo_jac(x):
        return np.array(
            [[1.0, dt], [-dt * g_const * np.cos(x[0]), 1.0]]
        )

    def obs_fn(x):
        return np.array([np.sin(x[0])])

    def obs_jac(x):
        return np.array([[np.cos(x[0]), 0.0]])

    qcov = q * np.array([[dt**3 / 3, dt**2 / 2], [dt**2 / 2, dt]])
    qchol = np.linalg.cholesky(qcov + 1e-15 * np.eye(2))
    truth = np.zeros((k + 1, 2))
    truth[0] = [1.2, 0.0]
    steps: list[NonlinearStep] = []
    for i in range(k + 1):
        if i > 0:
            truth[i] = evo_fn(truth[i - 1]) + qchol @ rng.standard_normal(2)
        o = obs_fn(truth[i]) + np.sqrt(r) * rng.standard_normal(1)
        steps.append(
            NonlinearStep(
                state_dim=2,
                evolution_fn=None
                if i == 0
                else NonlinearFunction(evo_fn, evo_jac),
                evolution_cov=None if i == 0 else qcov + 1e-12 * np.eye(2),
                observation_fn=NonlinearFunction(obs_fn, obs_jac),
                observation=o,
                observation_cov=r * np.eye(1),
            )
        )
    prior = GaussianPrior(mean=np.array([1.2, 0.0]), cov=0.5 * np.eye(2))
    return NonlinearProblem(steps, prior=prior), truth


def coordinated_turn_problem(
    k: int,
    dt: float = 0.1,
    q_turn: float = 0.05,
    r: float = 0.3,
    seed: int = 0,
) -> tuple[NonlinearProblem, np.ndarray]:
    """Coordinated-turn target with range-bearing observations.

    State ``[px, py, v, heading, turn-rate]``; a standard nonlinear
    tracking benchmark.  Observations are range and bearing from the
    origin.  Returns ``(problem, true_states)``.
    """
    rng = np.random.default_rng(seed)

    def evo_fn(x):
        px, py, v, th, w = x
        return np.array(
            [
                px + dt * v * np.cos(th),
                py + dt * v * np.sin(th),
                v,
                th + dt * w,
                w,
            ]
        )

    def evo_jac(x):
        _px, _py, v, th, _w = x
        jac = np.eye(5)
        jac[0, 2] = dt * np.cos(th)
        jac[0, 3] = -dt * v * np.sin(th)
        jac[1, 2] = dt * np.sin(th)
        jac[1, 3] = dt * v * np.cos(th)
        jac[3, 4] = dt
        return jac

    def obs_fn(x):
        px, py = x[0], x[1]
        return np.array([np.hypot(px, py), np.arctan2(py, px)])

    def obs_jac(x):
        px, py = x[0], x[1]
        rho2 = px * px + py * py
        rho = np.sqrt(rho2)
        jac = np.zeros((2, 5))
        jac[0, 0] = px / rho
        jac[0, 1] = py / rho
        jac[1, 0] = -py / rho2
        jac[1, 1] = px / rho2
        return jac

    qcov = np.diag([1e-6, 1e-6, 1e-3, 1e-6, q_turn * dt])
    qchol = np.sqrt(qcov)
    truth = np.zeros((k + 1, 5))
    truth[0] = [5.0, 0.0, 1.0, np.pi / 2, 0.2]
    steps: list[NonlinearStep] = []
    for i in range(k + 1):
        if i > 0:
            truth[i] = evo_fn(truth[i - 1]) + qchol @ rng.standard_normal(5)
        o = obs_fn(truth[i]) + np.sqrt(r) * rng.standard_normal(2) * np.array(
            [1.0, 0.05]
        )
        lcov = r * np.diag([1.0, 0.05**2])
        steps.append(
            NonlinearStep(
                state_dim=5,
                evolution_fn=None
                if i == 0
                else NonlinearFunction(evo_fn, evo_jac),
                evolution_cov=None if i == 0 else qcov,
                observation_fn=NonlinearFunction(obs_fn, obs_jac),
                observation=o,
                observation_cov=lcov,
            )
        )
    prior = GaussianPrior(mean=truth[0], cov=0.1 * np.eye(5))
    return NonlinearProblem(steps, prior=prior), truth


def bearings_only_tunnel_problem(
    k: int,
    dt: float = 0.1,
    q: float = 0.05,
    r: float = 0.015,
    stations: tuple[tuple[float, float], ...] = ((-1.0, 1.0), (1.0, 1.0)),
    seed: int = 0,
) -> tuple[NonlinearProblem, np.ndarray]:
    """Bearings-only tracking through a "tunnel" of fixed stations.

    Constant-velocity state ``[px, py, vx, vy]``; the only observations
    are bearings ``atan2(py - sy, px - sx)`` from each station — no
    range.  Bearings change fastest (and the measurement is most
    nonlinear) while the target passes under a station, which is where
    single-pass Jacobian linearization visibly lags IPLS.  The default
    geometry keeps the target below the stations so bearings stay in
    ``(-pi, 0)`` and never wrap.  Returns ``(problem, true_states)``.
    """
    rng = np.random.default_rng(seed)
    sxy = np.asarray(stations, dtype=float)
    f_cv = np.eye(4)
    f_cv[0, 2] = f_cv[1, 3] = dt

    def evo_fn(x):
        return f_cv @ x

    def evo_jac(x):
        return f_cv

    def obs_fn(x):
        return np.arctan2(x[1] - sxy[:, 1], x[0] - sxy[:, 0])

    def obs_jac(x):
        dx = x[0] - sxy[:, 0]
        dy = x[1] - sxy[:, 1]
        rho2 = dx * dx + dy * dy
        jac = np.zeros((sxy.shape[0], 4))
        jac[:, 0] = -dy / rho2
        jac[:, 1] = dx / rho2
        return jac

    qcov = q * np.block(
        [
            [dt**3 / 3 * np.eye(2), dt**2 / 2 * np.eye(2)],
            [dt**2 / 2 * np.eye(2), dt * np.eye(2)],
        ]
    )
    qchol = np.linalg.cholesky(qcov + 1e-12 * np.eye(4))
    truth = np.zeros((k + 1, 4))
    truth[0] = [-2.0, 0.0, 0.7, 0.0]
    steps: list[NonlinearStep] = []
    for i in range(k + 1):
        if i > 0:
            truth[i] = evo_fn(truth[i - 1]) + qchol @ rng.standard_normal(4)
        o = obs_fn(truth[i]) + np.sqrt(r) * rng.standard_normal(sxy.shape[0])
        steps.append(
            NonlinearStep(
                state_dim=4,
                evolution_fn=None
                if i == 0
                else NonlinearFunction(evo_fn, evo_jac),
                evolution_cov=None if i == 0 else qcov + 1e-12 * np.eye(4),
                observation_fn=NonlinearFunction(obs_fn, obs_jac),
                observation=o,
                observation_cov=r * np.eye(sxy.shape[0]),
            )
        )
    prior = GaussianPrior(
        mean=truth[0], cov=np.diag([0.5, 0.5, 0.2, 0.2])
    )
    return NonlinearProblem(steps, prior=prior), truth


def cubic_sensor_problem(
    k: int,
    a: float = 0.98,
    q: float = 0.02,
    r: float = 0.01,
    beta: float = 1.0,
    seed: int = 0,
) -> tuple[NonlinearProblem, np.ndarray]:
    """The classic cubic sensor: scalar AR(1) state, ``x^3`` readout.

    ``x_i = a x_{i-1} + eps`` observed through ``o = beta x^3 + delta``.
    Near ``x = 0`` the Jacobian ``3 beta x^2`` vanishes, so point
    linearization throws the measurement away exactly where the state
    is hardest to pin down; sigma-point SLR keeps a useful slope from
    the spread of the density.  Returns ``(problem, true_states)``.
    """
    rng = np.random.default_rng(seed)

    def evo_fn(x):
        return a * x

    def evo_jac(x):
        return np.array([[a]])

    def obs_fn(x):
        return np.array([beta * x[0] ** 3])

    def obs_jac(x):
        return np.array([[3.0 * beta * x[0] ** 2]])

    truth = np.zeros((k + 1, 1))
    truth[0] = 0.8
    steps: list[NonlinearStep] = []
    for i in range(k + 1):
        if i > 0:
            truth[i] = evo_fn(truth[i - 1]) + np.sqrt(q) * rng.standard_normal(1)
        o = obs_fn(truth[i]) + np.sqrt(r) * rng.standard_normal(1)
        steps.append(
            NonlinearStep(
                state_dim=1,
                evolution_fn=None
                if i == 0
                else NonlinearFunction(evo_fn, evo_jac),
                evolution_cov=None if i == 0 else q * np.eye(1),
                observation_fn=NonlinearFunction(obs_fn, obs_jac),
                observation=o,
                observation_cov=r * np.eye(1),
            )
        )
    prior = GaussianPrior(mean=truth[0], cov=0.5 * np.eye(1))
    return NonlinearProblem(steps, prior=prior), truth

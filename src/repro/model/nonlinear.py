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

Model functions are batched (:class:`NonlinearFunction`): each takes a
stack of points, so the linearizers and the objective call it once per
group of equations of one shape (:class:`EquationGroup`) instead of
once per point; :func:`pointwise` adapts a function of one point.

This module holds the nonlinear model description, the linearization
layer, and four benchmark systems (pendulum, coordinated turn,
bearings-only tunnel, cubic sensor).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..linalg.cholesky import Whitener, spd_cholesky, whiten_each
from .problem import EquationStack, StateSpaceProblem
from .steps import GaussianPrior, _as_cov_whitener

__all__ = [
    "NonlinearFunction",
    "NonlinearStep",
    "NonlinearProblem",
    "Linearizer",
    "LinearizedFn",
    "JacobianLinearizer",
    "SigmaPointLinearizer",
    "EquationGroup",
    "EquationGroups",
    "as_nonlinear",
    "pointwise",
    "pendulum_problem",
    "coordinated_turn_problem",
    "bearings_only_tunnel_problem",
    "cubic_sensor_problem",
]


@dataclass
class NonlinearFunction:
    """A differentiable vector function with its Jacobian, on stacks.

    ``fn`` maps an ``(..., n)`` stack of points to the ``(..., m)``
    stack of their values and ``jacobian`` maps it to the
    ``(..., m, n)`` stack of their Jacobians; one ``(n,)`` point is the
    unstacked case.  The linearizers and the objective call a function
    once on all of its points in one shape group, so write it with
    elementwise operations on the columns ``x[..., j]`` and apply a
    matrix ``a`` as ``(a @ x[..., None])[..., 0]``, which rounds like
    ``a @ x`` on each point.  A function of one point goes through
    :func:`pointwise`; a function whose output does not keep the
    points' leading shape raises ``ValueError``.  When ``jacobian`` is
    omitted a central finite difference over the whole stack is used,
    one column at a time (tests verify analytic Jacobians against it).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    fd_step: float = 1e-6

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _checked(self.fn(x), x, "values", 1)

    def jac(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            return _checked(self.jacobian(x), x, "Jacobians", 2)
        dx = np.zeros(x.shape[-1])
        columns = []
        for j in range(x.shape[-1]):
            dx[j] = self.fd_step
            columns.append((self(x + dx) - self(x - dx)) / (2 * self.fd_step))
            dx[j] = 0.0
        return np.stack(columns, axis=-1)


def _checked(out, x: np.ndarray, what: str, trailing: int) -> np.ndarray:
    """``out`` as a C-ordered float array, once it is known to hold one
    value (``trailing=1``) or Jacobian (``trailing=2``) per point."""
    out = np.asarray(out, dtype=float)
    lead = x.shape[:-1]
    if (
        out.ndim != len(lead) + trailing
        or out.shape[: len(lead)] != lead
        or (trailing == 2 and out.shape[-1] != x.shape[-1])
    ):
        raise ValueError(
            f"a NonlinearFunction returned {what} of shape {out.shape} for "
            f"points of shape {x.shape}; it must map (..., n) points to "
            "(..., m) values and (..., m, n) Jacobians.  Wrap functions of "
            "one point in pointwise(fn, jacobian)"
        )
    return np.ascontiguousarray(out)


def pointwise(fn, jacobian=None) -> NonlinearFunction:
    """A :class:`NonlinearFunction` from functions of one ``(n,)`` point.

    ``fn(x)`` returns the point's ``(m,)`` value and ``jacobian(x)`` its
    ``(m, n)`` Jacobian; the adapter calls them once per point of a
    stack.  It is the only per-point loop of the linearization layer,
    for models that cannot be written on stacks (and as the one-point
    reference that batched functions are tested against).
    """
    return NonlinearFunction(
        _each_point(fn, np.asarray),
        None if jacobian is None else _each_point(jacobian, np.atleast_2d),
    )


def _each_point(f, shape):
    def over_points(x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1, x.shape[-1])
        out = np.stack([shape(np.asarray(f(p), dtype=float)) for p in flat])
        return out.reshape(x.shape[:-1] + out.shape[1:])

    return over_points


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
    returns unstacked ones.  Both linearizers here call each distinct
    function once, on the stack of all of its points.
    ``needs_covariance`` advertises whether ``cov`` is required —
    callers without marginal covariances (plain Gauss–Newton) check it
    up front instead of failing mid-sweep.
    """

    name: str
    needs_covariance: bool

    def linearize(
        self,
        fn: NonlinearFunction | Sequence[NonlinearFunction],
        mean: np.ndarray,
        cov: np.ndarray | None = None,
    ) -> LinearizedFn: ...


def _stacked(mean, cov):
    """``(mean, cov, single)`` with a leading point axis."""
    mean = np.asarray(mean, dtype=float)
    single = mean.ndim == 1
    if single:
        mean = mean[None]
    if cov is not None:
        cov = np.asarray(cov, dtype=float)
        if single:
            cov = cov[None]
    return mean, cov, single


def _evaluate(fn, points: np.ndarray, jacobian: bool = False) -> np.ndarray:
    """Values (or Jacobians) at a stack of points of ``fn``, one
    function or one per point: each distinct function (by identity) is
    called once, on the stack of its own points."""

    def call(f, x):
        return f.jac(x) if jacobian else f(x)

    if callable(fn):
        return call(fn, points)
    fns = list(fn)
    if len(fns) != len(points):
        raise ValueError(
            f"got {len(fns)} functions for {len(points)} linearization points"
        )
    parts: dict[int, tuple] = {}
    for j, f in enumerate(fns):
        parts.setdefault(id(f), (f, []))[1].append(j)
    if len(parts) == 1:
        return call(fns[0], points)
    values = [(pos, call(f, points[pos])) for f, pos in parts.values()]
    out = np.empty((len(points),) + values[0][1].shape[1:])
    for pos, part in values:
        out[pos] = part
    return out


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
        mean, _, single = _stacked(mean, None)
        f = _evaluate(fn, mean, jacobian=True)
        y = _evaluate(fn, mean)
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
        mean, cov, single = _stacked(mean, cov)
        n = mean.shape[1]
        _, w_mean, w_cov = self.weights(n)
        points = self.sigma_points(mean, cov)
        ys = _evaluate(fn, points)
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


def _offset(step: NonlinearStep) -> np.ndarray:
    return step.c if step.c is not None else np.zeros(step.state_dim)


def _stack_at(arrays, indices: list[int]):
    return None if arrays is None else np.stack([arrays[i] for i in indices])


@dataclass(frozen=True, eq=False)
class EquationGroup:
    """Equations of one kind and one shape, handled in stacked calls.

    ``steps`` are the equations' steps in order and ``sources`` the
    steps whose states they read: the previous one for an evolution,
    the step's own for an observation.  ``fn`` is the model function
    they share, or one per equation.  ``data`` stacks the offsets
    ``c_i`` of evolutions or the observed values ``o_i``.  ``model``
    stacks the model covariances.  Matrix covariances are validated and
    factored once, into ``factors``; scalars, ``None`` and
    :class:`Whitener` objects become one whitener each, ``whiteners``.
    """

    what: str
    steps: tuple[int, ...]
    sources: list[int]
    fn: NonlinearFunction | list[NonlinearFunction]
    data: np.ndarray
    covs: list
    factors: np.ndarray | None
    whiteners: list[Whitener] | None
    model: np.ndarray
    #: ``factors`` of the covariances cast to another dtype, by dtype
    cast_factors: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, what, steps, sources, fns, data, covs) -> "EquationGroup":
        """The group, with its model covariances validated and factored."""
        rows = data.shape[1]
        factors = whiteners = None
        if _is_matrix(covs[0]):
            factors = _model_factors(covs, rows, what, steps)
            model = factors @ np.swapaxes(factors, 1, 2)
        else:
            whiteners = [_as_cov_whitener(cov, rows, what) for cov in covs]
            model = np.stack([w.covariance() for w in whiteners])
        shared = all(f is fns[0] for f in fns)
        return cls(
            what=what,
            steps=tuple(steps),
            sources=sources,
            fn=fns[0] if shared else fns,
            data=data,
            covs=covs,
            factors=factors,
            whiteners=whiteners,
            model=model,
        )

    def points(self, states: list[np.ndarray]) -> np.ndarray:
        """The stack of states the equations read."""
        return _stack_at(states, self.sources)

    def predict(self, states: list[np.ndarray]) -> np.ndarray:
        """The model functions' values at :meth:`points`, one call per
        distinct function."""
        return _evaluate(self.fn, self.points(states))

    def noise(self, omega, dtype) -> np.ndarray | list[Whitener]:
        """The noise of the linearized equations, as the stack of its
        Cholesky factors or, for non-matrix model covariances under a
        point linearization, as :attr:`whiteners`.

        Point linearizations (``omega is None``) keep the model
        covariance: a matrix keeps its factor (factored again from the
        matrix cast to ``dtype`` when one is given, once per dtype).
        Statistical linearizations add the SLR residual covariance to
        the model covariance and validate and factor the sums, cast to
        ``dtype``, in one stacked call.
        """
        if omega is not None:
            return spd_cholesky(
                _cast(self.model + omega, dtype),
                f"{self.what} + omega",
                names=_step_names(self.steps),
            )
        if self.factors is None:
            return self.whiteners
        if dtype is None:
            return self.factors
        key = np.dtype(dtype)
        if key not in self.cast_factors:
            self.cast_factors[key] = _model_factors(
                self.covs, self.data.shape[1], self.what, self.steps, dtype
            )
        return self.cast_factors[key]

    def squares(self, resid: np.ndarray) -> np.ndarray:
        """``|V r|^2`` of each residual row, whitened exactly as its own
        :meth:`Whitener.whiten` would."""
        if self.factors is not None:
            white = whiten_each(self.factors, resid)
        else:
            white = np.stack([w.whiten(r) for w, r in zip(self.whiteners, resid)])
        return np.vecdot(white, white)


@dataclass(frozen=True, eq=False)
class EquationGroups:
    """A problem's evolution and observation equations, grouped by
    shape (:meth:`NonlinearProblem.equation_groups`)."""

    evolution: list[EquationGroup]
    observation: list[EquationGroup]


class NonlinearProblem:
    """A nonlinear estimation problem (``H_i = I`` throughout).

    Construction rejects non-finite observations, offsets, noise
    covariances and prior data, naming the step and field, and an
    observation without an observation function.
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
            if s.observation is not None and s.observation_fn is None:
                raise ValueError(
                    f"step {i} has an observation but no observation function"
                )
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

    def equation_groups(self) -> EquationGroups:
        """The equations grouped by kind and shape, with their model
        covariances validated and factored.

        :meth:`linearize` and :meth:`objective` build these on every
        call unless passed ``groups=``: an iterated smoother builds
        them once per ``smooth`` call and passes them to each of its
        calls.  They describe the steps as they are now; build them
        again after changing a step.  Errors name the step.
        """
        steps = self.steps
        evolution = _group_by(
            (i for i in range(1, len(steps)) if steps[i].evolution_fn is not None),
            lambda i: (
                steps[i - 1].state_dim,
                steps[i].state_dim,
                _cov_key(steps[i].evolution_cov),
            ),
        )
        observation = _group_by(
            (
                i
                for i, s in enumerate(steps)
                if s.observation_fn is not None and s.observation is not None
            ),
            lambda i: (
                steps[i].state_dim,
                np.shape(steps[i].observation),
                _cov_key(steps[i].observation_cov),
            ),
        )
        return EquationGroups(
            evolution=[
                EquationGroup.build(
                    "evolution covariance K",
                    idx,
                    [i - 1 for i in idx],
                    [steps[i].evolution_fn for i in idx],
                    np.stack([np.asarray(_offset(steps[i]), float) for i in idx]),
                    [steps[i].evolution_cov for i in idx],
                )
                for idx in evolution
            ],
            observation=[
                EquationGroup.build(
                    "observation covariance L",
                    idx,
                    idx,
                    [steps[i].observation_fn for i in idx],
                    np.stack([np.asarray(steps[i].observation, float) for i in idx]),
                    [steps[i].observation_cov for i in idx],
                )
                for idx in observation
            ],
        )

    def _states(self, trajectory) -> list[np.ndarray]:
        """The trajectory as float arrays, one ``(n_i,)`` state per step."""
        if len(trajectory) != len(self.steps):
            raise ValueError(
                f"trajectory has {len(trajectory)} states, problem has "
                f"{len(self.steps)}"
            )
        states = [np.asarray(u, dtype=float) for u in trajectory]
        for i, (u, s) in enumerate(zip(states, self.steps)):
            if u.shape != (s.state_dim,):
                raise ValueError(
                    f"trajectory state {i} has shape {u.shape}, expected "
                    f"({s.state_dim},)"
                )
        return states

    def linearize(
        self,
        trajectory: list[np.ndarray],
        *,
        linearizer: Linearizer | None = None,
        covariances: list[np.ndarray] | None = None,
        dtype: np.dtype | type | None = None,
        groups: EquationGroups | None = None,
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

        Equations with the same shapes (:meth:`equation_groups`, or
        ``groups`` when given) are linearized together: one stacked
        linearizer call per group, which calls each model function once
        on the stack of its points, and one stacked validation and
        factorization per group of the inflated noise covariances.
        Their errors name the step.  The result holds each group as one
        :class:`~repro.model.problem.EquationStack`
        (:meth:`StateSpaceProblem.from_groups`): whitening reads the
        stacks, and its ``steps`` are a read-only view built on first
        use.
        """
        states = self._states(trajectory)
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
        groups = groups if groups is not None else self.equation_groups()

        def linearized(g: EquationGroup, rhs) -> EquationStack:
            lf = lin.linearize(
                g.fn, g.points(states), _stack_at(covariances, g.sources)
            )
            noise = g.noise(lf.omega, dtype)
            return EquationStack(
                g.what,
                g.steps,
                _cast(lf.F, dtype),
                _cast(rhs(g.data, lf.c), dtype),
                noise,
            )

        prior = self.prior
        if dtype is not None and prior is not None:
            prior = GaussianPrior(
                mean=_cast(prior.mean, dtype),
                cov=_cast(prior.cov_matrix(), dtype),
            )
        return StateSpaceProblem.from_groups(
            self.state_dims,
            [linearized(g, np.add) for g in groups.evolution],
            [linearized(g, np.subtract) for g in groups.observation],
            prior,
        )

    def objective(
        self,
        trajectory: list[np.ndarray],
        *,
        groups: EquationGroups | None = None,
    ) -> float:
        """The nonlinear generalized least-squares objective (paper eq. 4).

        Equations with the same shapes (:meth:`equation_groups`, or
        ``groups`` when given) are evaluated and whitened together, one
        call per model function, then the squares are added one
        equation at a time: the prior first, then each step's evolution
        and observation term.  The sum is therefore the same, bit for
        bit, as whitening and adding each equation on its own.
        """
        states = self._states(trajectory)
        groups = groups if groups is not None else self.equation_groups()
        squares = np.zeros((len(self.steps), 2))
        for g in groups.evolution:
            resid = _stack_at(states, g.steps) - g.predict(states) - g.data
            squares[g.steps, 0] = g.squares(resid)
        for g in groups.observation:
            squares[g.steps, 1] = g.squares(g.data - g.predict(states))
        total = 0.0
        if self.prior is not None:
            r = self.prior.cov.whiten(states[0] - self.prior.mean)
            total += float(r @ r)
        # An absent equation adds 0.0, which leaves a sum unchanged.
        for term in squares.ravel().tolist():
            total += term
        return total


def _linear_map(a: np.ndarray) -> NonlinearFunction:
    """The batched linear map ``x -> a x`` and its constant Jacobian."""
    return NonlinearFunction(
        fn=lambda x: (a @ x[..., None])[..., 0],
        jacobian=lambda x: np.broadcast_to(a, x.shape[:-1] + a.shape),
    )


def as_nonlinear(problem: StateSpaceProblem) -> NonlinearProblem:
    """Lift a linear problem into the nonlinear form.

    The evolution/observation maps become linear
    :class:`NonlinearFunction` objects with constant Jacobians, so the
    iterated smoothers (Gauss–Newton, Levenberg–Marquardt) accept
    linear problems through the uniform ``smooth(problem)`` surface —
    on which they converge in one exact step.  Square invertible
    ``H_i`` are reduced away as in
    :func:`~repro.kalman.standard_form.to_standard_form`; rectangular
    ``H_i`` are a QR-smoother-only feature and raise, and so does
    non-finite data, named by step and field as the linear smoothers
    name it (the linear maps hide their matrices from
    :class:`NonlinearProblem`'s own check).
    """
    if isinstance(problem, NonlinearProblem):
        return problem
    culprit = problem.nonfinite_field()
    if culprit is not None:
        raise ValueError(culprit)
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
            evo_fn = _linear_map(f)
            evo_cov = k_cov
        obs_fn = obs = obs_cov = None
        if step.observation is not None:
            obs_fn = _linear_map(step.observation.G)
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
        theta, omega = x[..., 0], x[..., 1]
        return np.stack(
            [theta + dt * omega, omega - dt * g_const * np.sin(theta)], axis=-1
        )

    def evo_jac(x):
        jac = np.empty(x.shape[:-1] + (2, 2))
        jac[..., 0, :] = [1.0, dt]
        jac[..., 1, 0] = -dt * g_const * np.cos(x[..., 0])
        jac[..., 1, 1] = 1.0
        return jac

    def obs_fn(x):
        return np.sin(x[..., :1])

    def obs_jac(x):
        jac = np.zeros(x.shape[:-1] + (1, 2))
        jac[..., 0, 0] = np.cos(x[..., 0])
        return jac

    evolution = NonlinearFunction(evo_fn, evo_jac)
    observation = NonlinearFunction(obs_fn, obs_jac)

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
                evolution_fn=None if i == 0 else evolution,
                evolution_cov=None if i == 0 else qcov + 1e-12 * np.eye(2),
                observation_fn=observation,
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
        px, py, v, th, w = np.moveaxis(x, -1, 0)
        return np.stack(
            [
                px + dt * v * np.cos(th),
                py + dt * v * np.sin(th),
                v,
                th + dt * w,
                w,
            ],
            axis=-1,
        )

    def evo_jac(x):
        _px, _py, v, th, _w = np.moveaxis(x, -1, 0)
        jac = np.empty(x.shape[:-1] + (5, 5))
        jac[...] = np.eye(5)
        jac[..., 0, 2] = dt * np.cos(th)
        jac[..., 0, 3] = -dt * v * np.sin(th)
        jac[..., 1, 2] = dt * np.sin(th)
        jac[..., 1, 3] = dt * v * np.cos(th)
        jac[..., 3, 4] = dt
        return jac

    def obs_fn(x):
        px, py = x[..., 0], x[..., 1]
        return np.stack([np.hypot(px, py), np.arctan2(py, px)], axis=-1)

    def obs_jac(x):
        px, py = x[..., 0], x[..., 1]
        rho2 = px * px + py * py
        rho = np.sqrt(rho2)
        jac = np.zeros(x.shape[:-1] + (2, 5))
        jac[..., 0, 0] = px / rho
        jac[..., 0, 1] = py / rho
        jac[..., 1, 0] = -py / rho2
        jac[..., 1, 1] = px / rho2
        return jac

    evolution = NonlinearFunction(evo_fn, evo_jac)
    observation = NonlinearFunction(obs_fn, obs_jac)

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
                evolution_fn=None if i == 0 else evolution,
                evolution_cov=None if i == 0 else qcov,
                observation_fn=observation,
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
        return (f_cv @ x[..., None])[..., 0]

    def evo_jac(x):
        return np.broadcast_to(f_cv, x.shape[:-1] + (4, 4))

    def obs_fn(x):
        return np.arctan2(x[..., 1:2] - sxy[:, 1], x[..., 0:1] - sxy[:, 0])

    def obs_jac(x):
        dx = x[..., 0:1] - sxy[:, 0]
        dy = x[..., 1:2] - sxy[:, 1]
        rho2 = dx * dx + dy * dy
        jac = np.zeros(x.shape[:-1] + (sxy.shape[0], 4))
        jac[..., 0] = -dy / rho2
        jac[..., 1] = dx / rho2
        return jac

    evolution = NonlinearFunction(evo_fn, evo_jac)
    observation = NonlinearFunction(obs_fn, obs_jac)

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
                evolution_fn=None if i == 0 else evolution,
                evolution_cov=None if i == 0 else qcov + 1e-12 * np.eye(4),
                observation_fn=observation,
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
        return np.full(x.shape[:-1] + (1, 1), a)

    # np.float_power rounds like the scalar power ``x[0] ** 3`` of one
    # point; the array operator ``x ** 3`` may take a vectorized power
    # that differs from it in the last bit.
    def obs_fn(x):
        return beta * np.float_power(x, 3)

    def obs_jac(x):
        return (3.0 * beta * np.float_power(x, 2))[..., None]

    evolution = NonlinearFunction(evo_fn, evo_jac)
    observation = NonlinearFunction(obs_fn, obs_jac)

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
                evolution_fn=None if i == 0 else evolution,
                evolution_cov=None if i == 0 else q * np.eye(1),
                observation_fn=observation,
                observation=o,
                observation_cov=r * np.eye(1),
            )
        )
    prior = GaussianPrior(mean=truth[0], cov=0.5 * np.eye(1))
    return NonlinearProblem(steps, prior=prior), truth

"""The user-facing batched smoother: ``smooth_many`` over a workload.

:class:`BatchSmoother` is the serving front end of the batch
subsystem.  It buckets an arbitrary list of independent problems by
block structure (padding lengths to powers of two so mixed-length
streams share buckets), smooths each bucket as one stacked elimination
or scan, and unpacks per-sequence
:class:`~repro.kalman.result.SmootherResult` objects in the caller's
order.  All heavy phases dispatch through the standard
:class:`~repro.parallel.backend.Backend` layer (delivered via
:class:`~repro.api.EstimatorConfig`), so the same call runs serially,
on a thread pool, or under the recording backend whose task graph
(with batch-scaled kernel costs) the modeled-machine scheduler can
replay.

Two serving optimizations layer on top of the stacked kernels:

* **Plan caching** — the bucketing decisions (signatures, bucket
  membership, padded lengths) are recorded once per workload
  structure as a :class:`~repro.batch.plan.SmoothPlan` and replayed
  from the :class:`~repro.batch.plan.PlanCache` threaded through
  :class:`~repro.api.EstimatorConfig`.  A plan holds no arrays:
  members are padded and stacked on every call, so a replay computes
  exactly what a fresh plan does.
* **Mixed precision** — ``EstimatorConfig(dtype=np.float32)`` (or
  ``dtype="mixed"`` for float64 outputs) runs the factorization and
  solves in float32 and recovers float64-level means with
  :attr:`refine_steps` sweeps of corrected-seminormal-equations
  iterative refinement against the float32 factor (Björck's CSNE: the
  float64 residual is pushed through ``R^T y = A^T r`` and
  ``R d = y``, both reusing the existing odd-even factor).  Requested
  covariances are *refined* too: SelInv runs off a float64
  re-factorization of the (already float64) whitened stack, so mixed-
  mode covariances match the float64 pipeline exactly rather than
  carrying float32 accuracy — at the cost of a second factorization,
  which makes the float32 fast path primarily a means-only/NC win.

Unlike the per-sequence smoothers — whose default
:meth:`~repro.api.SmootherBase.smooth_many` simply loops — this class
overrides ``smooth_many`` with the stacked kernels (capability flag
``batched=True``).
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..api import Capabilities, EstimatorConfig, SmootherBase
from ..api.base import _cast_result
from ..core.oddeven_qr import oddeven_factorize
from ..core.selinv import selinv_oddeven
from ..core.smoother import reject_nonfinite, reject_nonfinite_outputs
from ..core.solve import oddeven_back_substitute, oddeven_rt_solve
from ..kalman.result import SmootherResult
from ..linalg.triangular import instrumented_matvec, mat_transpose
from ..linalg.xp import get_namespace, to_host
from ..model.problem import StateSpaceProblem, WhitenedProblem
from ..parallel.backend import Backend
from .associative import batched_associative_smooth
from .plan import build_plan, workload_key
from .stacking import Bucket, stack_whitened

__all__ = ["BatchSmoother"]

#: how non-finite-input errors of the associative method name it
_ASSOCIATIVE = "the batched associative smoother"


def _cast_white(white: WhitenedProblem, dtype) -> WhitenedProblem:
    """Copy of a whitened problem with every stack cast to ``dtype``."""
    return white.map_stacks(
        lambda stack: get_namespace(stack).astype(stack, dtype)
    )


def _white_to_backend(
    white: WhitenedProblem, array_backend
) -> WhitenedProblem:
    """Move a host-stacked whitened problem onto an array backend.

    Stacking always runs in numpy; each stack crosses to the selected
    backend once, here, before the factorization.
    """
    return white.map_stacks(array_backend.from_numpy)


def _residuals(
    white: WhitenedProblem, x: list[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """Whitened equation residuals at ``x``, computed in float64.

    Returns per-step observation residuals ``rhs_C - C x_i`` and
    evolution residuals ``rhs_BD - (D x_i - B x_{i-1})`` (``None`` at
    step 0).  ``white`` must hold float64 blocks; promotion keeps the
    arithmetic in double even when ``x`` came from a float32 solve.
    """
    k = len(white.steps)
    s_obs = [
        white.steps[i].rhs_C
        - instrumented_matvec(white.steps[i].C, x[i])
        for i in range(k)
    ]
    s_evo: list[np.ndarray | None] = [None]
    for i in range(1, k):
        ws = white.steps[i]
        s_evo.append(
            ws.rhs_BD
            - instrumented_matvec(ws.D, x[i])
            + instrumented_matvec(ws.B, x[i - 1])
        )
    return s_obs, s_evo


def _refine(
    white: WhitenedProblem,
    factor,
    means: list[np.ndarray],
    backend: Backend | None,
    steps: int,
) -> tuple[list[np.ndarray], np.ndarray]:
    """CSNE iterative refinement of a float32 solve, in float64.

    Each sweep computes the float64 residual ``r = b - A x``, the
    gradient ``w = A^T r``, and the correction ``d`` from
    ``R^T y = w`` (forward sweep over the factor's elimination levels)
    followed by ``R d = y`` (ordinary back substitution with a custom
    right-hand side) — both reusing the float32 odd-even factor, so a
    sweep costs a few GEMVs plus two structured triangular solves.
    Returns the refined means and the float64 residual sum of squares
    recomputed at the refined solution (the float32 factor's
    accumulated residual is not accurate enough to report).
    """
    xp = get_namespace(white.steps[0].C)
    if xp is np:
        x = [np.asarray(m, dtype=np.float64) for m in means]
    else:
        x = [xp.astype(xp.asarray(m), np.float64) for m in means]
    k = len(white.steps)
    for _ in range(max(steps, 0)):
        s_obs, s_evo = _residuals(white, x)
        w = []
        for i in range(k):
            ws = white.steps[i]
            wi = instrumented_matvec(mat_transpose(ws.C), s_obs[i])
            if i >= 1:
                wi = wi + instrumented_matvec(
                    mat_transpose(white.steps[i].D), s_evo[i]
                )
            if i + 1 < k:
                wi = wi - instrumented_matvec(
                    mat_transpose(white.steps[i + 1].B), s_evo[i + 1]
                )
            w.append(wi)
        y = oddeven_rt_solve(factor, w, backend)
        d = oddeven_back_substitute(factor, backend, rhs=y)
        x = [x[i] + d[i] for i in range(k)]
    s_obs, s_evo = _residuals(white, x)
    residual = sum(xp.sum(s * s, axis=-1) for s in s_obs)
    residual = residual + sum(
        xp.sum(s * s, axis=-1) for s in s_evo if s is not None
    )
    if getattr(residual, "ndim", 0) >= 1:
        return x, residual
    return x, np.atleast_1d(residual)


class BatchSmoother(SmootherBase):
    """Smooth many independent sequences at once via stacked kernels.

    Parameters
    ----------
    method:
        ``"odd-even"`` (default) runs the batched odd-even QR
        elimination — the paper's algorithm over ``(B, rows, cols)``
        block stacks; it needs no prior and supports rectangular
        ``H_i``.  ``"associative"`` runs the batched
        Särkkä–García-Fernández scans; it requires a prior and square
        ``H_i``, like its per-sequence counterpart.  The instance's
        :attr:`capabilities` reflect the chosen method.
    compute_covariance:
        ``False`` skips the SelInv phase of the odd-even method
        (means-only, the NC variant).  The associative method carries
        covariances intrinsically, so it rejects ``False`` with a
        ``ValueError``.  A per-call
        :class:`~repro.api.EstimatorConfig` overrides it.
    refine_steps:
        Number of float64 iterative-refinement sweeps applied after a
        float32 solve (``EstimatorConfig.dtype`` of ``numpy.float32``
        or ``"mixed"``).  One sweep (the default) recovers ~1e-8
        agreement with the float64 pipeline on the stability suite's
        ill-conditioned problems; ``0`` disables refinement (raw
        float32 accuracy).  Ignored for float64 solves.

    Notes
    -----
    Sequences are padded with unobserved steps to power-of-two length
    buckets so mixed-length workloads share stacks (exact — see
    :mod:`repro.batch.stacking`).  Results match the per-sequence
    smoothers slice for slice (the integration tests pin this at
    ``1e-8``); the win is throughput — every recursion level's
    thousands of tiny QR/solve calls collapse into a few stacked
    LAPACK calls (the repository benchmark's ``batch-mixed`` workload
    measures it).

    After each ``smooth_many`` the instance exposes
    :attr:`last_diagnostics`: plan-cache outcome (hit/miss + cache
    counters) and per-phase wall-clock timings (``plan``, ``stack``,
    ``factorize``, ``solve``, ``refine``, ``selinv``, ``scan``).  The
    same signals accumulate in the process :mod:`repro.obs` registry
    (``repro_batch_phase_seconds`` histograms per phase, call/sequence
    counters) for the JSON and Prometheus exporters; swap in a
    :class:`~repro.obs.NullRegistry` to switch that off (a test in
    ``tests/obs/test_metrics.py`` bounds the overhead of leaving it on).
    """

    def __init__(
        self,
        method: str = "odd-even",
        compute_covariance: bool = True,
        refine_steps: int = 1,
    ):
        if method not in ("odd-even", "associative"):
            raise ValueError(
                f"unknown batch method {method!r}; "
                "expected 'odd-even' or 'associative'"
            )
        if refine_steps < 0:
            raise ValueError(
                f"refine_steps must be >= 0, got {refine_steps}"
            )
        self.method = method
        self.compute_covariance = compute_covariance
        self.refine_steps = int(refine_steps)
        self.name = f"batch-{method}"
        #: diagnostics of the most recent ``smooth_many`` call
        self.last_diagnostics: dict | None = None
        self.capabilities = (
            Capabilities(batched=True, supports_array_module=True)
            if method == "odd-even"
            else Capabilities(
                needs_prior=True,
                supports_nc=False,
                supports_rectangular_obs=False,
                batched=True,
                supports_array_module=True,
            )
        )
        self._check_covariance_request(compute_covariance)

    @property
    def default_config(self) -> EstimatorConfig:
        return EstimatorConfig(compute_covariance=self.compute_covariance)

    def smooth_many(
        self,
        problems: list[StateSpaceProblem],
        *,
        config: EstimatorConfig | None = None,
    ) -> list[SmootherResult]:
        """Smooth every problem in stacked buckets, caller's order."""
        resolved = self._resolve(None, config)
        return [
            _cast_result(r, resolved.output_dtype)
            for r in self._smooth_workload(list(problems), resolved)
        ]

    def _smooth(
        self, problem: StateSpaceProblem, config: EstimatorConfig
    ) -> SmootherResult:
        """Single-problem entry (a batch of one)."""
        return self._smooth_workload([problem], config)[0]

    # ------------------------------------------------------------------
    # workload orchestration
    # ------------------------------------------------------------------
    def _smooth_workload(
        self, problems: list[StateSpaceProblem], config: EstimatorConfig
    ) -> list[SmootherResult]:
        phases = {
            "plan": 0.0,
            "stack": 0.0,
            "factorize": 0.0,
            "solve": 0.0,
            "refine": 0.0,
            "cov_refine": 0.0,
            "selinv": 0.0,
            "scan": 0.0,
        }
        ab = getattr(config, "array_module", None)
        backend_name = getattr(ab, "name", "numpy") if ab is not None else "numpy"
        diag: dict = {
            "workload": len(problems),
            "plan_cache": {"hit": None},
            "array_backend": backend_name,
            "phases": phases,
        }
        self.last_diagnostics = diag
        if not problems:
            return []
        t_start = time.perf_counter()
        exact = self.method == "associative"
        cache = config.plan_cache
        results: list[SmootherResult | None] = [None] * len(problems)
        t0 = time.perf_counter()
        key = workload_key(problems, exact_obs=exact)
        plan, hit = cache.get_or_build(
            key, lambda: build_plan(problems, exact_obs=exact)
        )
        phases["plan"] += time.perf_counter() - t0
        diag["plan_cache"] = {"hit": hit, **cache.stats()}
        for bucket in plan.buckets:
            members = bucket.members(problems)
            if exact:
                out = self._associative_stack(
                    members, bucket, config, phases
                )
            else:
                out = self._oddeven_stack(members, bucket, config, phases)
            for idx, result in zip(bucket.indices, out):
                results[idx] = result
        diag["total_s"] = time.perf_counter() - t_start
        self._publish_metrics(diag)
        return results  # type: ignore[return-value]

    @staticmethod
    def _publish_metrics(diag: dict) -> None:
        """Report one call's diagnostics through :mod:`repro.obs`.

        ``last_diagnostics`` stays the per-call view; the registry
        accumulates across calls (per-phase timing histograms, call
        and sequence counters).  Looked up dynamically so swapping in
        a :class:`~repro.obs.NullRegistry` turns the cost into a few
        no-op calls.
        """
        registry = obs.get_registry()
        if not registry.enabled:
            return
        backend_name = diag.get("array_backend", "numpy")
        for phase, seconds in diag["phases"].items():
            if seconds > 0.0:
                registry.histogram(
                    "repro_batch_phase_seconds",
                    phase=phase,
                    backend=backend_name,
                ).observe(seconds)
        registry.counter("repro_batch_smooth_many_total").inc()
        registry.counter("repro_batch_sequences_total").inc(
            diag["workload"]
        )
        registry.histogram("repro_batch_call_seconds").observe(
            diag["total_s"]
        )

    # ------------------------------------------------------------------
    # per-bucket engines
    # ------------------------------------------------------------------
    def _oddeven_stack(
        self,
        members: list[StateSpaceProblem],
        bucket: Bucket,
        config: EstimatorConfig,
        phases: dict,
    ) -> list[SmootherResult]:
        backend = config.backend
        want_cov = config.compute_covariance
        ab = getattr(config, "array_module", None)
        foreign = ab is not None and getattr(ab, "name", "numpy") != "numpy"
        mixed = config.solve_dtype is not None and (
            np.dtype(config.solve_dtype) == np.float32
        )
        t0 = time.perf_counter()
        white = stack_whitened(members)
        if foreign:
            white = _white_to_backend(white, ab)
        phases["stack"] += time.perf_counter() - t0
        white_solve = _cast_white(white, np.float32) if mixed else white
        try:
            t0 = time.perf_counter()
            factor = oddeven_factorize(white_solve, backend)
            phases["factorize"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            means = oddeven_back_substitute(factor, backend)
            phases["solve"] += time.perf_counter() - t0
            residual = np.atleast_1d(to_host(factor.residual_sq))
            if mixed:
                t0 = time.perf_counter()
                means, residual = _refine(
                    white, factor, means, backend, self.refine_steps
                )
                phases["refine"] += time.perf_counter() - t0
            covs = None
            if want_cov:
                cov_factor = factor
                if mixed:
                    # Covariance refinement: SelInv off the float32
                    # factor would carry float32 accuracy into the
                    # reported covariances (CSNE refinement fixes the
                    # means but says nothing about (R^T R)^{-1}).
                    # Re-factor the float64 whitened stack for the
                    # covariance path — identical arithmetic to the
                    # float64 pipeline, so the covariances agree with
                    # it exactly.  Mixed precision therefore pays one
                    # extra factorization when covariances are
                    # requested; the fast path's win is means-only/NC
                    # serving.
                    t0 = time.perf_counter()
                    cov_factor = oddeven_factorize(white, backend)
                    phases["cov_refine"] += time.perf_counter() - t0
                t0 = time.perf_counter()
                covs = list(selinv_oddeven(cov_factor, backend).diagonal)
                phases["selinv"] += time.perf_counter() - t0
        except np.linalg.LinAlgError as exc:
            # A singular or non-finite diagonal, or a non-finite state,
            # is often non-finite input: name it instead.
            reject_nonfinite(members, exc, indices=bucket.indices)
            slices = getattr(exc, "batch_slices", None)
            if not slices:
                raise
            culprits = [
                bucket.indices[s]
                for s in slices
                if isinstance(s, int) and s < bucket.batch
            ]
            raise np.linalg.LinAlgError(
                f"{exc} (problem index(es) {culprits} of the "
                "smooth_many workload)"
            ) from exc
        if not np.isfinite(to_host(residual)).all():
            reject_nonfinite(members, None, indices=bucket.indices)
        algorithm = "batch-odd-even" + ("" if want_cov else "-nc")
        depth = factor.depth()
        if foreign:
            # Results cross back to host exactly once, here: the
            # per-sequence SmootherResult API stays plain numpy no
            # matter where the kernels ran.
            means = [to_host(m) for m in means]
            if covs is not None:
                covs = [to_host(c) for c in covs]
            residual = np.atleast_1d(to_host(residual))
        out = []
        for b, n_states in enumerate(bucket.n_states_orig):
            out.append(
                SmootherResult(
                    means=[
                        np.asarray(means[i][b], dtype=np.float64)
                        for i in range(n_states)
                    ],
                    covariances=(
                        [
                            np.asarray(covs[i][b], dtype=np.float64)
                            for i in range(n_states)
                        ]
                        if covs is not None
                        else None
                    ),
                    residual_sq=float(residual[b]),
                    algorithm=algorithm,
                    diagnostics={
                        "batch": bucket.batch,
                        "levels": depth,
                        "padded_states": bucket.n_states - n_states,
                        "solve_dtype": (
                            "float32" if mixed else "float64"
                        ),
                        "cov_dtype": (
                            "float64" if covs is not None else None
                        ),
                        "refine_steps": (
                            self.refine_steps if mixed else 0
                        ),
                        "array_backend": (
                            ab.name if foreign else "numpy"
                        ),
                    },
                )
            )
        return out

    def _associative_stack(
        self,
        members: list[StateSpaceProblem],
        bucket: Bucket,
        config: EstimatorConfig,
        phases: dict,
    ) -> list[SmootherResult]:
        ab = getattr(config, "array_module", None)
        foreign = ab is not None and getattr(ab, "name", "numpy") != "numpy"
        t0 = time.perf_counter()
        try:
            means, covs = batched_associative_smooth(
                members, config.backend, array_backend=ab
            )
        except np.linalg.LinAlgError as exc:
            reject_nonfinite(
                members, exc, indices=bucket.indices, smoother=_ASSOCIATIVE
            )
            raise
        phases["scan"] += time.perf_counter() - t0
        reject_nonfinite_outputs(
            members,
            (*means, *covs),
            indices=bucket.indices,
            smoother=_ASSOCIATIVE,
        )
        out = []
        for b, n_states in enumerate(bucket.n_states_orig):
            out.append(
                SmootherResult(
                    means=[means[i][b] for i in range(n_states)],
                    covariances=[covs[i][b] for i in range(n_states)],
                    residual_sq=None,
                    algorithm="batch-associative",
                    diagnostics={
                        "batch": bucket.batch,
                        "padded_states": bucket.n_states - n_states,
                        "array_backend": (
                            ab.name if foreign else "numpy"
                        ),
                    },
                )
            )
        return out

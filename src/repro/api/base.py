"""The uniform estimator surface: protocol, capabilities, and base class.

Every smoother in the package — the paper's odd-even algorithm, the
sequential and conventional baselines, the batched subsystem, and the
nonlinear iterated smoothers — presents the same two entry points:

    ``smooth(problem, *, config=None, **options)``
    ``smooth_many(problems, *, config=None)``

:class:`SmootherBase` implements the shared plumbing once:
configuration resolution through
:meth:`~repro.api.config.EstimatorConfig.resolve`, capability
validation, and a default ``smooth_many`` that loops — so every
algorithm, not just :class:`~repro.batch.BatchSmoother`, can serve
batch benches and the stream server's micro-batcher.  Subclasses
implement one hook, ``_smooth(problem, config)``, and receive a fully
resolved config.

:class:`Capabilities` is the single source of truth for what each
algorithm can do (paper §6's functionality table, as data): whether it
needs a prior, can skip the covariance phase (the NC variant), handles
rectangular/dimension-changing ``H_i``, or batches natively.
:meth:`SmootherBase.smooth` *enforces* these flags: a request outside
them raises ``ValueError``.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Protocol

import numpy as np

from .config import EstimatorConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kalman.result import SmootherResult

__all__ = [
    "Capabilities",
    "Smoother",
    "SmootherBase",
    "call_smoother_many",
]


@dataclass(frozen=True)
class Capabilities:
    """What one smoothing algorithm supports (paper §6, as data).

    ``needs_prior``
        Requires a Gaussian prior on the initial state (the
        conventional RTS/associative family); ``False`` means the
        unknown-initial-state workflow is supported.
    ``supports_nc``
        Can *skip* the covariance phase (the paper's NC variants).
        Algorithms that carry covariances intrinsically (RTS,
        associative scans) cannot.
    ``supports_rectangular_obs``
        Handles rectangular/dimension-changing ``H_i`` (and with it
        non-uniform state dimensions) — QR-family only.
    ``batched``
        ``smooth_many`` runs stacked kernels rather than the default
        per-problem loop.
    ``means_only``
        Never produces covariances at all (the normal-equations
        ablation); requesting them is an error.
    ``iterative``
        Solves by iterated linearization and accepts
        :class:`~repro.model.nonlinear.NonlinearProblem` inputs
        natively (linear problems are lifted automatically).
    ``supports_array_module``
        Honors a non-numpy ``EstimatorConfig(array_module=...)``
        selection by running its stacked kernels on that backend
        (batched smoothers, associative scans).  Engines without the
        flag reject non-numpy selections instead of silently solving
        on the host.
    """

    needs_prior: bool = False
    supports_nc: bool = True
    supports_rectangular_obs: bool = True
    batched: bool = False
    means_only: bool = False
    iterative: bool = False
    supports_array_module: bool = False

    def admits(self, problem: Any) -> str | None:
        """Why ``problem`` falls outside this envelope (``None`` = fits).

        Conservative by design: it only admits problems every flagged
        constraint provably tolerates, so registry-driven sweeps (the
        agreement suite, serving fleets) can dispatch on it safely.
        """
        if not self.iterative:
            from ..model.nonlinear import NonlinearProblem

            if isinstance(problem, NonlinearProblem):
                return (
                    "needs an iterative smoother (nonlinear problem "
                    "input)"
                )
        if self.needs_prior and getattr(problem, "prior", None) is None:
            return "needs a Gaussian prior on the initial state"
        if not self.supports_rectangular_obs:
            uniform = getattr(problem, "has_uniform_dims", None)
            if callable(uniform) and not uniform():
                return "needs a uniform state dimension (no rectangular H_i)"
            identity = getattr(problem, "all_h_identity", None)
            if callable(identity) and not identity():
                return "needs identity H_i"
        return None


class Smoother(Protocol):
    """The estimator protocol every registered smoother satisfies."""

    name: str
    capabilities: Capabilities

    def smooth(self, problem, *, config: EstimatorConfig | None = None):
        """Smooth one problem."""
        ...  # pragma: no cover - protocol

    def smooth_many(self, problems, *, config: EstimatorConfig | None = None):
        """Smooth a workload of independent problems, order preserved."""
        ...  # pragma: no cover - protocol


def _cast_result(result: "SmootherResult", dtype: Any) -> "SmootherResult":
    """Apply an output-dtype request to a result's arrays.

    ``dtype`` must already be an *output* dtype (callers pass
    ``EstimatorConfig.output_dtype``, which maps the mixed-precision
    spellings to float64).
    """
    if dtype is None:
        return result
    means = [np.asarray(m, dtype=dtype) for m in result.means]
    covariances = (
        None
        if result.covariances is None
        else [np.asarray(c, dtype=dtype) for c in result.covariances]
    )
    return dataclasses.replace(result, means=means, covariances=covariances)


class SmootherBase(abc.ABC):
    """ABC providing the canonical surface over one ``_smooth`` hook."""

    #: registry name of the algorithm (instances may specialize it)
    name: ClassVar[str] = "smoother"
    #: capability flags (instances may specialize, e.g. per method)
    capabilities: Capabilities = Capabilities()

    # ------------------------------------------------------------------
    # canonical surface
    # ------------------------------------------------------------------
    @property
    def default_config(self) -> EstimatorConfig:
        """Instance-level defaults (constructor options as a config)."""
        return EstimatorConfig()

    def smooth(
        self,
        problem,
        *,
        config: EstimatorConfig | None = None,
        **options,
    ) -> "SmootherResult":
        """Smooth ``problem`` under ``config``.

        ``options`` are algorithm-specific solve inputs forwarded to
        ``_smooth`` (e.g. the iterated smoothers' ``initial=``
        trajectory).
        """
        resolved = self._resolve(problem, config)
        return _cast_result(
            self._smooth(problem, resolved, **options),
            resolved.output_dtype,
        )

    def smooth_many(
        self,
        problems,
        *,
        config: EstimatorConfig | None = None,
    ) -> "list[SmootherResult]":
        """Smooth every problem; results are in the caller's order.

        The default implementation loops over :meth:`smooth`, so every
        algorithm serves batched workloads; natively batched smoothers
        override it with stacked kernels.
        """
        return [self.smooth(p, config=config) for p in problems]

    # ------------------------------------------------------------------
    # the one subclass hook
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _smooth(
        self, problem, config: EstimatorConfig, **options
    ) -> "SmootherResult":
        """Solve one problem under a fully resolved config."""

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _resolve(
        self, problem, config: EstimatorConfig | None
    ) -> EstimatorConfig:
        """Resolve the config and enforce the capability flags.

        The flags are authoritative: a request outside them raises
        ``ValueError``.  ``problem=None`` skips the per-problem checks.
        """
        caps = self.capabilities
        resolved = (config or EstimatorConfig()).resolve(
            self.default_config,
            default_compute_covariance=not caps.means_only,
        )
        self._check_covariance_request(resolved.compute_covariance)
        ab = resolved.array_module
        if (
            ab is not None
            and getattr(ab, "name", "numpy") != "numpy"
            and not caps.supports_array_module
        ):
            raise ValueError(
                f"smoother {self.name!r} does not support non-numpy array "
                f"backends (requested {ab.name!r}, capability "
                "supports_array_module=False); array_module= is honored "
                "by the batched smoothers and the associative smoother"
            )
        if (
            problem is not None
            and caps.needs_prior
            and getattr(problem, "prior", None) is None
        ):
            raise ValueError(
                f"smoother {self.name!r} requires a Gaussian prior on the "
                "initial state (capability needs_prior=True); problems with "
                "unknown initial expectation need a QR-based smoother such "
                "as 'odd-even' or 'paige-saunders'"
            )
        return resolved

    def _check_covariance_request(self, compute_covariance: bool) -> None:
        """Raise if the capability flags rule out ``compute_covariance``."""
        caps = self.capabilities
        if caps.means_only and compute_covariance:
            raise ValueError(
                f"smoother {self.name!r} computes means only (capability "
                "means_only=True); compute_covariance=True is not available"
            )
        if not caps.supports_nc and not compute_covariance:
            raise ValueError(
                f"smoother {self.name!r} cannot skip the covariance "
                "computation (capability supports_nc=False): the backward "
                "recursion/scan carries the covariances intrinsically "
                "(paper §5.4) — use a QR-family smoother for the NC variant"
            )


def call_smoother_many(
    smoother,
    problems,
    config: EstimatorConfig | None = None,
):
    """``smoother.smooth_many(problems, config=config)``.

    The one function the batched nonlinear driver and the stream
    server issue their stacked solves through, so a tracer can time
    those solves by wrapping a single module attribute.
    """
    return smoother.smooth_many(problems, config=config)

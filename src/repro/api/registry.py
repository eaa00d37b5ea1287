"""The extensible smoother registry.

One place maps algorithm names to factories plus
:class:`~repro.api.base.Capabilities` flags, covering the linear,
batched, streaming-window and nonlinear estimators.  Factories are
*lazy* — they import the implementing module only when
:func:`make_smoother` is called — so registering the full catalog costs
nothing at import time and creates no import cycles.

Usage::

    import repro

    smoother = repro.make_smoother("odd-even")
    repro.registered_smoothers()
    repro.register_smoother("mine", MySmoother, capabilities=...)

Capability flags let generic drivers (the agreement test suite, serving
fleets, benches) decide which registered algorithms admit a given
problem without importing — or even knowing about — the classes.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

from .base import Capabilities

__all__ = [
    "SmootherSpec",
    "SmootherRegistry",
    "coerce_smoother",
    "default_registry",
    "make_smoother",
    "register_smoother",
    "registered_smoothers",
    "smoother_spec",
]


@dataclass(frozen=True)
class SmootherSpec:
    """One registry entry: name, factory, capabilities, summary."""

    name: str
    factory: Callable[..., Any]
    capabilities: Capabilities
    summary: str = ""

    def make(self, **options: Any):
        """Construct the smoother, forwarding constructor options."""
        return self.factory(**options)


class SmootherRegistry:
    """A mutable name -> :class:`SmootherSpec` catalog."""

    def __init__(self) -> None:
        self._specs: dict[str, SmootherSpec] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., Any],
        *,
        capabilities: Capabilities | None = None,
        summary: str = "",
        overwrite: bool = False,
    ) -> SmootherSpec:
        """Add (or, with ``overwrite``, replace) one entry."""
        if not callable(factory):
            raise TypeError(
                f"factory for smoother {name!r} must be callable, got "
                f"{type(factory).__name__}"
            )
        if name in self._specs and not overwrite:
            raise ValueError(
                f"smoother {name!r} is already registered; pass "
                "overwrite=True to replace it"
            )
        spec = SmootherSpec(
            name=name,
            factory=factory,
            capabilities=capabilities or Capabilities(),
            summary=summary,
        )
        self._specs[name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove one entry (unknown names raise ``ValueError``)."""
        self.spec(name)
        del self._specs[name]

    def make(self, name: str, **options: Any):
        """Construct the smoother registered under ``name``."""
        return self.spec(name).make(**options)

    def spec(self, name: str) -> SmootherSpec:
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(sorted(self._specs)) or "(none)"
            raise ValueError(
                f"no smoother registered under {name!r}; known: {known}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._specs)

    def specs(self) -> list[SmootherSpec]:
        return [self._specs[n] for n in self.names()]

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._specs)


def _lazy(module: str, cls: str, **fixed: Any) -> Callable[..., Any]:
    """A factory importing ``module`` only when actually constructing.

    ``fixed`` kwargs define the registry entry's identity (e.g. the
    batch method) and cannot be overridden by caller options — doing so
    would make the constructed instance contradict the entry's
    capability flags.
    """

    def factory(**options: Any):
        clash = sorted(fixed.keys() & options.keys())
        if clash:
            raise TypeError(
                f"option(s) {clash} are fixed by this registry entry "
                "and cannot be overridden; register a separate entry "
                "instead"
            )
        return getattr(importlib.import_module(module), cls)(
            **{**fixed, **options}
        )

    factory.__name__ = f"make_{cls.lower()}"
    factory.__qualname__ = factory.__name__
    return factory


#: QR-family flags: no prior needed, NC variant, rectangular H_i.
_QR = Capabilities()
#: Conventional-family flags: prior + square H required, no NC variant.
_CONVENTIONAL = Capabilities(
    needs_prior=True, supports_nc=False, supports_rectangular_obs=False
)
#: Iterated nonlinear smoothers (EKF-initialized, NC inner solves).
_NONLINEAR = Capabilities(
    needs_prior=True, supports_rectangular_obs=False, iterative=True
)


def register_builtin_smoothers(registry: SmootherRegistry) -> None:
    """Populate ``registry`` with every first-party algorithm."""
    registry.register(
        "odd-even",
        _lazy("repro.core.smoother", "OddEvenSmoother"),
        capabilities=_QR,
        summary="the paper's parallel-in-time odd-even QR smoother",
    )
    registry.register(
        "paige-saunders",
        _lazy("repro.kalman.paige_saunders", "PaigeSaundersSmoother"),
        capabilities=_QR,
        summary="sequential Paige-Saunders QR sweep (UltimateKalman core)",
    )
    registry.register(
        "kalman-rts",
        _lazy("repro.kalman.rts", "RTSSmoother"),
        capabilities=_CONVENTIONAL,
        summary="conventional forward filter + backward RTS recursion",
    )
    registry.register(
        "associative",
        _lazy("repro.kalman.associative", "AssociativeSmoother"),
        capabilities=Capabilities(
            needs_prior=True,
            supports_nc=False,
            supports_rectangular_obs=False,
            supports_array_module=True,
        ),
        summary="Sarkka-Garcia-Fernandez parallel associative scans",
    )
    registry.register(
        "normal-equations",
        _lazy("repro.core.normal_equations", "NormalEquationsSmoother"),
        capabilities=Capabilities(means_only=True),
        summary="block cyclic reduction of the normal equations "
        "(unstable ablation, means only)",
    )
    registry.register(
        "ultimate",
        _lazy("repro.kalman.ultimate", "UltimateSmoother"),
        capabilities=_QR,
        summary="incremental UltimateKalman replay (filter carry + "
        "batch smooth)",
    )
    registry.register(
        "batch-odd-even",
        _lazy("repro.batch.smoother", "BatchSmoother", method="odd-even"),
        capabilities=Capabilities(
            batched=True, supports_array_module=True
        ),
        summary="stacked odd-even QR elimination over bucketed workloads",
    )
    registry.register(
        "batch-associative",
        _lazy("repro.batch.smoother", "BatchSmoother", method="associative"),
        capabilities=Capabilities(
            needs_prior=True,
            supports_nc=False,
            supports_rectangular_obs=False,
            batched=True,
            supports_array_module=True,
        ),
        summary="stacked associative scans over bucketed workloads",
    )
    registry.register(
        "gauss-newton",
        _lazy("repro.nonlinear.ipls", "GaussNewtonSmoother"),
        capabilities=_NONLINEAR,
        summary="iterated (Gauss-Newton) nonlinear smoother, NC inner "
        "solves",
    )
    registry.register(
        "levenberg-marquardt",
        _lazy("repro.nonlinear.ipls", "LevenbergMarquardtSmoother"),
        capabilities=_NONLINEAR,
        summary="damped iterated nonlinear smoother, NC inner solves",
    )
    registry.register(
        "ipls",
        _lazy("repro.nonlinear.ipls", "IteratedPosteriorLinearizationSmoother"),
        capabilities=_NONLINEAR,
        summary="iterated posterior-linearization (sigma-point) smoother "
        "on the batched stacked kernels",
    )


_DEFAULT_REGISTRY = SmootherRegistry()
register_builtin_smoothers(_DEFAULT_REGISTRY)


def default_registry() -> SmootherRegistry:
    """The process-wide registry behind the module-level helpers."""
    return _DEFAULT_REGISTRY


def register_smoother(
    name: str,
    factory: Callable[..., Any],
    *,
    capabilities: Capabilities | None = None,
    summary: str = "",
    overwrite: bool = False,
) -> SmootherSpec:
    """Register a smoother in the default registry."""
    return _DEFAULT_REGISTRY.register(
        name,
        factory,
        capabilities=capabilities,
        summary=summary,
        overwrite=overwrite,
    )


def make_smoother(name: str, **options: Any):
    """Construct a registered smoother by name."""
    return _DEFAULT_REGISTRY.make(name, **options)


def registered_smoothers() -> list[str]:
    """Sorted names of every registered smoother."""
    return _DEFAULT_REGISTRY.names()


def smoother_spec(name: str) -> SmootherSpec:
    """The :class:`SmootherSpec` registered under ``name``."""
    return _DEFAULT_REGISTRY.spec(name)


def coerce_smoother(smoother):
    """Resolve a registered name to an instance; pass instances through.

    The shared idiom behind every ``smoother=`` parameter that accepts
    either a :class:`~repro.api.Smoother` or a registry name.
    """
    if isinstance(smoother, str):
        return make_smoother(smoother)
    return smoother

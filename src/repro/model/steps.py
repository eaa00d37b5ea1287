"""Per-step building blocks of a dynamic-system estimation problem.

The paper's problem statement (§2.1): states ``u_i`` of possibly
varying dimension ``n_i`` obey an *evolution equation*

    ``H_i u_i = F_i u_{i-1} + c_i + eps_i``,  ``cov(eps_i) = K_i``

with ``H_i`` an ``l_i x n_i`` full-rank (possibly rectangular) matrix,
and some states also carry an *observation equation*

    ``o_i = G_i u_i + delta_i``,  ``cov(delta_i) = L_i``.

Each step owns its matrices and its noise whiteners; the whiteners
(:class:`~repro.linalg.cholesky.Whitener`) supply the ``V_i``/``W_i``
factors with ``V^T V = K^{-1}`` that turn the estimation problem into
the whitened least-squares system ``min ||U(A u - b)||``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..linalg.cholesky import Whitener
from ..linalg.triangular import as_working_dtype

__all__ = ["Evolution", "Observation", "Step", "GaussianPrior"]


def _as_cov_whitener(cov, dim: int, what: str) -> Whitener:
    if isinstance(cov, Whitener):
        if cov.dim != dim:
            raise ValueError(
                f"{what} whitener has dimension {cov.dim}, expected {dim}"
            )
        return cov
    if cov is None:
        return Whitener.identity(dim)
    if np.isscalar(cov):
        variance = float(cov)
        if variance <= 0 or not np.isfinite(variance):
            raise np.linalg.LinAlgError(
                f"{what} must be a positive variance, got {variance}"
            )
        return Whitener.scaled_identity(dim, float(np.sqrt(variance)))
    return Whitener(np.asarray(cov), what=what)


@dataclass
class Evolution:
    """One evolution equation ``H u_i = F u_{i-1} + c + eps``.

    ``H`` defaults to the identity (the common case); pass a
    rectangular ``H`` to model growing/shrinking state dimensions
    (paper §2.1 and [9]).  ``K`` may be a covariance matrix, a scalar
    variance, a :class:`Whitener`, or ``None`` for unit covariance.
    """

    F: np.ndarray
    c: np.ndarray | None = None
    K: object = None
    H: np.ndarray | None = None

    def __post_init__(self):
        # Working-dtype coercion: float32 inputs stay float32 (the
        # mixed-precision path depends on it), everything else is
        # promoted to float64 exactly as the old dtype=float did.
        self.F = as_working_dtype(np.atleast_2d(np.asarray(self.F)))
        rows = self.F.shape[0]
        if self.H is None:
            self.H = np.eye(rows, dtype=self.F.dtype)
        else:
            self.H = as_working_dtype(np.atleast_2d(np.asarray(self.H)))
            if self.H.shape[0] != rows:
                raise ValueError(
                    f"H has {self.H.shape[0]} rows, F has {rows}; the "
                    "evolution equation needs matching row counts"
                )
        if self.c is None:
            self.c = np.zeros(rows, dtype=self.F.dtype)
        else:
            self.c = as_working_dtype(np.atleast_1d(np.asarray(self.c)))
            if self.c.shape != (rows,):
                raise ValueError(
                    f"c has shape {self.c.shape}, expected ({rows},)"
                )
        self.K = _as_cov_whitener(self.K, rows, "evolution covariance K")

    @property
    def rows(self) -> int:
        """The equation dimension ``l_i``."""
        return self.F.shape[0]

    @property
    def prev_dim(self) -> int:
        return self.F.shape[1]

    @property
    def state_dim(self) -> int:
        return self.H.shape[1]

    def is_identity_h(self) -> bool:
        h = self.H
        return h.shape[0] == h.shape[1] and np.array_equal(
            h, np.eye(h.shape[0])
        )


@dataclass
class Observation:
    """One observation equation ``o = G u_i + delta``."""

    G: np.ndarray
    o: np.ndarray
    L: object = None

    def __post_init__(self):
        self.G = as_working_dtype(np.atleast_2d(np.asarray(self.G)))
        self.o = as_working_dtype(np.atleast_1d(np.asarray(self.o)))
        rows = self.G.shape[0]
        if self.o.shape != (rows,):
            raise ValueError(
                f"o has shape {self.o.shape}, expected ({rows},)"
            )
        self.L = _as_cov_whitener(self.L, rows, "observation covariance L")

    @property
    def rows(self) -> int:
        return self.G.shape[0]

    @property
    def state_dim(self) -> int:
        return self.G.shape[1]


@dataclass
class GaussianPrior:
    """A Gaussian prior ``u_0 ~ N(mean, cov)`` on the initial state.

    The QR-based smoothers do not *require* a prior (§6: "can handle
    problems in which the expectation of the initial state is not
    known"); when present it enters the least-squares system as an
    extra observation row block ``I u_0 = mean`` weighted by ``cov``.
    The RTS and Associative smoothers require it.
    """

    mean: np.ndarray
    cov: object = None

    def __post_init__(self):
        self.mean = as_working_dtype(np.atleast_1d(np.asarray(self.mean)))
        self.cov = _as_cov_whitener(
            self.cov, self.mean.shape[0], "prior covariance"
        )

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def as_observation(self) -> Observation:
        """The prior expressed as an observation on ``u_0``, in the
        mean's dtype."""
        return Observation(
            G=np.eye(self.dim, dtype=self.mean.dtype), o=self.mean, L=self.cov
        )

    def cov_matrix(self) -> np.ndarray:
        return self.cov.covariance()


@dataclass
class Step:
    """One time step: a state with optional evolution and observation."""

    state_dim: int
    evolution: Evolution | None = None
    observation: Observation | None = None
    #: free-form metadata (timestamps, labels) carried through untouched
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError(
                f"state_dim must be >= 1, got {self.state_dim}"
            )
        if (
            self.evolution is not None
            and self.evolution.state_dim != self.state_dim
        ):
            raise ValueError(
                f"evolution H maps to dimension {self.evolution.state_dim}, "
                f"step state_dim is {self.state_dim}"
            )
        if (
            self.observation is not None
            and self.observation.state_dim != self.state_dim
        ):
            raise ValueError(
                f"observation G has {self.observation.state_dim} columns, "
                f"step state_dim is {self.state_dim}"
            )

    @property
    def obs_dim(self) -> int:
        return self.observation.rows if self.observation else 0

"""The estimation problem and its whitened least-squares form.

:class:`StateSpaceProblem` holds the step sequence (paper §2.1) and an
optional Gaussian prior, validates dimension chaining, and produces the
whitened block rows

    ``C_i = W_i G_i``, ``B_i = V_i F_i``, ``D_i = V_i H_i``

of the coefficient matrix ``U A`` (paper §3) via :meth:`whiten`.  The
whitened form is the common input of the Paige–Saunders and Odd-Even
QR smoothers; :mod:`repro.model.dense` materializes it densely as the
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg.cholesky import whiten_packed
from .steps import Evolution, GaussianPrior, Observation, Step

__all__ = ["StateSpaceProblem", "WhitenedStep", "WhitenedProblem"]


@dataclass
class WhitenedStep:
    """Whitened blocks of one step of ``U A`` and ``U b``.

    ``C``/``rhs_C`` are the observation rows (``m_i x n_i``; for step 0
    they also absorb the prior rows, if any).  ``B``/``D``/``rhs_BD``
    are the evolution rows ``[-B_i  D_i]`` (``l_i`` rows spanning block
    columns ``i-1`` and ``i``); absent for step 0.  Note the sign: the
    stored ``B`` is the *unnegated* ``V_i F_i``; assembly places
    ``-B``.

    Blocks may carry a leading batch axis (``(B, rows, cols)`` with
    ``(B, rows)`` RHS — see :mod:`repro.batch`), so shape queries
    address the trailing axes.
    """

    index: int
    n: int
    C: np.ndarray
    rhs_C: np.ndarray
    B: np.ndarray | None = None
    D: np.ndarray | None = None
    rhs_BD: np.ndarray | None = None

    @property
    def obs_rows(self) -> int:
        return self.C.shape[-2]

    @property
    def evo_rows(self) -> int:
        return 0 if self.B is None else self.B.shape[-2]


@dataclass
class WhitenedProblem:
    """The full whitened system: one :class:`WhitenedStep` per state."""

    steps: list[WhitenedStep]

    @property
    def k(self) -> int:
        """Index of the last state (states are ``0 .. k``)."""
        return len(self.steps) - 1

    @property
    def state_dims(self) -> list[int]:
        return [s.n for s in self.steps]

    def total_rows(self) -> int:
        return sum(s.obs_rows + s.evo_rows for s in self.steps)


class StateSpaceProblem:
    """A linear dynamic-system estimation problem.

    Parameters
    ----------
    steps:
        ``Step`` objects; ``steps[0]`` must have no evolution, every
        later step must have one, and evolution input dimensions must
        chain (``F_i`` has ``n_{i-1}`` columns).
    prior:
        Optional :class:`GaussianPrior` on ``u_0``.
    """

    def __init__(
        self, steps: list[Step], prior: GaussianPrior | None = None
    ):
        if not steps:
            raise ValueError("a problem needs at least one step")
        if steps[0].evolution is not None:
            raise ValueError(
                "the first state is not defined by an evolution recurrence "
                "(paper §2.1); steps[0].evolution must be None"
            )
        for i, step in enumerate(steps[1:], start=1):
            if step.evolution is None:
                raise ValueError(f"step {i} is missing its evolution equation")
            expected = steps[i - 1].state_dim
            if step.evolution.prev_dim != expected:
                raise ValueError(
                    f"step {i} evolution F has {step.evolution.prev_dim} "
                    f"columns but state {i - 1} has dimension {expected}"
                )
        if prior is not None and prior.dim != steps[0].state_dim:
            raise ValueError(
                f"prior has dimension {prior.dim}, state 0 has dimension "
                f"{steps[0].state_dim}"
            )
        self.steps = steps
        self.prior = prior

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Index of the last state (``k + 1`` states total)."""
        return len(self.steps) - 1

    @property
    def n_states(self) -> int:
        return len(self.steps)

    @property
    def state_dims(self) -> list[int]:
        return [s.state_dim for s in self.steps]

    def total_state_dim(self) -> int:
        return sum(self.state_dims)

    def has_uniform_dims(self) -> bool:
        dims = set(self.state_dims)
        return len(dims) == 1

    def all_h_identity(self) -> bool:
        """Whether every evolution uses ``H_i = I`` (RTS requirement)."""
        return all(
            s.evolution.is_identity_h() for s in self.steps[1:]
        )

    def observation_count(self) -> int:
        return sum(1 for s in self.steps if s.observation is not None)

    def nonfinite_field(self) -> str | None:
        """Name the first NaN or infinite value of the problem's data.

        Scans the prior mean, then each step's evolution ``F``, ``H``,
        ``c`` and observation ``G``, ``o``, and returns e.g. ``"step 6
        has a non-finite observation o"``, or ``None`` when all are
        finite.  Smoothers call it only after a non-finite result, so a
        healthy solve never pays for the scan.
        """
        if self.prior is not None and not np.isfinite(self.prior.mean).all():
            return "the prior has a non-finite mean"
        for i, step in enumerate(self.steps):
            evo, obs = step.evolution, step.observation
            fields = []
            if evo is not None:
                fields += [
                    ("evolution F", evo.F),
                    ("evolution H", evo.H),
                    ("evolution c", evo.c),
                ]
            if obs is not None:
                fields += [("observation G", obs.G), ("observation o", obs.o)]
            for name, value in fields:
                if not np.isfinite(value).all():
                    return f"step {i} has a non-finite {name}"
        return None

    # ------------------------------------------------------------------
    # whitening
    # ------------------------------------------------------------------
    def whiten(self) -> WhitenedProblem:
        """Produce the whitened block rows of ``U A`` and ``U b``.

        The prior, when present, is folded into step 0's observation
        rows (an extra ``I u_0 = mean`` block weighted by the prior
        covariance), exactly as UltimateKalman encodes known initial
        expectations.
        """
        out: list[WhitenedStep] = []
        for i, step in enumerate(self.steps):
            n = step.state_dim
            # Each block whitens [G | o] (resp. [F | H | c]) packed
            # into one triangular solve instead of one per piece —
            # the dominant cost of whitening short windows.
            c_blocks: list[np.ndarray] = []
            rhs_blocks: list[np.ndarray] = []
            if i == 0 and self.prior is not None:
                pobs = self.prior.as_observation()
                g_w, o_w = whiten_packed(pobs.L, pobs.G, pobs.o)
                c_blocks.append(g_w)
                rhs_blocks.append(o_w)
            if step.observation is not None:
                obs = step.observation
                g_w, o_w = whiten_packed(obs.L, obs.G, obs.o)
                c_blocks.append(g_w)
                rhs_blocks.append(o_w)
            if c_blocks:
                C = np.vstack(c_blocks)
                rhs_C = np.concatenate(rhs_blocks)
            else:
                C = np.zeros((0, n))
                rhs_C = np.zeros(0)
            ws = WhitenedStep(index=i, n=n, C=C, rhs_C=rhs_C)
            if i > 0:
                evo = step.evolution
                ws.B, ws.D, ws.rhs_BD = whiten_packed(
                    evo.K, evo.F, evo.H, evo.c
                )
            out.append(ws)
        return WhitenedProblem(steps=out)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def without_prior(self) -> "StateSpaceProblem":
        """A copy of the problem with the prior removed."""
        return StateSpaceProblem(self.steps, prior=None)

    def with_prior(self, prior: GaussianPrior) -> "StateSpaceProblem":
        return StateSpaceProblem(self.steps, prior=prior)

    def subproblem(self, k_last: int) -> "StateSpaceProblem":
        """The problem restricted to states ``0 .. k_last`` (filtering
        semantics: smoothing the subproblem at its last state equals
        Kalman filtering the full problem at that state)."""
        if not 0 <= k_last <= self.k:
            raise ValueError(f"k_last must be in [0, {self.k}]")
        return StateSpaceProblem(self.steps[: k_last + 1], prior=self.prior)

    def objective(self, states: list[np.ndarray]) -> float:
        """The generalized least-squares objective ``||U(A u - b)||^2``.

        Used by tests (the smoothed trajectory must minimize it) and by
        the nonlinear solvers' line-search/damping logic.
        """
        if len(states) != self.n_states:
            raise ValueError(
                f"expected {self.n_states} state vectors, got {len(states)}"
            )
        total = 0.0
        white = self.whiten()
        for i, ws in enumerate(white.steps):
            u_i = np.asarray(states[i], dtype=float)
            r_obs = ws.C @ u_i - ws.rhs_C
            total += float(r_obs @ r_obs)
            if ws.B is not None:
                u_prev = np.asarray(states[i - 1], dtype=float)
                r_evo = ws.D @ u_i - ws.B @ u_prev - ws.rhs_BD
                total += float(r_evo @ r_evo)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = self.state_dims
        uniform = dims[0] if self.has_uniform_dims() else "varying"
        return (
            f"StateSpaceProblem(k={self.k}, n={uniform}, "
            f"observations={self.observation_count()}, "
            f"prior={'yes' if self.prior else 'no'})"
        )

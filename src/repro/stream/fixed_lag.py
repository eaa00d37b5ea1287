"""Fixed-lag smoothing over an unbounded observation stream.

The paper's smoothers are batch algorithms, but the API they are built
on (§5.1: the UltimateKalman implementation of the sequential
Paige–Saunders algorithm, Toledo arXiv:2207.13526) is *incremental* —
and serving live traffic means smoothing streams that never end.
:class:`FixedLagSmoother` closes that gap: it maintains a sliding
window of the most recent ``lag`` states on top of
:class:`~repro.kalman.ultimate.UltimateKalman`, and every state that
falls more than ``lag`` steps behind the frontier is *emitted* — its
estimate frozen — and rolled into the compact summary prior block via
the ``forget`` path, so the timeline never grows and each step costs
``O(lag)`` work instead of ``O(k)``.

Lag-vs-accuracy contract
------------------------
An emitted estimate for state ``i`` conditions on the data through
step ``i + lag`` exactly: it equals the full batch smooth of the
length-``(i + lag)`` prefix problem at state ``i`` to roundoff (the
filtered boundary pair is a sufficient summary in a Markov chain —
pinned at 1e-8 by ``tests/stream``).  It approaches the
infinite-future smoothed estimate as ``lag`` grows, with the usual
exponential forgetting of well-posed models.  States still *inside*
the window carry no approximation at all: smoothing the window equals
the tail of smoothing the full history, and the frontier's smoothed
estimate equals its filtered estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api import coerce_smoother
from ..core.window import solve_window
from ..errors import UnobservableStateError
from ..kalman.result import SmootherResult
from ..kalman.ultimate import UltimateKalman
from ..model.problem import StateSpaceProblem
from ..model.steps import Evolution, Observation

__all__ = ["Emission", "FixedLagSmoother"]


@dataclass
class Emission:
    """A finalized smoothed estimate for one state leaving the window.

    ``frontier`` is the newest step whose data the estimate conditions
    on — at least ``index + lag`` (more if arrivals were micro-batched
    between window solves), and exactly the stream's last step for
    states emitted by ``finalize``.
    """

    index: int
    mean: np.ndarray
    cov: np.ndarray | None = None
    frontier: int = -1


class FixedLagSmoother:
    """Sliding-window smoother with ``O(lag)`` work per step.

    Parameters
    ----------
    state_dim:
        Dimension of the first state (later states may change
        dimension through rectangular ``H``, like
        :class:`~repro.kalman.ultimate.UltimateKalman`).
    lag:
        Number of window states retained behind the frontier.  A state
        is emitted when the frontier moves ``lag`` steps past it, so
        its estimate conditions on exactly ``lag`` steps of future
        data (see the module docstring for the accuracy contract).
    prior:
        Optional ``(mean, cov)`` for the first state; omit it for the
        unknown-initial-state workflow.
    auto_emit:
        ``True`` (default) solves the window and emits inside
        :meth:`evolve` whenever a state falls behind the lag —
        the self-driving single-stream mode.  ``False`` defers window
        solves to an external driver (the
        :class:`~repro.stream.server.StreamServer` micro-batches them
        across many streams): call :meth:`window_problem`, smooth it
        any way you like, and hand the result to
        :meth:`absorb_window_result`.
    compute_covariance:
        Attach marginal covariances to emissions (the default); ``False``
        is the NC variant for means-only serving.
    smoother:
        Optional batch smoother for the window solves — any
        :class:`~repro.api.Smoother` or a registered name for
        :func:`~repro.api.make_smoother`; the default is the
        sequential :func:`~repro.core.window.solve_window`, which is
        the fastest choice at window sizes.  A custom smoother's own
        covariance configuration governs whether emissions carry
        covariances — ``compute_covariance`` only steers the default
        solver.
    """

    def __init__(
        self,
        state_dim: int,
        lag: int,
        prior: tuple[np.ndarray, np.ndarray] | None = None,
        *,
        auto_emit: bool = True,
        compute_covariance: bool = True,
        smoother=None,
    ):
        if lag < 1:
            raise ValueError(f"lag must be >= 1, got {lag}")
        self.lag = int(lag)
        self.auto_emit = auto_emit
        self.compute_covariance = compute_covariance
        smoother = coerce_smoother(smoother)
        if smoother is not None and smoother.capabilities.iterative:
            raise ValueError(
                f"smoother {smoother.name!r} "
                "is an iterated nonlinear smoother (capability "
                "iterative=True) and cannot back a fixed-lag window — "
                "the window problems are linear; pass a linear "
                "smoother (or None for the default window solver)"
            )
        self._smoother = smoother
        self._uk = UltimateKalman(state_dim, prior=prior)
        self._queue: list[Emission] = []
        self._closed = False

    # ------------------------------------------------------------------
    # window queries
    # ------------------------------------------------------------------
    @property
    def first_index(self) -> int:
        """Global index of the oldest state still in the window."""
        return self._uk.first_index

    @property
    def current_index(self) -> int:
        """Global index of the frontier state."""
        return self._uk.current_index

    @property
    def current_dim(self) -> int:
        """Dimension of the frontier state."""
        return self._uk.current_dim

    @property
    def window_size(self) -> int:
        return self.current_index - self.first_index + 1

    def pending_emissions(self) -> int:
        """How many window states have fallen behind the lag."""
        return max(0, self.window_size - self.lag)

    def window_problem(self) -> StateSpaceProblem:
        """The current window as a batch problem (state 0 is global
        state :attr:`first_index`; after a rollup it carries the
        summary observation in place of the forgotten history)."""
        return self._uk.problem()

    # ------------------------------------------------------------------
    # timeline construction
    # ------------------------------------------------------------------
    def evolve(self, F, c=None, K=None, H=None) -> int:
        """Advance the frontier; in auto-emit mode, first emit and
        roll up any states that have fallen behind the lag."""
        return self.evolve_step(Evolution(F=F, c=c, K=K, H=H))

    def evolve_step(self, evolution: Evolution) -> int:
        self._check_open()
        if self.auto_emit and self.pending_emissions() > 0:
            self.flush_window()
        return self._uk.evolve_step(evolution)

    def observe(self, G, o, L=None) -> None:
        self.observe_step(Observation(G=G, o=o, L=L))

    def observe_step(self, obs: Observation) -> None:
        self._check_open()
        self._uk.observe_step(obs)

    def estimate(self) -> tuple[np.ndarray, np.ndarray]:
        """Filtered estimate and covariance of the frontier state."""
        return self._uk.estimate()

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def flush_window(self) -> list[Emission]:
        """Solve the window now; emit and roll up the lagging states.

        No-op (empty list) while every window state is within the lag.
        """
        self._check_open()
        n_emit = self.pending_emissions()
        if n_emit == 0:
            return []
        return self._absorb(self._solve(self.window_problem()), n_emit)

    def absorb_window_result(self, result: SmootherResult) -> list[Emission]:
        """Accept an externally computed window smooth (micro-batched
        serving), emit the lagging states, and roll them up."""
        self._check_open()
        if len(result.means) != self.window_size:
            raise ValueError(
                f"window result has {len(result.means)} states, the "
                f"window holds {self.window_size}"
            )
        return self._absorb(result, self.pending_emissions())

    def emissions(self) -> list[Emission]:
        """Drain all emissions produced since the last call."""
        out = self._queue
        self._queue = []
        return out

    def finalize(self) -> list[Emission]:
        """End of stream: emit every remaining window state.

        The trailing ``lag`` states are emitted with *all* data — they
        equal the full-history smoothed estimates exactly, and the
        frontier's equals its filtered estimate.  Returns every
        undrained emission; the smoother is closed afterwards.
        """
        self._check_open()
        result = self._solve(self.window_problem())
        self._closed = True
        first = self.first_index
        for j in range(self.window_size):
            self._queue.append(
                Emission(
                    index=first + j,
                    mean=result.means[j],
                    cov=(
                        result.covariances[j]
                        if result.covariances is not None
                        else None
                    ),
                    frontier=self.current_index,
                )
            )
        return self.emissions()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this FixedLagSmoother was finalized; streams cannot "
                "be extended past finalize()"
            )

    def _solve(self, problem: StateSpaceProblem) -> SmootherResult:
        if self._smoother is None:
            return solve_window(
                problem,
                first_index=self.first_index,
                compute_covariance=self.compute_covariance,
            )
        try:
            return self._smoother.smooth(problem)
        except UnobservableStateError:
            raise
        except np.linalg.LinAlgError as exc:
            # Custom smoothers see only window-local indices; restate
            # the failure in global steps like the default solver.
            raise UnobservableStateError(
                f"window covering steps [{self.first_index}, "
                f"{self.current_index}] is not observable from the "
                f"data absorbed so far: {exc}"
            ) from exc

    def _absorb(
        self, result: SmootherResult, n_emit: int
    ) -> list[Emission]:
        first = self.first_index
        emitted = []
        for j in range(n_emit):
            emitted.append(
                Emission(
                    index=first + j,
                    mean=result.means[j],
                    cov=(
                        result.covariances[j]
                        if result.covariances is not None
                        else None
                    ),
                    frontier=self.current_index,
                )
            )
        if n_emit:
            self._uk.forget(keep_last=self.lag)
        self._queue.extend(emitted)
        return emitted

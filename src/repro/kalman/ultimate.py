"""An UltimateKalman-style incremental filter/smoother API.

The paper's implementations are "based on the UltimateKalman
implementation of the sequential Paige–Saunders algorithm [9] and use
its API" (§5.1).  That API is *incremental*: the client advances the
timeline one step at a time —

    kalman.evolve(F, c, K [, H])   # append the evolution equation
    kalman.observe(G, o, L)        # append this step's observation
    kalman.estimate()              # filtered estimate of the newest state
    kalman.smooth()                # smoothed estimates of all states

— with filtering available *online* (after each ``observe``) and
smoothing as a batch call.  This module provides that workflow on top
of the same whitened-QR machinery as the batch smoothers: the filter
maintains the carried triangular rows of the Paige–Saunders sweep, so
``estimate`` costs one small triangular solve, and ``smooth`` replays
the accumulated steps through any batch smoother (Odd-Even by
default).

Like UltimateKalman — and unlike covariance-form filters — the first
state needs no prior: estimates simply become available once enough
observations accumulate to determine them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..api import Capabilities, EstimatorConfig, SmootherBase, coerce_smoother
from ..core.smoother import OddEvenSmoother, reject_nonfinite
from ..errors import UnobservableStateError
from ..linalg.cholesky import whiten_packed
from ..linalg.householder import QRFactor
from ..linalg.triangular import (
    check_triangular_system,
    solve_upper,
    tri_inverse,
)
from ..model.problem import StateSpaceProblem
from ..model.steps import Evolution, GaussianPrior, Observation, Step
from .result import SmootherResult

__all__ = ["UltimateKalman", "UltimateSmoother"]


class UltimateKalman:
    """Incremental Paige–Saunders filtering with batch smoothing.

    Parameters
    ----------
    state_dim:
        Dimension of the first state.  Later states may change
        dimension through rectangular ``H`` arguments to :meth:`evolve`.
    prior:
        Optional ``(mean, cov)`` for the first state.  Omit it for the
        unknown-initial-state workflow (§6).
    smoother:
        Batch smoother used by :meth:`smooth`; defaults to
        :class:`~repro.core.smoother.OddEvenSmoother`.
    """

    def __init__(
        self,
        state_dim: int,
        prior: tuple[np.ndarray, np.ndarray] | None = None,
        smoother=None,
    ):
        if state_dim < 1:
            raise ValueError(f"state_dim must be >= 1, got {state_dim}")
        self._steps: list[Step] = [Step(state_dim=state_dim)]
        self._prior = (
            GaussianPrior(mean=prior[0], cov=prior[1]) if prior else None
        )
        self._smoother = smoother if smoother is not None else OddEvenSmoother()
        # Filter state: carried rows constraining the newest state only
        # (the Paige-Saunders sweep's running remainder).
        n = state_dim
        self._carry = np.zeros((0, n))
        self._carry_rhs = np.zeros(0)
        #: whether the carried rows are known upper-triangular (skips
        #: the re-triangularizing QR on the estimate/snapshot path)
        self._carry_tri = True
        # Filtered (R, z) pairs of past states, recorded at evolve time;
        # used by forget() as sufficient summaries of dropped history.
        self._filtered: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: index of the first state still on the timeline (grows with
        #: forget(); estimates and smoothing are indexed from here).
        self.first_index = 0
        if self._prior is not None:
            pobs = self._prior.as_observation()
            self._absorb(*whiten_packed(pobs.L, pobs.G, pobs.o))

    # ------------------------------------------------------------------
    # timeline construction
    # ------------------------------------------------------------------
    @property
    def current_index(self) -> int:
        """Global index of the newest state (survives forgetting)."""
        return self.first_index + len(self._steps) - 1

    @property
    def current_dim(self) -> int:
        return self._steps[-1].state_dim

    def evolve(self, F, c=None, K=None, H=None) -> int:
        """Append a new state via ``H u_new = F u_prev + c + eps``.

        Returns the new state's index.  ``H`` defaults to the identity;
        a rectangular ``H`` changes the state dimension.
        """
        return self.evolve_step(Evolution(F=F, c=c, K=K, H=H))

    def evolve_step(self, evolution: Evolution) -> int:
        """:meth:`evolve` taking a prebuilt :class:`Evolution`.

        Lets streaming callers that already hold validated model
        objects (with their Cholesky whiteners) avoid a covariance
        round trip through raw matrices.
        """
        if evolution.prev_dim != self.current_dim:
            raise ValueError(
                f"F has {evolution.prev_dim} columns but the current "
                f"state has dimension {self.current_dim}"
            )
        # Snapshot the departing state's filtered information pair: it
        # is the sufficient summary forget() splices back as a prior.
        self._triangularize()
        self._filtered[self.current_index] = (
            self._carry.copy(),
            self._carry_rhs.copy(),
        )
        self._steps.append(
            Step(state_dim=evolution.state_dim, evolution=evolution)
        )
        # Filter update (evolve phase of the sweep): eliminate the old
        # state from [carry; -B | 0; D], carrying rows on the new one.
        # [F | H | c] whitens in one triangular solve.
        b, d, rhs_evo = whiten_packed(
            evolution.K, evolution.F, evolution.H, evolution.c
        )
        nb = -b
        n_old = self.current_dimension_of(-2)
        if self._carry.shape[0] == 0 and self._carry.dtype != nb.dtype:
            # An empty float64 carry must not promote a float32 sweep.
            self._carry = self._carry.astype(nb.dtype)
            self._carry_rhs = self._carry_rhs.astype(nb.dtype)
        pivot = np.vstack([self._carry, nb])
        coupled = np.vstack(
            [
                np.zeros(
                    (self._carry.shape[0], d.shape[1]), dtype=d.dtype
                ),
                d,
            ]
        )
        rhs = np.concatenate([self._carry_rhs, rhs_evo])
        if pivot.shape[0] == 0:
            self._carry = coupled
            self._carry_rhs = rhs
            self._carry_tri = False
            return self.current_index
        qf = QRFactor(pivot)
        applied = qf.apply_qt(np.column_stack([coupled, rhs]))
        drop = min(n_old, pivot.shape[0])
        self._carry = applied[drop:, :-1]
        self._carry_rhs = applied[drop:, -1]
        self._carry_tri = False
        return self.current_index

    def observe(self, G, o, L=None) -> None:
        """Attach an observation ``o = G u + delta`` to the newest state."""
        self.observe_step(Observation(G=G, o=o, L=L))

    def observe_step(self, obs: Observation) -> None:
        """:meth:`observe` taking a prebuilt :class:`Observation`."""
        if obs.state_dim != self.current_dim:
            raise ValueError(
                f"G has {obs.state_dim} columns but the current state "
                f"has dimension {self.current_dim}"
            )
        step = self._steps[-1]
        if step.observation is None:
            step.observation = obs
        else:
            # Multiple observations per step stack into one block.
            old = step.observation
            g = np.vstack([old.G, obs.G])
            ovec = np.concatenate([old.o, obs.o])
            l_cov = np.zeros((g.shape[0], g.shape[0]), dtype=g.dtype)
            l_cov[: old.rows, : old.rows] = old.L.covariance()
            l_cov[old.rows :, old.rows :] = obs.L.covariance()
            step.observation = Observation(G=g, o=ovec, L=l_cov)
        self._absorb(*whiten_packed(obs.L, obs.G, obs.o))

    def current_dimension_of(self, index: int) -> int:
        return self._steps[index].state_dim

    def forget(self, keep_last: int) -> int:
        """Drop all but the last ``keep_last`` states (bounded memory).

        The dropped history is replaced by the filtered information
        pair of the first retained state — in a Markov chain that pair
        is a *sufficient* summary, so subsequent :meth:`smooth` calls
        return exactly what full-history smoothing would return for the
        retained states (verified in the tests).  Filtering is
        unaffected (the carry never referenced old states).

        Returns the number of states dropped.  This is UltimateKalman's
        forgetting workflow for unbounded streaming.
        """
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        first_retained = self.current_index - keep_last + 1
        local = first_retained - self.first_index
        if local <= 0:
            return 0
        if first_retained == self.current_index:
            self._triangularize()
            summary = (self._carry.copy(), self._carry_rhs.copy())
        else:
            summary = self._filtered[first_retained]
        r_sum, z_sum = summary
        boundary = self._steps[local]
        new_first = Step(
            state_dim=boundary.state_dim,
            evolution=None,
            # The summary rows already include any observation made at
            # the boundary state; they replace it outright.
            observation=Observation(G=r_sum, o=z_sum),
        )
        self._steps = [new_first] + self._steps[local + 1 :]
        self._prior = None
        self._filtered = {
            idx: pair
            for idx, pair in self._filtered.items()
            if idx > first_retained
        }
        self.first_index = first_retained
        return local

    def _absorb(self, rows: np.ndarray, rhs: np.ndarray) -> None:
        """Fold rows over the newest state into the carried triangle."""
        n = self.current_dim
        if self._carry.shape[0] == 0 and self._carry.dtype != rows.dtype:
            self._carry = self._carry.astype(rows.dtype)
            self._carry_rhs = self._carry_rhs.astype(rows.dtype)
        stacked = np.vstack([self._carry, rows])
        rhs_all = np.concatenate([self._carry_rhs, rhs])
        if stacked.shape[0] > n:
            qf = QRFactor(stacked)
            qtr = qf.apply_qt(rhs_all)
            self._carry = qf.r
            self._carry_rhs = qtr[:n]
            self._carry_tri = True
        else:
            self._carry = stacked
            self._carry_rhs = rhs_all
            self._carry_tri = False

    # ------------------------------------------------------------------
    # estimates
    # ------------------------------------------------------------------
    def _triangularize(self) -> tuple[np.ndarray, np.ndarray]:
        """The carried rows as a triangle (an evolve with no following
        observe leaves them dense; one small QR restores the form)."""
        n = self.current_dim
        rows = self._carry.shape[0]
        if rows == 0:
            return self._carry, self._carry_rhs
        if rows <= n and self._carry_tri:
            return self._carry, self._carry_rhs
        qf = QRFactor(self._carry)
        qtr = qf.apply_qt(self._carry_rhs)
        keep = min(rows, n)
        self._carry = qf.r
        self._carry_rhs = qtr[:keep]
        self._carry_tri = True
        return self._carry, self._carry_rhs

    def is_determined(self) -> bool:
        """Whether the newest state is fully determined by data so far."""
        n = self.current_dim
        r, _z = self._triangularize()
        if r.shape[0] < n:
            return False
        return bool(np.all(np.abs(np.diag(r[:n])) > 1e-300))

    def estimate(self) -> tuple[np.ndarray, np.ndarray]:
        """Filtered estimate and covariance of the newest state.

        Raises when the state is not yet determined (e.g. before enough
        observations in the unknown-initial-state workflow).
        """
        n = self.current_dim
        r, z = self._triangularize()
        if r.shape[0] < n:
            raise UnobservableStateError(
                f"state {self.current_index} is not yet determined: only "
                f"{r.shape[0]} of {n} constraint rows so far"
            )
        r = r[:n]
        try:
            check_triangular_system(
                r, what=f"filter R at {self.current_index}"
            )
        except np.linalg.LinAlgError as exc:
            raise UnobservableStateError(
                f"state {self.current_index} is not observable from the "
                f"data absorbed so far: {exc}"
            ) from exc
        mean = solve_upper(r, z[:n])
        rinv = tri_inverse(r)
        return mean, rinv @ rinv.T

    def problem(self) -> StateSpaceProblem:
        """The accumulated timeline as a batch problem."""
        return StateSpaceProblem(list(self._steps), prior=self._prior)

    def smooth(
        self, compute_covariance: bool = True, *, backend=None
    ) -> SmootherResult:
        """Smoothed estimates of every state on the timeline.

        ``backend`` dispatches the batch smoother's heavy phases (the
        incremental filter updates themselves are inherently
        sequential small QRs and have no parallel phases).  A
        rank-deficient window (e.g. too few observations since the
        last :meth:`forget`) raises
        :class:`~repro.errors.UnobservableStateError` naming the global
        step range instead of a bare LAPACK error.
        """
        # This request is generated here, not by the batch smoother's
        # caller: for an inner that cannot skip covariance work (e.g.
        # RTS), compute the covariances and hide them instead of
        # tripping its supports_nc capability check.
        request: bool | None = compute_covariance
        hide = False
        caps = self._smoother.capabilities
        if not compute_covariance and not caps.supports_nc:
            request, hide = None, True
        try:
            result = self._smoother.smooth(
                self.problem(),
                config=EstimatorConfig(
                    backend=backend,
                    compute_covariance=request,
                ),
            )
        except UnobservableStateError:
            raise
        except np.linalg.LinAlgError as exc:
            raise UnobservableStateError(
                f"smoothing window covering steps [{self.first_index}, "
                f"{self.current_index}] is not observable from the data "
                f"absorbed so far: {exc}"
            ) from exc
        if hide and result.covariances is not None:
            result = dataclasses.replace(result, covariances=None)
        return result


class UltimateSmoother(SmootherBase):
    """Batch adapter over the incremental :class:`UltimateKalman` API.

    Replays a :class:`~repro.model.problem.StateSpaceProblem` through
    the incremental ``evolve``/``observe`` workflow — exercising the
    filter's carried-triangle updates exactly as a live client would —
    and then smooths the accumulated timeline.  This is the §5.1
    workflow as a registry citizen: constructible by name
    (``repro.make_smoother("ultimate")``) and interchangeable with the
    batch smoothers anywhere the uniform surface is used.

    Parameters
    ----------
    smoother:
        Inner batch smoother for the final ``smooth`` call (a
        :class:`~repro.api.Smoother`, or a registered name); defaults
        to the odd-even smoother like :class:`UltimateKalman` itself.

    A NaN or infinite value in the problem raises ``ValueError`` naming
    its step, field and this smoother (found by a scan that runs only
    once the replay or the smooth has failed).
    """

    name = "ultimate"
    capabilities = Capabilities()

    def __init__(self, smoother=None):
        self.smoother = coerce_smoother(smoother)

    def _smooth(
        self, problem: StateSpaceProblem, config: EstimatorConfig
    ) -> SmootherResult:
        first = problem.steps[0]
        prior = None
        if problem.prior is not None:
            prior = (problem.prior.mean, problem.prior.cov_matrix())
        try:
            kalman = UltimateKalman(
                first.state_dim, prior=prior, smoother=self.smoother
            )
            if first.observation is not None:
                kalman.observe_step(first.observation)
            for step in problem.steps[1:]:
                kalman.evolve_step(step.evolution)
                if step.observation is not None:
                    kalman.observe_step(step.observation)
            return kalman.smooth(
                compute_covariance=config.compute_covariance,
                backend=config.backend,
            )
        except ValueError as exc:
            # The inner smoother names itself, or a singular block, for
            # non-finite input: name this smoother instead.
            reject_nonfinite([problem], exc, smoother="the ultimate smoother")
            raise

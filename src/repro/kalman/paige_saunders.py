"""The sequential Paige–Saunders QR smoother (UltimateKalman style).

The 1977 Paige–Saunders algorithm computes a QR factorization of the
whitened matrix ``U A`` by sweeping block columns left to right: at
column ``i`` it stacks the rows carried over from column ``i-1``, the
observation rows ``C_i``, and the next evolution rows
``[-B_{i+1} D_{i+1}]``, reduces the pivot block column with one
Householder QR, emits the permanent blocks ``R_ii`` and ``R_{i,i+1}``
of a block-*bidiagonal* triangular factor, and carries the remaining
rows forward.  Back substitution then runs right to left.

Properties the paper leans on (§2.2, §6): orthogonal transformations
make it conditionally backward stable; it needs no prior on the initial
state; it handles rectangular ``H_i``; and the covariance phase is
separate and skippable (the NC variant).  Covariances come from SelInv
Algorithm 1 (:func:`repro.core.selinv.selinv_bidiagonal`) exactly as
the paper advocates in §6.

This is also the reference the paper measures the odd-even smoother's
1.8-2.5x single-core work overhead against.
"""

from __future__ import annotations

import numpy as np

from ..api import Capabilities, EstimatorConfig, SmootherBase
from ..core.rfactor import BidiagonalR
from ..core.selinv import selinv_bidiagonal
from ..core.smoother import reject_nonfinite
from ..linalg.householder import QRFactor
from ..linalg.triangular import (
    check_triangular_system,
    instrumented_matmul,
    solve_upper,
)
from ..model.problem import StateSpaceProblem, WhitenedProblem
from ..parallel.backend import Backend, SerialBackend
from .result import SmootherResult

__all__ = ["paige_saunders_factorize", "PaigeSaundersSmoother"]


def paige_saunders_factorize(
    problem: StateSpaceProblem | WhitenedProblem,
    backend: Backend | None = None,
) -> BidiagonalR:
    """Sequential column sweep producing the bidiagonal ``R`` factor."""
    if backend is None:
        backend = SerialBackend()
    white = (
        problem.whiten()
        if isinstance(problem, StateSpaceProblem)
        else problem
    )
    k = white.k
    steps = white.steps
    diag: list[np.ndarray | None] = [None] * (k + 1)
    offdiag: list[np.ndarray | None] = [None] * max(k, 0)
    rhs: list[np.ndarray | None] = [None] * (k + 1)
    # Empty carries adopt the whitened blocks' dtype: a float64-typed
    # empty would promote every later vstack, freezing float32 stacks
    # out of single precision.
    work_dtype = steps[0].C.dtype
    state = {
        "carry": np.zeros((0, steps[0].n), dtype=work_dtype),
        "carry_rhs": np.zeros(0, dtype=work_dtype),
        "residual": 0.0,
    }

    def column(i: int) -> None:
        ws = steps[i]
        n = ws.n
        # Observe/compress step: fold the carried evolution remnant and
        # this column's observation rows into at most n triangular rows
        # (the rows beyond n are identically zero and feed the
        # residual).  This compression is what keeps the carry bounded
        # and the total work Theta(k n^3) — the defining trick of the
        # UltimateKalman implementation the paper builds on.
        pieces = [p for p in (state["carry"], ws.C) if p.shape[0] > 0]
        compressed = (
            np.vstack(pieces)
            if pieces
            else np.zeros((0, n), dtype=work_dtype)
        )
        rhs_comp = np.concatenate([state["carry_rhs"], ws.rhs_C])
        if compressed.shape[0] > n:
            qf = QRFactor(compressed)
            qtr = qf.apply_qt(rhs_comp)
            compressed = qf.r
            state["residual"] += float(qtr[n:] @ qtr[n:])
            rhs_comp = qtr[:n]
        next_ws = steps[i + 1] if i < k else None
        if next_ws is None:
            if compressed.shape[0] < n:
                raise np.linalg.LinAlgError(
                    f"column {i} accumulates only {compressed.shape[0]} "
                    f"rows for {n} unknowns; the problem is rank "
                    "deficient at this state"
                )
            qf = QRFactor(compressed)
            diag[i] = qf.r_square()
            rhs[i] = qf.apply_qt(rhs_comp)[:n]
            return
        # Evolve step: stack the compressed rows over the next
        # evolution's [-B_{i+1} D_{i+1}] rows and reduce the pivot
        # column; the top n rows become permanent, the rest carry.
        pivot = np.vstack([compressed, -next_ws.B])
        rows = pivot.shape[0]
        if rows < n:
            raise np.linalg.LinAlgError(
                f"column {i} accumulates only {rows} rows for {n} "
                "unknowns; the problem is rank deficient at this state"
            )
        rhs_col = np.concatenate([rhs_comp, next_ws.rhs_BD])
        coupled = np.vstack(
            [
                np.zeros(
                    (compressed.shape[0], next_ws.n),
                    dtype=next_ws.D.dtype,
                ),
                next_ws.D,
            ]
        )
        qf = QRFactor(pivot)
        applied = qf.apply_qt(np.column_stack([coupled, rhs_col]))
        diag[i] = qf.r_square()
        offdiag[i] = applied[:n, :-1]
        rhs[i] = applied[:n, -1]
        state["carry"] = applied[n:, :-1]
        state["carry_rhs"] = applied[n:, -1]

    backend.serial_for(k + 1, column, phase="paige-saunders/factor")
    return BidiagonalR(
        diag=[d for d in diag],  # type: ignore[misc]
        offdiag=[o for o in offdiag],  # type: ignore[misc]
        rhs=[z for z in rhs],  # type: ignore[misc]
        residual_sq=state["residual"],
    )


def _back_substitute(
    factor: BidiagonalR, backend: Backend
) -> list[np.ndarray]:
    k = factor.k
    states: list[np.ndarray | None] = [None] * (k + 1)

    def column(step: int) -> None:
        i = k - step
        rjj = factor.diag[i]
        check_triangular_system(rjj, what=f"R[{i},{i}]")
        z = factor.rhs[i]
        if i < k:
            z = z - instrumented_matmul(factor.offdiag[i], states[i + 1])
        states[i] = solve_upper(rjj, z)

    backend.serial_for(k + 1, column, phase="paige-saunders/solve")
    return [s for s in states]  # type: ignore[return-value]


#: how non-finite-input errors name this smoother
_NAME = "the Paige–Saunders smoother"


class PaigeSaundersSmoother(SmootherBase):
    """Sequential QR smoother with optional covariance phase.

    Parameters
    ----------
    compute_covariance:
        ``False`` selects the NC variant (paper's "Paige-Saunders NC"),
        which skips the SelInv phase entirely — the configuration used
        inside Levenberg–Marquardt nonlinear smoothing.  A per-call
        :class:`~repro.api.EstimatorConfig` overrides it.

    Non-finite data raises ``ValueError`` naming its step and field, as
    in :class:`~repro.core.smoother.OddEvenSmoother`.
    """

    name = "paige-saunders"
    capabilities = Capabilities()

    def __init__(self, compute_covariance: bool = True):
        self.compute_covariance = compute_covariance

    @property
    def default_config(self) -> EstimatorConfig:
        return EstimatorConfig(compute_covariance=self.compute_covariance)

    def _smooth(
        self, problem: StateSpaceProblem, config: EstimatorConfig
    ) -> SmootherResult:
        backend = config.backend
        want_cov = config.compute_covariance
        try:
            factor = paige_saunders_factorize(problem, backend)
            means = _back_substitute(factor, backend)
            covs = None
            if want_cov:
                covs_holder: dict[str, list[np.ndarray]] = {}

                def cov_phase(_i: int) -> None:
                    covs_holder["covs"] = list(
                        selinv_bidiagonal(factor).diagonal
                    )

                # SelInv's sweep is a dependency chain: record it serial.
                backend.serial_for(1, cov_phase, phase="paige-saunders/selinv")
                covs = covs_holder["covs"]
        except np.linalg.LinAlgError as exc:
            # A singular or non-finite diagonal is often non-finite
            # input: name it instead.
            reject_nonfinite([problem], exc, smoother=_NAME)
            raise
        if not np.isfinite(factor.residual_sq):
            reject_nonfinite([problem], None, smoother=_NAME)
        return SmootherResult(
            means=means,
            covariances=covs,
            residual_sq=factor.residual_sq,
            algorithm="paige-saunders" + ("" if want_cov else "-nc"),
            diagnostics={"k": factor.k},
        )

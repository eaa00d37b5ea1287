"""The conventional Kalman (RTS) smoother — the sequential baseline.

Rauch–Tung–Striebel (paper ref. [2]): a forward Kalman filter pass
followed by a backward sweep that propagates future information:

    ``C_i   = P_i F_{i+1}^T (P~_{i+1})^{-1}``
    ``m^s_i = m_i + C_i (m^s_{i+1} - m~_{i+1})``
    ``P^s_i = P_i + C_i (P^s_{i+1} - P~_{i+1}) C_i^T``

This is the "Kalman" line in the paper's Fig 2 and the reference for
the Associative smoother's 1.8-2.7x work-overhead measurement.  Like
all conventional smoothers it computes means and covariances *jointly*
— there is no NC variant to skip (§5.4).
"""

from __future__ import annotations

import numpy as np

from ..api import Capabilities, EstimatorConfig, SmootherBase
from ..core.smoother import reject_nonfinite, reject_nonfinite_outputs
from ..linalg.cholesky import spd_solve
from ..linalg.triangular import instrumented_matmul
from ..model.problem import StateSpaceProblem
from .kf import KalmanFilter
from .result import SmootherResult
from .standard_form import to_standard_form

__all__ = ["RTSSmoother"]

_NAME = "the RTS smoother"


class RTSSmoother(SmootherBase):
    """Forward filter + backward RTS recursion (sequential).

    Covariances are always produced: the backward recursion itself runs
    on them (paper §5.4), so there is no NC variant —
    ``capabilities.supports_nc`` is ``False`` and requesting
    ``compute_covariance=False`` through an
    :class:`~repro.api.EstimatorConfig` raises.  Non-finite data raises
    ``ValueError`` naming its step and field.
    """

    name = "kalman-rts"
    capabilities = Capabilities(
        needs_prior=True, supports_nc=False, supports_rectangular_obs=False
    )

    def _smooth(
        self, problem: StateSpaceProblem, config: EstimatorConfig
    ) -> SmootherResult:
        backend = config.backend
        m0, p0, steps = to_standard_form(problem, _NAME)
        del m0, p0
        k = len(steps) - 1
        s_means: list[np.ndarray] = [None] * (k + 1)  # type: ignore[list-item]
        s_covs: list[np.ndarray] = [None] * (k + 1)  # type: ignore[list-item]

        def backward(step_idx: int) -> None:
            i = k - step_idx
            if i == k:
                s_means[i] = filt.means[i]
                s_covs[i] = filt.covariances[i]
                return
            f_next = steps[i + 1].F
            p_i = filt.covariances[i]
            p_pred_next = filt.predicted_covariances[i + 1]
            # C_i = P_i F^T (P~)^{-1}, via an SPD solve on P~.
            cross = instrumented_matmul(p_i, f_next.T)
            gain = spd_solve(
                p_pred_next, cross.T, what="predicted covariance"
            ).T
            dm = s_means[i + 1] - filt.predicted_means[i + 1]
            dp = s_covs[i + 1] - p_pred_next
            s_means[i] = filt.means[i] + instrumented_matmul(gain, dm)
            cov = p_i + instrumented_matmul(
                instrumented_matmul(gain, dp), gain.T
            )
            s_covs[i] = 0.5 * (cov + cov.T)

        try:
            filt = KalmanFilter().filter(problem, backend)
            backend.serial_for(k + 1, backward, phase="kalman/rts-backward")
        except np.linalg.LinAlgError as exc:
            reject_nonfinite([problem], exc, smoother=_NAME)
            raise
        reject_nonfinite_outputs(
            [problem], (*s_means, *s_covs), smoother=_NAME
        )
        return SmootherResult(
            means=s_means,
            covariances=s_covs,
            residual_sq=None,
            algorithm="kalman-rts",
            diagnostics={"k": k},
        )

"""Public API of the paper's contribution: the Odd-Even smoother.

Usage::

    from repro import OddEvenSmoother, random_orthonormal_problem

    problem = random_orthonormal_problem(n=6, k=1000, seed=0)
    result = OddEvenSmoother().smooth(problem)
    result.means[0], result.covariances[0]

The smoother runs three phases (paper §3-§4): the odd-even QR
factorization with RHS transformation, the recursive back substitution,
and — unless the NC variant is selected — the parallel SelInv pass for
the covariance matrices.  Every phase is expressed over an execution
backend, so the same code runs serially, on a thread pool, or under the
recording backend that feeds the machine simulator; the backend (and
the covariance switch) arrive through one
:class:`~repro.api.EstimatorConfig`.
"""

from __future__ import annotations

import numpy as np

from ..api import Capabilities, EstimatorConfig, SmootherBase
from ..kalman.result import SmootherResult
from ..model.problem import StateSpaceProblem
from ..parallel.backend import Backend
from .oddeven_qr import oddeven_factorize
from .rfactor import OddEvenR
from .selinv import selinv_oddeven
from .solve import oddeven_back_substitute

__all__ = ["OddEvenSmoother"]


def reject_nonfinite(
    problems: list[StateSpaceProblem],
    cause: BaseException | None,
    *,
    indices: list[int] | None = None,
    smoother: str = "the odd-even smoother",
) -> None:
    """Raise ``ValueError`` naming the first problem with non-finite data.

    ``indices`` are the problems' positions in a ``smooth_many``
    workload; given, the message leads with the culprit's index.
    ``smoother`` names the algorithm in the message.  Returns quietly
    when every problem is finite.
    """
    for pos, problem in enumerate(problems):
        culprit = problem.nonfinite_field()
        if culprit is None:
            continue
        where = (
            ""
            if indices is None
            else f"problem index {indices[pos]} of the smooth_many workload: "
        )
        raise ValueError(
            f"{where}{culprit}; {smoother} needs finite data"
        ) from cause


def reject_nonfinite_outputs(
    problems: list[StateSpaceProblem],
    outputs,
    *,
    indices: list[int] | None = None,
    smoother: str,
) -> None:
    """:func:`reject_nonfinite` once an output array is not finite.

    For smoothers that carry NaN through silently: a healthy result
    costs one ``isfinite`` per output array, and the problems are
    scanned only when one fails.
    """
    if not all(np.isfinite(x).all() for x in outputs):
        reject_nonfinite(problems, None, indices=indices, smoother=smoother)


class OddEvenSmoother(SmootherBase):
    """Parallel-in-time Kalman smoother via odd-even QR (paper §3-§4).

    Parameters
    ----------
    compute_covariance:
        ``False`` selects the NC variant (paper's "Odd-Even NC"):
        skip the SelInv phase, returning means only.  This is the
        configuration used inside Levenberg–Marquardt nonlinear
        smoothing (§5.4).  A per-call
        :class:`~repro.api.EstimatorConfig` overrides it.

    Functional notes (paper §6, mirrored by :attr:`capabilities`): no
    prior on the initial state is required; rectangular ``H_i`` are
    supported; the noise covariances ``K_i``/``L_i`` must be
    nonsingular (they are whitened by Cholesky).  A NaN or infinite
    value in ``F``, ``H``, ``c``, ``G``, ``o``, the prior mean or a
    covariance factor raises ``ValueError`` naming its step and field
    (found by a scan that runs only once the solve has produced a
    non-finite value).
    """

    name = "odd-even"
    capabilities = Capabilities()

    def __init__(self, compute_covariance: bool = True):
        self.compute_covariance = compute_covariance

    @property
    def default_config(self) -> EstimatorConfig:
        return EstimatorConfig(compute_covariance=self.compute_covariance)

    def factorize(
        self,
        problem: StateSpaceProblem,
        backend: Backend | None = None,
    ) -> OddEvenR:
        """Expose the factorization alone (structure studies, Fig 1)."""
        return oddeven_factorize(problem, backend)

    def _smooth(
        self, problem: StateSpaceProblem, config: EstimatorConfig
    ) -> SmootherResult:
        """Estimate all states (and covariances) of ``problem``."""
        backend = config.backend
        want_cov = config.compute_covariance
        try:
            factor = oddeven_factorize(problem, backend)
            means = oddeven_back_substitute(factor, backend)
            covariances = None
            if want_cov:
                covariances = list(selinv_oddeven(factor, backend).diagonal)
        except np.linalg.LinAlgError as exc:
            # A singular or non-finite diagonal, or a non-finite state,
            # is often non-finite input: name it instead.
            reject_nonfinite([problem], exc)
            raise
        if not np.isfinite(factor.residual_sq):
            reject_nonfinite([problem], None)
        return SmootherResult(
            means=means,
            covariances=covariances,
            residual_sq=factor.residual_sq,
            algorithm="odd-even" + ("" if want_cov else "-nc"),
            diagnostics={
                "levels": factor.depth(),
                "nonzero_blocks": factor.nonzero_blocks(),
            },
        )

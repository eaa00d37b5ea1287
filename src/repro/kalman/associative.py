"""The Särkkä–García-Fernández parallel-in-time smoother (paper §2.3).

Temporal Parallelization of Bayesian Smoothers (IEEE TAC 2021, paper
ref. [3]) restructures the forward and backward sweeps of the RTS
smoother as generalized prefix sums:

* **Filtering**: per-step elements ``(A, b, C, eta, J)`` such that the
  inclusive prefix under an associative combination yields the filtered
  mean/covariance at every step.
* **Smoothing**: per-step elements ``(E, g, L)`` built from the
  filtered results; the inclusive *suffix* product yields the smoothed
  mean/covariance.

Both scans run through :mod:`repro.parallel.prefix` — sequentially (the
paper's compiled-sequential build) or with the parallel pair-and-expand
scan whose ~2x combine count is the measured 1.8-2.7x work overhead.

Functional contrasts the paper draws (§6): this smoother requires a
prior and ``H_i = I`` (square-invertible ``H`` is reduced away), cannot
skip the covariance computation, but tolerates singular ``K_i``/``L_i``
— which is why element construction uses plain solves against
innovation covariances rather than Cholesky whitening of the inputs.

Batching: every element construction and combination below is written
against the trailing axes only (``(..., n, n)`` matrices, ``(..., n)``
vectors), so a stack of ``B`` independent sequences rides through the
very same scan code as one sequence — :mod:`repro.batch` stacks the
standard-form inputs on a leading batch axis and each combine becomes
a handful of batched GEMM/``gesv`` calls instead of ``B`` Python-level
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api import Capabilities, EstimatorConfig, SmootherBase
from ..core.smoother import reject_nonfinite, reject_nonfinite_outputs
from ..linalg.triangular import (
    batch_count,
    instrumented_matmul,
    instrumented_matvec,
    instrumented_solve,
    mat_transpose as _t,
)
from ..linalg.xp import get_namespace, to_host
from ..model.problem import StateSpaceProblem
from ..parallel.tally import add_cost
from ..parallel.backend import Backend, SerialBackend
from ..parallel.prefix import scan
from .result import SmootherResult
from .standard_form import StandardStep, to_standard_form

__all__ = [
    "FilteringElement",
    "SmoothingElement",
    "combine_filtering",
    "combine_smoothing",
    "make_filtering_element",
    "make_smoothing_element",
    "AssociativeSmoother",
]

_NAME = "the associative smoother"


@dataclass
class FilteringElement:
    """The 5-tuple ``(A, b, C, eta, J)`` of ref. [3], Lemma 7.

    Matrices are ``(..., n, n)`` and vectors ``(..., n)``; leading axes,
    when present, are independent batch sequences.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    eta: np.ndarray
    j: np.ndarray

    @property
    def n(self) -> int:
        return self.b.shape[-1]


@dataclass
class SmoothingElement:
    """The 3-tuple ``(E, g, L)`` of ref. [3], Lemma 9."""

    e: np.ndarray
    g: np.ndarray
    ell: np.ndarray


def make_filtering_element(
    step: StandardStep,
    *,
    first: bool = False,
    m0: np.ndarray | None = None,
    p0: np.ndarray | None = None,
) -> FilteringElement:
    """Build one filtering element.

    For the first element the prior plays the role of the predictive
    distribution (``A = 0``, information terms zero); generic elements
    follow Lemma 8 of ref. [3] with the transition ``(F, c, Q)`` and,
    when present, the observation ``(G, o, R)``.
    """
    n = step.n
    if first:
        assert m0 is not None and p0 is not None
        xp = get_namespace(m0, p0)
        bshape = tuple(m0.shape[:-1])
        # Zeros take the prior's dtype: defaulting to float64 here
        # silently promoted float32 pipelines at the very first scan
        # element.
        a = xp.zeros(bshape + (n, n), dtype=p0.dtype)
        eta = xp.zeros(bshape + (n,), dtype=m0.dtype)
        j = xp.zeros(bshape + (n, n), dtype=p0.dtype)
        if not step.has_observation:
            return FilteringElement(a, xp.copy(m0), xp.copy(p0), eta, j)
        g, o, r = step.G, step.o, step.R
        s = instrumented_matmul(instrumented_matmul(g, p0), _t(g)) + r
        gain = _t(instrumented_solve(s, instrumented_matmul(g, p0)))
        b = m0 + instrumented_matvec(gain, o - instrumented_matvec(g, m0))
        ikg = xp.eye(n, dtype=p0.dtype) - instrumented_matmul(gain, g)
        c = instrumented_matmul(ikg, p0)
        return FilteringElement(a, b, 0.5 * (c + _t(c)), eta, j)

    f, cvec, q = step.F, step.c, step.Q
    xp = get_namespace(f, cvec, q)
    if not step.has_observation:
        bshape = tuple(cvec.shape[:-1])
        return FilteringElement(
            xp.copy(f),
            xp.copy(cvec),
            xp.copy(q),
            xp.zeros(bshape + (n,), dtype=cvec.dtype),
            xp.zeros(bshape + (n, n), dtype=q.dtype),
        )
    g, o, r = step.G, step.o, step.R
    s = instrumented_matmul(instrumented_matmul(g, q), _t(g)) + r
    # K = Q G^T S^{-1}  (solve on the right via the transpose).
    gain = _t(instrumented_solve(s, instrumented_matmul(g, q)))
    ikg = xp.eye(n, dtype=q.dtype) - instrumented_matmul(gain, g)
    a = instrumented_matmul(ikg, f)
    resid = o - instrumented_matvec(g, cvec)
    b = cvec + instrumented_matvec(gain, resid)
    c = instrumented_matmul(ikg, q)
    # eta = F^T G^T S^{-1} resid;  J = F^T G^T S^{-1} G F.
    st_inv_resid = instrumented_solve(s, resid)
    st_inv_g = instrumented_solve(s, g)
    gf = instrumented_matmul(g, f)
    eta = instrumented_matvec(_t(gf), st_inv_resid)
    j = instrumented_matmul(_t(gf), instrumented_matmul(st_inv_g, f))
    return FilteringElement(a, b, 0.5 * (c + _t(c)), eta, 0.5 * (j + _t(j)))


def _element_traffic(
    n: int, matrices: int, vectors: int, batch: int = 1
) -> None:
    """Charge the memory traffic of touching whole scan elements.

    Scan combines read two complete elements and write a third; these
    are separately-allocated objects with poor locality, so their
    traffic is real and is *in addition to* the BLAS operand traffic
    counted by the instrumented kernels.  This is the structural
    reason the Associative smoother saturates memory bandwidth earlier
    than the odd-even algorithm, which updates its step array in
    place (paper §5.4 / Fig 4's memory-bound phases).
    """
    add_cost(0.0, 3.0 * 8.0 * batch * (matrices * n * n + vectors * n))


def _batch_of(vec: np.ndarray) -> int:
    """Number of stacked sequences given a ``(..., n)`` vector."""
    return batch_count(vec.shape[:-1])


def combine_filtering(
    fi: FilteringElement, fj: FilteringElement
) -> FilteringElement:
    """Associative combination (``fi`` earlier in time than ``fj``)."""
    n = fi.n
    _element_traffic(n, matrices=3, vectors=2, batch=_batch_of(fi.b))
    eye = get_namespace(fi.c).eye(n, dtype=fi.c.dtype)
    # M = (I + C_i J_j)^{-1} applied from the right of A_j.
    m_inv = eye + instrumented_matmul(fi.c, fj.j)
    aj_m = _t(instrumented_solve(_t(m_inv), _t(fj.a)))
    a = instrumented_matmul(aj_m, fi.a)
    b = (
        instrumented_matvec(
            aj_m, fi.b + instrumented_matvec(fi.c, fj.eta)
        )
        + fj.b
    )
    c = (
        instrumented_matmul(instrumented_matmul(aj_m, fi.c), _t(fj.a))
        + fj.c
    )
    # Dual factor (I + J_j C_i)^{-1} for the information terms.
    mt_inv = eye + instrumented_matmul(fj.j, fi.c)
    ai_mt = _t(instrumented_solve(_t(mt_inv), fi.a))  # A_i^T (I + J_j C_i)^{-1}
    eta = (
        instrumented_matvec(
            ai_mt, fj.eta - instrumented_matvec(fj.j, fi.b)
        )
        + fi.eta
    )
    j = (
        instrumented_matmul(ai_mt, instrumented_matmul(fj.j, fi.a))
        + fi.j
    )
    return FilteringElement(a, b, 0.5 * (c + _t(c)), eta, 0.5 * (j + _t(j)))


def make_smoothing_element(
    m_f: np.ndarray,
    p_f: np.ndarray,
    next_step: StandardStep | None,
) -> SmoothingElement:
    """Build one smoothing element from the filtered moments.

    ``next_step`` is the transition *out of* this state (``None`` for
    the last state, whose element is the identity-with-offset
    ``(0, m, P)``).
    """
    n = m_f.shape[-1]
    xp = get_namespace(m_f, p_f)
    if next_step is None:
        return SmoothingElement(
            xp.zeros(tuple(m_f.shape[:-1]) + (n, n), dtype=p_f.dtype),
            xp.copy(m_f),
            xp.copy(p_f),
        )
    f, cvec, q = next_step.F, next_step.c, next_step.Q
    fp = instrumented_matmul(f, p_f)
    p_pred = instrumented_matmul(fp, _t(f)) + q
    p_pred = 0.5 * (p_pred + _t(p_pred))
    # E = P F^T (P_pred)^{-1}
    e = _t(instrumented_solve(p_pred, fp))
    g = m_f - instrumented_matvec(
        e, instrumented_matvec(f, m_f) + cvec
    )
    ell = p_f - instrumented_matmul(e, fp)
    return SmoothingElement(e, g, 0.5 * (ell + _t(ell)))


def combine_smoothing(
    si: SmoothingElement, sj: SmoothingElement
) -> SmoothingElement:
    """Associative combination (``si`` earlier in time than ``sj``)."""
    _element_traffic(
        si.g.shape[-1], matrices=2, vectors=1, batch=_batch_of(si.g)
    )
    e = instrumented_matmul(si.e, sj.e)
    g = instrumented_matvec(si.e, sj.g) + si.g
    ell = (
        instrumented_matmul(
            instrumented_matmul(si.e, sj.ell), _t(si.e)
        )
        + si.ell
    )
    return SmoothingElement(e, g, 0.5 * (ell + _t(ell)))


def _to_backend_standard(ab, m0, p0, steps):
    """Move standard-form inputs onto an array backend's device.

    Element construction and the scans then run entirely in the
    backend's namespace; the caller converts the scan outputs back to
    host arrays at the result boundary.
    """
    conv = ab.from_numpy

    def c(x):
        return None if x is None else conv(np.asarray(x, dtype=np.float64))

    converted = [
        StandardStep(
            n=s.n, F=c(s.F), c=c(s.c), Q=c(s.Q), G=c(s.G), o=c(s.o),
            R=c(s.R),
        )
        for s in steps
    ]
    return conv(np.asarray(m0, dtype=np.float64)), conv(
        np.asarray(p0, dtype=np.float64)
    ), converted


class AssociativeSmoother(SmootherBase):
    """Parallel-in-time smoother via associative scans (ref. [3]).

    The scan elements carry the covariances intrinsically (paper
    §5.4), so like RTS there is no NC variant:
    ``capabilities.supports_nc`` is ``False``.  The scans would carry a
    NaN through silently; non-finite data raises ``ValueError`` naming
    its step and field instead.

    Parameters
    ----------
    parallel:
        ``True`` uses the parallel pair-and-expand scan (the paper's
        "Associative" implementation); ``False`` uses the sequential
        fold — same results, about half the combines.
    """

    name = "associative"
    capabilities = Capabilities(
        needs_prior=True,
        supports_nc=False,
        supports_rectangular_obs=False,
        supports_array_module=True,
    )

    def __init__(self, parallel: bool = True):
        self.parallel = parallel

    def _smooth(
        self, problem: StateSpaceProblem, config: EstimatorConfig
    ) -> SmootherResult:
        backend = config.backend
        ab = getattr(config, "array_module", None)
        foreign = ab is not None and ab.name != "numpy"
        m0, p0, steps = to_standard_form(problem, _NAME)
        if foreign:
            m0, p0, steps = _to_backend_standard(ab, m0, p0, steps)
        try:
            means, covs = self._scans(m0, p0, steps, backend)
        except np.linalg.LinAlgError as exc:
            reject_nonfinite([problem], exc, smoother=_NAME)
            raise
        if foreign:
            means = [to_host(m) for m in means]
            covs = [to_host(c) for c in covs]
        reject_nonfinite_outputs([problem], (*means, *covs), smoother=_NAME)
        k = len(steps) - 1
        return SmootherResult(
            means=means,
            covariances=covs,
            residual_sq=None,
            algorithm="associative"
            + ("" if self.parallel else "-sequential"),
            diagnostics={"k": k, "parallel_scan": self.parallel},
        )

    def _scans(self, m0, p0, steps, backend: Backend):
        """The filtering and smoothing scans: smoothed means and
        covariances."""
        k = len(steps) - 1
        elements = backend.map(
            range(k + 1),
            lambda i: make_filtering_element(
                steps[i], first=(i == 0), m0=m0, p0=p0
            ),
            phase="associative/filter-elements",
        )
        filtered = scan(
            elements,
            combine_filtering,
            backend,
            parallel=self.parallel,
            phase="associative/filter-scan",
        )

        smoothing_elements = backend.map(
            range(k + 1),
            lambda i: make_smoothing_element(
                filtered[i].b,
                filtered[i].c,
                steps[i + 1] if i < k else None,
            ),
            phase="associative/smooth-elements",
        )
        smoothed = scan(
            smoothing_elements,
            combine_smoothing,
            backend,
            parallel=self.parallel,
            reverse=True,
            phase="associative/smooth-scan",
        )

        return [s.g for s in smoothed], [s.ell for s in smoothed]

    def filter_means(
        self,
        problem: StateSpaceProblem,
        backend: Backend | None = None,
    ) -> list[np.ndarray]:
        """Filtered means only (prefix of the first scan) — test hook."""
        if backend is None:
            backend = SerialBackend()
        m0, p0, steps = to_standard_form(problem, _NAME)
        elements = [
            make_filtering_element(s, first=(i == 0), m0=m0, p0=p0)
            for i, s in enumerate(steps)
        ]
        filtered = scan(
            elements, combine_filtering, backend, parallel=self.parallel
        )
        return [f.b for f in filtered]

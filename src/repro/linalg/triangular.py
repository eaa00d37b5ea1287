"""Instrumented triangular solves and related small kernels.

These wrap :func:`scipy.linalg.solve_triangular` (LAPACK ``dtrtrs`` /
BLAS ``dtrsm``) with cost accounting and with the shape/consistency
checks the smoothers rely on.  Matrix inverses are never formed except
in :func:`tri_inverse`, which SelInv needs for the ``R_jj^{-1}
R_jj^{-T}`` diagonal products (paper Algorithms 1-2); even there the
inverse is obtained by a triangular solve against the identity.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular as _solve_triangular

from ..parallel.tally import add_cost
from .flops import matmul_bytes, matmul_flops, trsm_bytes, trsm_flops
from .xp import backend_of, get_namespace, to_host

__all__ = [
    "STACK_SLICES",
    "as_working_dtype",
    "solve_upper",
    "solve_lower",
    "solve_upper_transpose",
    "tri_inverse",
    "instrumented_matmul",
    "instrumented_matvec",
    "instrumented_solve",
    "check_triangular_system",
    "mat_transpose",
    "batch_count",
]


#: Most slices one stacked kernel call takes, in the odd-even engine
#: (:mod:`repro.core.stacked`) and in stacked whitening
#: (:func:`repro.linalg.cholesky.stack_whiten`).  Uncapped, level 0 of a
#: long sequence would hold every stacked operand, orthogonal factor and
#: result of a stage at once.
STACK_SLICES = 128


def as_working_dtype(a) -> np.ndarray:
    """Coerce to a floating working dtype, *preserving* ``float32``.

    The historical idiom ``np.asarray(a, dtype=float)`` silently
    promoted every input to ``float64``, which made the kernels
    dtype-correct but froze out the mixed-precision fast path
    (``EstimatorConfig.dtype``): a float32 stack entering a kernel came
    out float64.  This helper keeps ``float32`` and ``float64`` inputs
    as they are and promotes everything else (ints, object arrays,
    lists) to ``float64`` — so existing float64 callers see identical
    behavior while float32 pipelines stay in single precision end to
    end.

    Arrays owned by a non-numpy backend (see :mod:`repro.linalg.xp`)
    pass through untouched: coercing them through ``np.asarray`` would
    silently pull them back to the host.
    """
    if type(a) is not np.ndarray:
        backend = backend_of(a)
        if backend is not None and backend.name != "numpy":
            return a
    a = np.asarray(a)
    if a.dtype == np.float32 or a.dtype == np.float64:
        return a
    return np.asarray(a, dtype=np.float64)


def mat_transpose(a: np.ndarray) -> np.ndarray:
    """Transpose the matrix axes only (the batch-safe ``.T``)."""
    return get_namespace(a).swapaxes(a, -1, -2)


def batch_count(shape: tuple) -> int:
    """Number of stacked slices given an array's leading (batch) axes."""
    return int(math.prod(shape))


def check_triangular_system(r: np.ndarray, what: str = "R") -> None:
    """Validate that ``r`` is square with a nonsingular diagonal.

    Raises :class:`numpy.linalg.LinAlgError` with a diagnostic message
    identifying which block failed; the smoothers call this on every
    diagonal block so rank-deficient problems fail loudly instead of
    producing NaNs deep in a recursion.  Accepts a ``(..., n, n)``
    stack, in which case every slice must pass.
    """
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise np.linalg.LinAlgError(
            f"{what} must be square, got shape {r.shape}; the least-squares "
            "problem does not determine this state (rank deficiency)"
        )
    d = np.abs(np.diagonal(to_host(r), axis1=-2, axis2=-1))
    if d.size and (d.min() == 0.0 or not np.all(np.isfinite(d))):
        where = ""
        bad_slices: list = []
        if r.ndim > 2:
            # Name the offending slices so one bad sequence in a
            # batched stack is attributable (and the caller can map it
            # back to the user's problem).
            with np.errstate(invalid="ignore"):
                bad = (d.min(axis=-1) == 0.0) | ~np.all(
                    np.isfinite(d), axis=-1
                )
            bad_slices = [tuple(ix) if len(ix) > 1 else int(ix[0])
                          for ix in np.argwhere(bad)]
            where = f" in batch slice(s) {bad_slices}"
        err = np.linalg.LinAlgError(
            f"{what} is singular (zero or non-finite diagonal entry)"
            f"{where}; check that the problem has full column rank"
        )
        err.batch_slices = bad_slices
        raise err


def _solve(r: np.ndarray, b: np.ndarray, lower: bool, trans: int) -> np.ndarray:
    b = as_working_dtype(b)
    # Foreign-backend operands take the batched (general-solve) path
    # even at 2-D: the scipy path below would silently round-trip them
    # through the host via ``__array__``.
    if r.ndim > 2 or get_namespace(r, b) is not np:
        return _solve_batched(r, b, trans)
    n = r.shape[0]
    if n == 0:
        return b.copy()
    k = 1 if b.ndim == 1 else b.shape[1]
    add_cost(trsm_flops(n, k), trsm_bytes(n, k))
    return _solve_triangular(r, b, lower=lower, trans=trans, check_finite=False)


def _solve_batched(r: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """Triangular solve over a ``(..., n, n)`` stack.

    Dispatches to the batched ``np.linalg.solve`` (vectorized LAPACK
    ``gesv``) — for the tiny per-block systems of the smoothers, one
    batched general solve beats a Python-level loop of ``trtrs`` calls
    by a wide margin, which is the point of the batch subsystem.  The
    cost charged is still the per-slice ``trsm`` count times the batch,
    so recorded graphs replay like the per-sequence run.
    """
    xp = get_namespace(r, b)
    n = r.shape[-1]
    if n == 0:
        return xp.copy(b)
    vector = b.ndim == r.ndim - 1
    b2 = b[..., None] if vector else b
    k = b2.shape[-1]
    add_cost(
        batch_count(r.shape[:-2]) * trsm_flops(n, k),
        batch_count(r.shape[:-2]) * trsm_bytes(n, k),
    )
    a = xp.swapaxes(r, -1, -2) if trans else r
    out = xp.linalg.solve(a, b2)
    return out[..., 0] if vector else out


def solve_upper(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``R x = b`` with ``R`` upper triangular."""
    return _solve(r, b, lower=False, trans=0)


def solve_upper_transpose(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``R^T x = b`` with ``R`` upper triangular."""
    return _solve(r, b, lower=False, trans=1)


def solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` with ``L`` lower triangular."""
    return _solve(l, b, lower=True, trans=0)


def tri_inverse(r: np.ndarray, lower: bool = False) -> np.ndarray:
    """Invert a triangular matrix (or stack) via solves against ``I``."""
    xp = get_namespace(r)
    n = r.shape[-1]
    if n == 0:
        return xp.zeros(tuple(r.shape), dtype=r.dtype)
    if r.ndim > 2 or xp is not np:
        add_cost(
            batch_count(r.shape[:-2]) * trsm_flops(n, n),
            batch_count(r.shape[:-2]) * trsm_bytes(n, n),
        )
        eye = xp.eye(n, dtype=r.dtype)
        return xp.linalg.solve(r, xp.broadcast_to(eye, tuple(r.shape)))
    add_cost(trsm_flops(n, n), trsm_bytes(n, n))
    return _solve_triangular(
        r, np.eye(n, dtype=r.dtype), lower=lower, trans=0, check_finite=False
    )


def instrumented_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``solve(a, b)`` for a square general ``a`` with cost accounting.

    LU factorization (``2/3 n^3``) plus two triangular solves.  Used by
    the RTS/Associative baselines where the paper's implementations
    call LAPACK ``gesv``.
    """
    a = as_working_dtype(a)
    b = as_working_dtype(b)
    n = a.shape[-1]
    # NumPy >= 2.0 only treats 1-D ``b`` as a vector; spell out the
    # stacked-vector case (``b`` with one axis fewer than ``a``) so the
    # batched paths cannot be misread as a single matrix.
    vector = b.ndim == a.ndim - 1 and b.ndim >= 2
    k = 1 if (vector or b.ndim == 1) else b.shape[-1]
    batch = batch_count(a.shape[:-2])
    add_cost(
        batch * ((2.0 / 3.0) * n**3 + 2.0 * trsm_flops(n, k)),
        batch * trsm_bytes(n, k),
    )
    xp = get_namespace(a, b)
    if vector:
        return xp.linalg.solve(a, b[..., None])[..., 0]
    return xp.linalg.solve(a, b)


def instrumented_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with flop/byte accounting (``dgemm``), batch-aware.

    For stacked operands the per-slice cost is multiplied by the
    broadcast batch count; the product itself is plain ``np.matmul``
    broadcasting.
    """
    a = as_working_dtype(a)
    b = as_working_dtype(b)
    if a.ndim <= 2 and b.ndim <= 2:
        m = a.shape[0]
        k = a.shape[1] if a.ndim == 2 else a.shape[0]
        n = b.shape[1] if b.ndim == 2 else 1
        add_cost(matmul_flops(m, k, n), matmul_bytes(m, k, n))
        return a @ b
    m, k = a.shape[-2], a.shape[-1]
    n = b.shape[-1]
    batch = batch_count(
        np.broadcast_shapes(tuple(a.shape[:-2]), tuple(b.shape[:-2]))
    )
    add_cost(batch * matmul_flops(m, k, n), batch * matmul_bytes(m, k, n))
    return get_namespace(a, b).matmul(a, b)


def instrumented_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a matrix (stack) and vector (stack), instrumented.

    ``a`` is ``(..., m, n)`` and ``x`` is ``(..., n)``; the result is
    ``(..., m)``.  This is the batch-safe spelling of a GEMV — plain
    ``@`` would misread a ``(B, n)`` stack of vectors as one matrix.
    """
    a = as_working_dtype(a)
    x = as_working_dtype(x)
    m, n = a.shape[-2], a.shape[-1]
    if a.ndim == 2 and x.ndim == 1:
        add_cost(matmul_flops(m, n, 1), matmul_bytes(m, n, 1))
        return a @ x
    batch = batch_count(
        np.broadcast_shapes(tuple(a.shape[:-2]), tuple(x.shape[:-1]))
    )
    add_cost(batch * matmul_flops(m, n, 1), batch * matmul_bytes(m, n, 1))
    return get_namespace(a, x).matmul(a, x[..., None])[..., 0]

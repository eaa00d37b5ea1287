"""Cholesky factorization and covariance whitening operators.

The generalized least-squares formulation (paper §2.1) weights each
equation block by the inverse factor of its noise covariance:
``V_i^T V_i = K_i^{-1}`` and ``W_i^T W_i = L_i^{-1}``.  With the
Cholesky factorization ``K = S S^T`` (``S`` lower triangular), the
choice ``V = S^{-1}`` satisfies the requirement, and *applying* ``V``
to a block is a triangular solve — no inverse is ever formed.  This is
exactly how UltimateKalman (the paper's base implementation) whitens.

:class:`Whitener` also supports covariances given directly in factor
form (``kind="factor"``) or as a scaled identity (``kind="scaled_identity"``,
the paper's benchmark setting ``K_i = L_i = I`` where whitening is the
identity map and costs nothing).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np
from scipy.linalg import cholesky as _cholesky, get_lapack_funcs

from ..parallel.tally import add_cost
from .flops import cholesky_flops, trsm_bytes, trsm_flops
from .triangular import STACK_SLICES, as_working_dtype, solve_lower
from .xp import get_namespace

__all__ = [
    "spd_cholesky",
    "spd_solve",
    "Whitener",
    "stack_whiten",
    "whiten_each",
    "whiten_packed",
]


def whiten_packed(
    whitener: "Whitener", *blocks: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Whiten several row-aligned blocks with *one* triangular solve.

    Packs the blocks column-wise, applies :meth:`Whitener.whiten`
    once, and re-splits to the input shapes (1-D blocks are packed as
    single columns and come back 1-D).  Whitening is column-wise, so
    the result equals whitening each block separately.  The incremental
    filter (:mod:`repro.kalman.ultimate`) whitens one step at a time
    this way; whole problems are whitened in stacks
    (:func:`stack_whiten`).
    """
    cols: list[np.ndarray] = []
    widths: list[int | None] = []
    for block in blocks:
        block = as_working_dtype(np.asarray(block))
        if block.ndim == 1:
            widths.append(None)
            cols.append(block[:, None])
        else:
            widths.append(block.shape[1])
            cols.append(block)
    packed = whitener.whiten(np.concatenate(cols, axis=1))
    out: list[np.ndarray] = []
    at = 0
    for width in widths:
        take = 1 if width is None else width
        piece = packed[:, at : at + take]
        out.append(piece[:, 0] if width is None else piece)
        at += take
    return tuple(out)


def spd_solve(a: np.ndarray, b: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Solve ``a x = b`` for SPD ``a`` via Cholesky (instrumented).

    The conventional Kalman filter's innovation solves go through this
    path, matching the paper's LAPACK ``posv`` usage.
    """
    from scipy.linalg import solve_triangular as _st

    factor = spd_cholesky(a, what)
    y = solve_lower(factor, b)
    k = 1 if np.ndim(b) == 1 else np.shape(b)[1]
    n = factor.shape[0]
    add_cost(trsm_flops(n, k), trsm_bytes(n, k))
    return _st(factor, y, lower=True, trans=1, check_finite=False)


def spd_cholesky(
    a: np.ndarray,
    what: str = "covariance",
    *,
    names: Sequence[str] | None = None,
) -> np.ndarray:
    """Lower-triangular Cholesky factor of an SPD matrix.

    Raises a :class:`numpy.linalg.LinAlgError` with a descriptive
    message when ``a`` is not symmetric positive definite; the paper's
    algorithms require nonsingular noise covariances (§2.2: the
    QR-based methods cannot handle singular ``K_i``/``L_i``).  When
    either check fails on a NaN or infinite entry, or the factor of an
    infinite variance has an infinite diagonal, the error says the
    matrix "has a non-finite entry" instead.

    An ``(N, n, n)`` stack is checked with the same symmetry tolerance
    and factored by the same LAPACK ``potrf`` as a single matrix, so
    slice ``b`` of the result equals ``spd_cholesky(a[b])`` bit for
    bit.  Its error names every failing slice — as ``names[b]`` when
    given (say ``"step 4"``), else by batch index — and carries their
    indices as ``batch_slices``.
    """
    a = as_working_dtype(a)
    if a.ndim == 3:
        return _spd_cholesky_stack(a, what, names)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got {a.shape}")
    if a.shape[0] == 0:
        return np.zeros((0, 0), dtype=a.dtype)
    if not np.allclose(a, a.T, rtol=1e-10, atol=1e-12):
        raise np.linalg.LinAlgError(
            f"{what} {_NONFINITE}"
            if not np.isfinite(a).all()
            else f"{what} must be symmetric"
        )
    try:
        factor = _cholesky(a, lower=True, check_finite=False)
    except Exception as exc:
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError(f"{what} {_NONFINITE}") from exc
        detail = f": {exc}" if isinstance(exc, np.linalg.LinAlgError) else ""
        raise np.linalg.LinAlgError(
            f"{what} is not positive definite{detail}; the QR-based "
            "smoothers require nonsingular noise covariances"
        ) from exc
    # potrf accepts a +inf variance; whitening would then zero its row.
    if not np.isfinite(factor.diagonal()).all():
        raise np.linalg.LinAlgError(f"{what} {_NONFINITE}")
    add_cost(cholesky_flops(a.shape[0]))
    return factor


def _spd_cholesky_stack(
    a: np.ndarray, what: str, names: Sequence[str] | None
) -> np.ndarray:
    """The ``(N, n, n)`` branch of :func:`spd_cholesky`."""
    if a.shape[1] != a.shape[2]:
        raise ValueError(f"{what} must be a stack of square matrices, got {a.shape}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        return np.zeros(a.shape, dtype=a.dtype)
    symmetric = np.isclose(a, np.swapaxes(a, 1, 2), rtol=1e-10, atol=1e-12).all(
        axis=(1, 2)
    )
    if not symmetric.all():
        _raise_nonfinite(a, what, names)
        raise _slice_error("must be symmetric", what, ~symmetric, names)
    # scipy.linalg.cholesky calls this same potrf wrapper on a single
    # matrix; each slice is Fortran-ordered like the factor it returns.
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    factor = np.empty(a.shape, a.dtype).transpose(0, 2, 1)
    failed = np.zeros(a.shape[0], dtype=bool)
    for b, slice_b in enumerate(a):
        factor[b], info = potrf(slice_b, lower=True, clean=True)
        failed[b] = info != 0
    if failed.any():
        _raise_nonfinite(a, what, names)
        raise _slice_error(
            "is not positive definite; the QR-based smoothers require "
            "nonsingular noise covariances",
            what,
            failed,
            names,
        )
    infinite = ~np.isfinite(np.diagonal(factor, axis1=1, axis2=2)).all(axis=1)
    if infinite.any():
        raise _slice_error(_NONFINITE, what, infinite, names)
    add_cost(a.shape[0] * cholesky_flops(a.shape[1]))
    return factor


#: how :func:`spd_cholesky` names a covariance that failed on a NaN or
#: infinite entry (its symmetry or definiteness is then meaningless)
_NONFINITE = "has a non-finite entry"


def _raise_nonfinite(
    a: np.ndarray, what: str, names: Sequence[str] | None
) -> None:
    """Raise naming every slice of ``a`` that holds a non-finite entry."""
    bad = ~np.isfinite(a).all(axis=(1, 2))
    if bad.any():
        raise _slice_error(_NONFINITE, what, bad, names)


def _slice_error(
    problem: str, what: str, bad: np.ndarray, names: Sequence[str] | None
) -> np.linalg.LinAlgError:
    slices = [int(b) for b in np.flatnonzero(bad)]
    where = (
        "at " + ", ".join(names[b] for b in slices)
        if names is not None
        else f"in batch slice(s) {slices}"
    )
    err = np.linalg.LinAlgError(f"{what} {where} {problem}")
    err.batch_slices = slices
    return err


@functools.lru_cache(maxsize=None)
def _lower_mask(n: int) -> np.ndarray:
    mask = np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


class Whitener:
    """Applies ``V = S^{-1}`` for a noise covariance ``K = S S^T``.

    Parameters
    ----------
    cov:
        The covariance matrix (``kind="covariance"``), its lower
        Cholesky factor (``kind="factor"``), or ``None`` with
        ``scale`` for a scaled identity.
    kind:
        One of ``"covariance"``, ``"factor"``, ``"identity"``,
        ``"scaled_identity"``.
    scale:
        For ``"scaled_identity"``: the standard deviation ``s`` such
        that the covariance is ``s^2 I`` (whitening divides by ``s``).
    dim:
        Dimension, required for the identity kinds.
    """

    def __init__(
        self,
        cov: np.ndarray | None = None,
        *,
        kind: str = "covariance",
        scale: float = 1.0,
        dim: int | None = None,
        what: str = "covariance",
    ):
        self.kind = kind
        self.what = what
        if kind == "covariance":
            cov = as_working_dtype(np.asarray(cov))
            self.dim = cov.shape[0]
            self._factor = spd_cholesky(cov, what)
        elif kind == "factor":
            factor = as_working_dtype(np.asarray(cov))
            if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
                raise ValueError("factor must be square")
            if not (factor.diagonal() > 0).all():
                raise np.linalg.LinAlgError(
                    f"{what} factor must have positive diagonal"
                )
            self.dim = factor.shape[0]
            # np.tril with a cached mask: one whitener per linearized
            # equation is built on every nonlinear iteration.
            self._factor = np.where(
                _lower_mask(self.dim), factor, np.zeros(1, factor.dtype)
            )
        elif kind in ("identity", "scaled_identity"):
            if dim is None:
                raise ValueError("dim is required for identity whiteners")
            if kind == "scaled_identity" and scale <= 0:
                raise np.linalg.LinAlgError(f"{what} scale must be positive")
            self.dim = dim
            self.scale = float(scale) if kind == "scaled_identity" else 1.0
            self._factor = None
        else:
            raise ValueError(f"unknown whitener kind {kind!r}")

    @classmethod
    def identity(cls, dim: int) -> "Whitener":
        """Whitener for a unit covariance (a no-op)."""
        return cls(kind="identity", dim=dim)

    @classmethod
    def scaled_identity(cls, dim: int, stddev: float) -> "Whitener":
        """Whitener for covariance ``stddev^2 * I``."""
        return cls(kind="scaled_identity", dim=dim, scale=stddev)

    @property
    def is_unit(self) -> bool:
        """Whether whitening is a no-op (unit covariance)."""
        return self._factor is None and (
            self.kind == "identity" or self.scale == 1.0
        )

    def whiten(self, block: np.ndarray) -> np.ndarray:
        """Return ``V @ block`` (= ``S^{-1} block``, a triangular solve)."""
        block = as_working_dtype(block)
        rows = block.shape[0]
        if rows != self.dim:
            raise ValueError(
                f"cannot whiten {rows} rows with a dimension-{self.dim} "
                f"{self.what} whitener"
            )
        xp = get_namespace(block)
        if self._factor is None:
            if self.kind == "identity" or self.scale == 1.0:
                return xp.copy(block)
            k = 1 if block.ndim == 1 else block.shape[1]
            add_cost(float(rows) * k, trsm_bytes(rows, k))
            if xp is np:
                return block / block.dtype.type(self.scale)
            return block / self.scale
        factor = self._factor
        if xp is np:
            factor = factor.astype(block.dtype, copy=False)
        else:
            factor = xp.astype(xp.asarray(factor), block.dtype, copy=False)
        return solve_lower(factor, block)

    def covariance(self) -> np.ndarray:
        """Materialize the covariance this whitener corresponds to."""
        if self._factor is None:
            return (self.scale**2) * np.eye(self.dim)
        return self._factor @ self._factor.T

    def unwhiten_cost(self) -> float:
        """Flops charged for whitening an ``n``-column block (model use)."""
        if self._factor is None:
            return 0.0
        return trsm_flops(self.dim, self.dim)

    def factor_matrix(self) -> np.ndarray:
        """The lower Cholesky factor ``S`` as an explicit matrix.

        Identity/scaled-identity whiteners materialize ``scale * I``.
        """
        if self._factor is not None:
            return self._factor
        scale = self.scale if self.kind == "scaled_identity" else 1.0
        return scale * np.eye(self.dim)


def stack_whiten(whiteners, stack: np.ndarray) -> np.ndarray:
    """Whiten slice ``b`` of a ``(S, rows, cols)`` stack by ``whiteners[b]``.

    ``whiteners[b]`` is a :class:`Whitener` or the lower Cholesky factor
    of slice ``b``'s covariance, and ``whiteners`` may be an ``(S, rows,
    rows)`` stack of such factors.  Each slice takes the kernel its own
    whitener selects: nothing for a unit covariance, one division for a
    scaled identity, and for the slices that carry a Cholesky factor one
    batched triangular solve per
    :data:`~repro.linalg.triangular.STACK_SLICES` of them.  Slice ``b``
    therefore depends on ``stack[b]`` and ``whiteners[b]`` alone: it
    equals ``whiteners[b].whiten(stack[b])`` exactly for the identity
    kinds and to roundoff for a factor (a batched general solve stands
    in for the 2-D triangular one), and each slice is charged what that
    call charges.

    ``stack`` is a host array the caller has just built and owns; it is
    whitened in place and returned, so unit slices cost no copy.
    """
    if stack.ndim != 3:
        raise ValueError(
            f"expected a (S, rows, cols) stack, got {stack.shape}"
        )
    count, rows, cols = stack.shape
    if count != len(whiteners):
        raise ValueError(
            f"{len(whiteners)} whiteners cannot whiten a stack of "
            f"{count} slices"
        )
    if isinstance(whiteners, np.ndarray):
        if whiteners.shape[1:] != (rows, rows):
            raise ValueError(
                f"cannot whiten {rows} rows with factors of shape "
                f"{whiteners.shape[1:]}"
            )
        if rows and cols:
            for lo in range(0, count, STACK_SLICES):
                part = slice(lo, lo + STACK_SLICES)
                stack[part] = solve_lower(
                    whiteners[part].astype(stack.dtype, copy=False), stack[part]
                )
        return stack
    scaled, scales, solved, factors = [], [], [], []
    for b, w in enumerate(whiteners):
        factor = isinstance(w, np.ndarray)
        dim = w.shape[0] if factor else w.dim
        if dim != rows:
            what = "factor" if factor else f"{w.what} whitener"
            raise ValueError(
                f"cannot whiten {rows} rows with a dimension-{dim} {what}"
            )
        if factor:
            solved.append(b)
            factors.append(w)
        elif w._factor is not None:
            solved.append(b)
            factors.append(w._factor)
        elif not w.is_unit:
            scaled.append(b)
            scales.append(w.scale)
    if rows == 0 or cols == 0:
        return stack
    if scaled:
        add_cost(
            float(len(scaled)) * rows * cols,
            len(scaled) * trsm_bytes(rows, cols),
        )
        stack[scaled] /= np.asarray(scales, dtype=stack.dtype)[:, None, None]
    for lo in range(0, len(solved), STACK_SLICES):
        part = solved[lo : lo + STACK_SLICES]
        factor = np.stack(factors[lo : lo + STACK_SLICES])
        stack[part] = solve_lower(
            factor.astype(stack.dtype, copy=False), stack[part]
        )
    return stack


def whiten_each(factors: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Whiten row ``b`` of an ``(N, n)`` stack with ``factors[b]``.

    With ``factors = spd_cholesky(covs)``, row ``b`` of the result is,
    bit for bit, what ``Whitener(covs[b]).whiten(vectors[b])`` returns:
    the same LAPACK triangular solve, one slice at a time.
    (:func:`stack_whiten` instead solves its factor slices with one
    batched general solve, which is faster but rounds differently.)
    """
    vectors = as_working_dtype(vectors)
    count, n = vectors.shape
    if count == 0 or n == 0:
        return vectors.copy()
    factors = factors.astype(vectors.dtype, copy=False)
    (trtrs,) = get_lapack_funcs(("trtrs",), (factors, vectors))
    out = np.empty_like(vectors)
    for b in range(count):
        out[b], info = trtrs(factors[b], vectors[b], lower=True)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"whitening factor in batch slice {b} is singular"
            )
    add_cost(count * trsm_flops(n, 1), count * trsm_bytes(n, 1))
    return out


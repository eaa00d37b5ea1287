"""Compact Householder QR with implicit application of ``Q``/``Q^T``.

The odd-even factorization (paper §3) never needs an explicit ``Q``
matrix: every elimination step factors a tall stack of two or three
blocks and immediately applies ``Q^T`` to the coupled blocks and to the
right-hand side.  Following the paper's implementation strategy (C
calling LAPACK through the standard interface), we keep the factor in
the compact ``geqrf`` form (Householder vectors below the diagonal plus
``tau`` scalars) and apply it with ``ormqr``, which is both faster and
more numerically reliable than forming ``Q`` explicitly.

A reference pure-NumPy Householder implementation is included and used
by the property-based tests as an independent oracle for the LAPACK
path.

The batched kernels (:func:`batched_qr` / :func:`batched_qr_apply`)
factor a stack of ``B`` independent ``m x n`` matrices — laid out as a
``(B, m, n)`` array — with *one* vectorized ``np.linalg.qr`` call
instead of ``B`` Python-level :class:`QRFactor` constructions.  This is
the kernel that lets :mod:`repro.batch` smooth many independent
sequences at once: the thousands of tiny per-block QRs of the odd-even
recursion collapse into a few large stacked LAPACK calls.  The
per-slice :class:`QRFactor` loop remains available as a fallback
(``method="loop"``) and serves as the oracle in the property-based
tests.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..parallel.tally import add_cost
from .flops import qr_apply_flops, qr_bytes, qr_flops
from .triangular import as_working_dtype
from .xp import get_namespace

__all__ = [
    "QRFactor",
    "BatchedQRFactor",
    "batched_qr",
    "batched_qr_apply",
    "qr_factor",
    "qr_r_only",
    "householder_qr_numpy",
    "stack_blocks",
]


def _as_matrix(a: np.ndarray) -> np.ndarray:
    a = as_working_dtype(a)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


class QRFactor:
    """Householder QR of a real matrix in compact (``geqrf``) form.

    Parameters
    ----------
    a:
        The ``m x n`` matrix to factor.  ``m = 0`` and ``n = 0`` edge
        cases are supported (they arise from steps without observations
        in the Kalman matrices).

    Notes
    -----
    ``Q`` is the full ``m x m`` orthogonal factor; :meth:`apply_qt`
    computes ``Q^T C`` for any ``C`` with ``m`` rows without forming
    ``Q``.  The upper-triangular factor is exposed as :attr:`r` with
    ``min(m, n)`` rows.
    """

    def __init__(self, a: np.ndarray):
        a = _as_matrix(a)
        self.m, self.n = a.shape
        self._nref = min(self.m, self.n)
        if self._nref == 0:
            # Nothing to reduce: Q = I, R = a.
            self._qr = a.copy()
            self._tau = np.empty(0)
        else:
            (geqrf,) = get_lapack_funcs(("geqrf",), (a,))
            qr, tau, _work, info = geqrf(a, lwork=-1)
            qr, tau, _work, info = geqrf(a, lwork=int(_work[0].real))
            if info != 0:  # pragma: no cover - LAPACK failure is exotic
                raise np.linalg.LinAlgError(f"geqrf failed with info={info}")
            self._qr = qr
            self._tau = tau
        add_cost(qr_flops(self.m, self.n), qr_bytes(self.m, self.n))

    @property
    def r(self) -> np.ndarray:
        """Upper-triangular (or trapezoidal) factor, ``min(m, n) x n``."""
        return np.triu(self._qr[: self._nref, :])

    def r_square(self) -> np.ndarray:
        """The leading ``n x n`` triangular factor; requires ``m >= n``."""
        if self.m < self.n:
            raise np.linalg.LinAlgError(
                f"QR of a {self.m}x{self.n} matrix has no square R factor"
            )
        return np.triu(self._qr[: self.n, :])

    def _apply(self, c: np.ndarray, trans: str) -> np.ndarray:
        c = as_working_dtype(c)
        vector = c.ndim == 1
        c2 = c[:, None] if vector else c
        if c2.shape[0] != self.m:
            raise ValueError(
                f"cannot apply Q^T from a {self.m}x{self.n} QR to "
                f"{c2.shape[0]} rows"
            )
        if self._nref == 0 or c2.shape[1] == 0:
            out = c2.copy()
        else:
            # ormqr takes only the reflector columns (m x nref); for
            # wide factors the trailing columns of the compact QR hold
            # R, not reflectors.
            refl = np.asfortranarray(self._qr[:, : self._nref])
            (ormqr,) = get_lapack_funcs(("ormqr",), (refl, c2))
            cq, _work, info = ormqr(
                "L", trans, refl, self._tau, np.asfortranarray(c2), lwork=-1
            )
            cq, _work, info = ormqr(
                "L",
                trans,
                refl,
                self._tau,
                np.asfortranarray(c2),
                lwork=int(_work[0].real),
            )
            if info != 0:  # pragma: no cover
                raise np.linalg.LinAlgError(f"ormqr failed with info={info}")
            out = cq
        add_cost(
            qr_apply_flops(self.m, self._nref, c2.shape[1]),
            qr_bytes(self.m, c2.shape[1]),
        )
        return out[:, 0] if vector else out

    def apply_qt(self, c: np.ndarray) -> np.ndarray:
        """Return ``Q^T @ c`` without forming ``Q`` (``dormqr``)."""
        return self._apply(c, "T")

    def apply_q(self, c: np.ndarray) -> np.ndarray:
        """Return ``Q @ c`` without forming ``Q``."""
        return self._apply(c, "N")

    def q(self) -> np.ndarray:
        """Materialize the full ``m x m`` orthogonal factor (tests only)."""
        return self.apply_q(np.eye(self.m))


def qr_r_only(a: np.ndarray) -> np.ndarray:
    """Return only the triangular factor of ``a`` (``min(m,n) x n``).

    Used by Stage C of the odd-even algorithm when the orthogonal
    factor is still needed for the right-hand side; prefer
    :class:`QRFactor` there.  This helper serves callers that compress
    a block without any attached RHS.
    """
    return QRFactor(a).r


def stack_blocks(blocks: list[np.ndarray]) -> np.ndarray:
    """Vertically stack row blocks, tolerating empty (0-row) blocks."""
    keep = [b for b in blocks if b.shape[0] > 0]
    if not keep:
        ncols = blocks[0].shape[1] if blocks else 0
        return np.zeros((0, ncols))
    return np.vstack(keep)


class BatchedQRFactor:
    """Householder QR of a ``(B, m, n)`` stack of independent matrices.

    The stacked path factors all ``B`` slices with one
    ``np.linalg.qr(..., mode="complete")`` call (LAPACK ``geqrf`` +
    ``orgqr`` under the hood, vectorized over the leading axis) and
    keeps the full ``(B, m, m)`` orthogonal factors so that
    :meth:`apply_qt` is a single batched GEMM.  Slice ``b`` of every
    attribute equals the corresponding :class:`QRFactor` output of
    slice ``b`` of the input (same LAPACK reflectors, hence the same
    sign convention).

    Parameters
    ----------
    a:
        The ``(B, m, n)`` stack.  ``B = 0``, ``m = 0``, ``n = 0`` and
        wide (``m < n``) slices are all supported.
    method:
        ``"stacked"`` forces the vectorized ``np.linalg.qr`` path,
        ``"loop"`` forces the per-slice :class:`QRFactor` LAPACK loop
        (the oracle), ``"auto"`` picks stacked whenever there is
        anything to reduce.

    Notes
    -----
    Flop/byte costs are charged as ``B`` times the per-slice
    ``geqrf``/``ormqr`` counts, for both methods, so recorded task
    graphs carry the same arithmetic totals whether a phase ran
    batched or slice-by-slice (kernel *call* counts still differ —
    the loop method makes ``B`` calls where the stacked method makes
    one).
    """

    def __init__(self, a: np.ndarray, method: str = "auto"):
        a = as_working_dtype(a)
        xp = get_namespace(a)
        self._xp = xp
        if a.ndim != 3:
            raise ValueError(
                f"expected a (B, m, n) stack, got array of ndim {a.ndim}"
            )
        if method not in ("auto", "stacked", "loop"):
            raise ValueError(f"unknown batched QR method {method!r}")
        if method == "loop" and not isinstance(a, np.ndarray):
            raise TypeError(
                "method='loop' runs the per-slice LAPACK oracle and "
                "requires numpy arrays; foreign array backends use the "
                "stacked method"
            )
        self.batch, self.m, self.n = a.shape
        self._nref = min(self.m, self.n)
        if self._nref == 0 or self.batch == 0:
            # Nothing to reduce in any slice: Q = I, R = a.
            self._q = xp.copy(
                xp.broadcast_to(
                    xp.eye(self.m, dtype=a.dtype),
                    (self.batch, self.m, self.m),
                )
            )
            self._r = xp.copy(a)
        elif method == "loop":
            qs = np.empty((self.batch, self.m, self.m), dtype=a.dtype)
            rs = np.empty((self.batch, self.m, self.n), dtype=a.dtype)
            for b in range(self.batch):
                qf = QRFactor(a[b])
                qs[b] = qf.apply_q(np.eye(self.m, dtype=a.dtype))
                rs[b, : self._nref] = qf.r
                rs[b, self._nref :] = 0.0
            self._q = qs
            self._r = rs
            # The per-slice QRFactor calls tallied the factorization
            # cost; cancel the apply_q tallies so both methods charge
            # the same flop/byte totals — materializing Q here is an
            # implementation detail of the oracle path, not work the
            # per-sequence algorithm performs.
            add_cost(
                -self.batch * qr_apply_flops(self.m, self._nref, self.m),
                -self.batch * qr_bytes(self.m, self.m),
            )
            return
        else:
            self._q, self._r = xp.linalg.qr(a, mode="complete")
        add_cost(
            self.batch * qr_flops(self.m, self.n),
            self.batch * qr_bytes(self.m, self.n),
        )

    @property
    def r(self) -> np.ndarray:
        """Stacked triangular factors, ``(B, min(m, n), n)``.

        Both factoring methods already store exact zeros below the
        diagonal, so a copy of the leading rows replaces a ``triu``
        pass (and keeps the full ``(B, m, n)`` array from staying
        alive behind the result).
        """
        return self._xp.copy(self._r[:, : self._nref, :])

    def r_square(self) -> np.ndarray:
        """The leading ``(B, n, n)`` triangular factors; needs ``m >= n``."""
        if self.m < self.n:
            raise np.linalg.LinAlgError(
                f"QR of a {self.m}x{self.n} stack has no square R factor"
            )
        return self._xp.triu(self._r[:, : self.n, :])

    def _apply(self, c: np.ndarray, trans: str) -> np.ndarray:
        c = as_working_dtype(c)
        vector = c.ndim == 2
        c2 = c[..., None] if vector else c
        if c2.ndim != 3 or tuple(c2.shape[:2]) != (self.batch, self.m):
            raise ValueError(
                f"cannot apply Q^T from a ({self.batch}, {self.m}, "
                f"{self.n}) batched QR to an array of shape {c.shape}"
            )
        xp = self._xp
        q = self._q
        out = xp.matmul(xp.swapaxes(q, -1, -2) if trans == "T" else q, c2)
        add_cost(
            self.batch
            * qr_apply_flops(self.m, self._nref, c2.shape[-1]),
            self.batch * qr_bytes(self.m, c2.shape[-1]),
        )
        return out[..., 0] if vector else out

    def apply_qt(self, c: np.ndarray) -> np.ndarray:
        """Return ``Q^T @ c`` per slice; ``c`` is ``(B, m, p)`` or ``(B, m)``."""
        return self._apply(c, "T")

    def apply_q(self, c: np.ndarray) -> np.ndarray:
        """Return ``Q @ c`` per slice."""
        return self._apply(c, "N")

    def q(self) -> np.ndarray:
        """The full ``(B, m, m)`` orthogonal factors (tests only)."""
        return self._xp.copy(self._q)


def batched_qr(a: np.ndarray, method: str = "auto") -> BatchedQRFactor:
    """Factor a ``(B, m, n)`` stack; see :class:`BatchedQRFactor`."""
    return BatchedQRFactor(a, method=method)


def batched_qr_apply(
    factor: BatchedQRFactor, c: np.ndarray, trans: str = "T"
) -> np.ndarray:
    """Apply ``Q^T`` (default) or ``Q`` of a batched factor to ``c``."""
    if trans not in ("T", "N"):
        raise ValueError(f"trans must be 'T' or 'N', got {trans!r}")
    return factor._apply(c, trans)


def qr_factor(a: np.ndarray) -> "QRFactor | BatchedQRFactor":
    """Dispatch on rank: 2-D to :class:`QRFactor`, 3-D to the batch kernel.

    This is the single entry point the odd-even stages call, which is
    how one code path in :mod:`repro.core.oddeven_qr` serves both the
    per-sequence and the batched smoothers.
    """
    a = as_working_dtype(a)
    if a.ndim <= 2:
        return QRFactor(a)
    return BatchedQRFactor(a)


def householder_qr_numpy(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference textbook Householder QR; returns ``(Q, R)`` with full Q.

    Implemented from scratch (no LAPACK) so the property-based tests can
    cross-validate the production path against an independent algorithm.
    Uses the standard sign choice ``v = x + sign(x_0) ||x|| e_1`` for
    numerical stability.
    """
    a = _as_matrix(a).copy()
    m, n = a.shape
    q = np.eye(m)
    for j in range(min(m, n)):
        x = a[j:, j]
        normx = np.linalg.norm(x)
        if normx == 0.0:
            continue
        alpha = -np.sign(x[0]) * normx if x[0] != 0 else -normx
        v = x.copy()
        v[0] -= alpha
        vnorm2 = v @ v
        if vnorm2 == 0.0:
            continue
        # Apply the reflector I - 2 v v^T / (v^T v) to the trailing matrix
        # and accumulate it into Q.
        w = (a[j:, j:].T @ v) * (2.0 / vnorm2)
        a[j:, j:] -= np.outer(v, w)
        wq = (q[:, j:] @ v) * (2.0 / vnorm2)
        q[:, j:] -= np.outer(wq, v)
    return q, np.triu(a)

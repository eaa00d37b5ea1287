"""Array-namespace shim for the stacked (batched) kernels.

Every stacked kernel — batched Householder QR, broadcast triangular
solves, the batch axes of odd-even Stage A/B/C, back-substitution,
SelInv, and the associative-scan element algebra — routes its array
calls through a *namespace* obtained from
:func:`get_namespace` instead of a hard ``import numpy as np``.  That
one indirection is what lets the same kernel code run on torch tensors
when the user asks for them via ``EstimatorConfig(array_module=...)``.
Three backends exist: numpy, the routing-proof "mirror", and torch.

Design rules, in order of importance:

* **numpy is the oracle.**  It is always available, always the
  default, and the correctness baseline every other backend is tested
  against.  A numpy-only environment never imports (or needs) any
  optional backend.
* **torch is lazy.**  It is imported only when explicitly requested,
  and a missing module raises an ``ImportError`` that names the
  backend and how to get it.
* **Namespace calls only.**  torch tensors implement ``__array__``
  but *not* ``__array_function__``, so ``np.swapaxes(tensor)``
  silently converts to numpy.  Routed kernels therefore never call
  ``np.*`` on a potentially-foreign array, and never use the
  ``.copy()`` / ``.astype()`` *methods* (torch spells them ``clone``
  / ``to``): they use ``xp.copy(a)`` / ``xp.astype(a, dt)``.
* **The "mirror" backend exists to prove routing.**  It is numpy in
  disguise — an ``np.ndarray`` subclass plus a call-counting
  namespace proxy — so it is installed everywhere, numerically
  bit-identical to numpy, and its counters fail the test suite if a
  kernel regresses to a hard ``np.*`` call.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ArrayBackend",
    "MirrorArray",
    "available_backends",
    "backend_of",
    "get_backend",
    "get_namespace",
    "mirror_call_counts",
    "reset_mirror_counts",
    "to_host",
]


class ArrayBackend:
    """One selectable array backend: a namespace plus conversions.

    ``xp`` is the numpy-like namespace routed kernels call into;
    ``from_numpy`` / ``to_numpy`` move data across the host boundary;
    ``handles(a)`` answers "does this array belong to me?".
    """

    def __init__(self, name: str, xp, *, from_numpy, to_numpy, handles):
        self.name = name
        self.xp = xp
        self.from_numpy = from_numpy
        self.to_numpy = to_numpy
        self.handles = handles

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArrayBackend({self.name!r})"


# ---------------------------------------------------------------------------
# mirror: numpy wearing a disguise, with call counters
# ---------------------------------------------------------------------------


class MirrorArray(np.ndarray):
    """``np.ndarray`` subclass marking arrays owned by the mirror backend.

    Numerically it *is* numpy — every kernel that runs on it produces
    bit-identical results to the plain-numpy run — but its distinct
    type exercises the full backend dispatch, and the counting
    namespace below records which kernels actually routed through it.
    """


def _as_mirror(x):
    if isinstance(x, np.ndarray) and not isinstance(x, MirrorArray):
        return x.view(MirrorArray)
    if isinstance(x, tuple):
        return tuple(_as_mirror(v) for v in x)
    return x


class _CountingNamespace:
    """numpy proxy that counts calls and re-wraps results as mirror.

    Attribute access falls through to numpy (so dtypes, ``errstate``,
    constants all work); callables are wrapped to bump a per-name
    counter and re-view ``ndarray`` results as :class:`MirrorArray`.
    """

    def __init__(self, module, counts, prefix=""):
        self._module = module
        self._counts = counts
        self._prefix = prefix

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if name == "linalg":
            return _CountingNamespace(value, self._counts, "linalg.")
        if isinstance(value, type) or not callable(value):
            return value
        key = self._prefix + name
        counts_ = self._counts

        def wrapped(*args, **kwargs):
            counts_[key] = counts_.get(key, 0) + 1
            return _as_mirror(value(*args, **kwargs))

        wrapped.__name__ = name
        return wrapped


_MIRROR_COUNTS: dict[str, int] = {}


def mirror_call_counts() -> dict[str, int]:
    """Snapshot of ``{qualified numpy call: count}`` on the mirror backend."""
    return dict(_MIRROR_COUNTS)


def reset_mirror_counts() -> None:
    _MIRROR_COUNTS.clear()


# ---------------------------------------------------------------------------
# torch adapter: numpy-flavored names over torch semantics
# ---------------------------------------------------------------------------


class _TorchLinalg:
    def __init__(self, torch):
        self._torch = torch

    def qr(self, a, mode="reduced"):
        return self._torch.linalg.qr(a, mode=mode)

    def solve(self, a, b):
        return self._torch.linalg.solve(a, b)

    def cholesky(self, a):
        return self._torch.linalg.cholesky(a)


class _TorchNamespace:
    """The numpy surface the routed kernels need, spelled in torch.

    Only the calls the kernels actually make are adapted — this is a
    shim, not an array-API implementation.  ``axis`` maps to ``dim``,
    ``astype`` to ``Tensor.to``, ``copy`` to ``clone``.
    """

    def __init__(self, torch):
        self._torch = torch
        self.linalg = _TorchLinalg(torch)
        self._dtype_map = {
            np.dtype(np.float64): torch.float64,
            np.dtype(np.float32): torch.float32,
            np.dtype(np.float16): torch.float16,
            np.dtype(np.complex64): torch.complex64,
            np.dtype(np.complex128): torch.complex128,
            np.dtype(np.int64): torch.int64,
            np.dtype(np.int32): torch.int32,
            np.dtype(np.bool_): torch.bool,
        }

    def _dt(self, dtype):
        if dtype is None or isinstance(dtype, self._torch.dtype):
            return dtype
        return self._dtype_map[np.dtype(dtype)]

    def asarray(self, a, dtype=None):
        return self._torch.as_tensor(a, dtype=self._dt(dtype))

    def zeros(self, shape, dtype=None):
        if isinstance(shape, int):
            shape = (shape,)
        return self._torch.zeros(tuple(shape), dtype=self._dt(dtype))

    def eye(self, n, dtype=None):
        return self._torch.eye(n, dtype=self._dt(dtype))

    def copy(self, a):
        return a.clone()

    def astype(self, a, dtype, copy=True):
        out = a.to(self._dt(dtype))
        return out.clone() if copy and out is a else out

    def concatenate(self, seq, axis=0):
        return self._torch.cat(tuple(seq), dim=axis)

    def stack(self, seq, axis=0):
        return self._torch.stack(tuple(seq), dim=axis)

    def broadcast_to(self, a, shape):
        return a.broadcast_to(tuple(shape))

    def swapaxes(self, a, axis1, axis2):
        return self._torch.swapaxes(a, axis1, axis2)

    def triu(self, a, k=0):
        return self._torch.triu(a, diagonal=k)

    def matmul(self, a, b):
        return self._torch.matmul(a, b)

    def sum(self, a, axis=None):
        if axis is None:
            return self._torch.sum(a)
        return self._torch.sum(a, dim=axis)

    def abs(self, a):
        return self._torch.abs(a)

    def diagonal(self, a, offset=0, axis1=0, axis2=1):
        return self._torch.diagonal(a, offset=offset, dim1=axis1, dim2=axis2)

    def zeros_like(self, a):
        return self._torch.zeros_like(a)

    def result_type(self, *xs):
        dts = []
        for x in xs:
            dts.append(x.dtype if hasattr(x, "dtype") else
                       self._dt(np.dtype(type(x) if not isinstance(x, type) else x)))
        out = dts[0]
        for dt in dts[1:]:
            out = self._torch.promote_types(out, dt)
        return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _make_numpy_backend() -> ArrayBackend:
    return ArrayBackend(
        "numpy",
        np,
        from_numpy=np.asarray,
        to_numpy=np.asarray,
        handles=lambda a: type(a) is np.ndarray,
    )


def _make_mirror_backend() -> ArrayBackend:
    xp = _CountingNamespace(np, _MIRROR_COUNTS)
    return ArrayBackend(
        "mirror",
        xp,
        from_numpy=lambda a: np.asarray(a).view(MirrorArray),
        to_numpy=lambda a: np.asarray(a).view(np.ndarray),
        handles=lambda a: isinstance(a, MirrorArray),
    )


def _make_torch_backend() -> ArrayBackend:
    try:
        import torch
    except ImportError as exc:  # pragma: no cover - depends on env
        raise ImportError(
            "array backend 'torch' requested but PyTorch is not "
            "installed; pip install torch (CPU builds suffice) or use "
            "array_module='numpy'"
        ) from exc
    return ArrayBackend(
        "torch",
        _TorchNamespace(torch),
        from_numpy=lambda a: torch.from_numpy(np.ascontiguousarray(a)),
        to_numpy=lambda a: a.detach().cpu().numpy(),
        handles=lambda a: isinstance(a, torch.Tensor),
    )


_FACTORIES = {
    "numpy": _make_numpy_backend,
    "mirror": _make_mirror_backend,
    "torch": _make_torch_backend,
}

#: instantiated backends, keyed by name.  numpy and mirror are free to
#: build and always registered so :func:`backend_of` can dispatch on
#: their array types without any lazy-import bookkeeping.
_ACTIVE: dict[str, ArrayBackend] = {}


def _active() -> dict[str, ArrayBackend]:
    if "numpy" not in _ACTIVE:
        _ACTIVE["numpy"] = _make_numpy_backend()
        _ACTIVE["mirror"] = _make_mirror_backend()
    return _ACTIVE


def available_backends() -> list[str]:
    """Backend names :func:`get_backend` understands (installed or not)."""
    return sorted(_FACTORIES)


def get_backend(spec=None) -> ArrayBackend:
    """Resolve ``spec`` to an :class:`ArrayBackend`.

    ``None`` means numpy.  Strings name a registered backend (lazy
    import; a clear ``ImportError`` if the module is missing).  An
    already-resolved :class:`ArrayBackend` passes through.  A module
    object (``import torch; get_backend(torch)``) resolves by module
    name, so ``EstimatorConfig(array_module=torch)`` reads naturally.
    """
    if spec is None:
        return _active()["numpy"]
    if isinstance(spec, ArrayBackend):
        return spec
    if isinstance(spec, str):
        name = spec
    else:
        name = getattr(spec, "__name__", None)
        if name is None:
            raise TypeError(
                "array_module must be a backend name, module, or "
                f"ArrayBackend, got {type(spec).__name__}"
            )
    active = _active()
    if name in active:
        return active[name]
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown array backend {name!r}; choose from "
            f"{available_backends()}"
        )
    backend = factory()
    active[name] = backend
    return backend


def backend_of(a) -> ArrayBackend | None:
    """The instantiated backend owning ``a``, or ``None`` for host data.

    Only *instantiated* backends are consulted — checking whether an
    array is a torch tensor must not import torch — so foreign arrays
    can only appear after the user selected their backend, at which
    point it is registered.
    """
    if type(a) is np.ndarray:
        return _active()["numpy"]
    for backend in _active().values():
        if backend.name != "numpy" and backend.handles(a):
            return backend
    if isinstance(a, np.ndarray):
        return _active()["numpy"]
    return None


def get_namespace(*arrays):
    """The namespace the routed kernels should use for ``arrays``.

    Returns the namespace of the first array owned by a non-numpy
    backend, else numpy itself.  The plain-``ndarray`` fast path keeps
    the numpy-only hot loops at a single ``type`` check per operand.
    """
    for a in arrays:
        if type(a) is np.ndarray:
            continue
        backend = backend_of(a)
        if backend is not None and backend.name != "numpy":
            return backend.xp
    return np


def to_host(a):
    """``a`` as a plain host ``np.ndarray`` (identity for numpy data)."""
    if type(a) is np.ndarray:
        return a
    backend = backend_of(a)
    if backend is None:
        return np.asarray(a)
    return backend.to_numpy(a)

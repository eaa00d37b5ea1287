"""The array-namespace shim: registry, dispatch, and the mirror probe."""

import importlib.util

import numpy as np
import pytest

from repro.linalg.xp import (
    ArrayBackend,
    MirrorArray,
    available_backends,
    backend_of,
    get_backend,
    get_namespace,
    mirror_call_counts,
    reset_mirror_counts,
    to_host,
)


class TestRegistry:
    def test_numpy_is_the_default(self):
        assert get_backend(None).name == "numpy"
        assert get_backend("numpy").xp is np

    def test_known_names_are_listed(self):
        assert available_backends() == ["mirror", "numpy", "torch"]

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_backend("tensorflow")
        with pytest.raises(ValueError, match="numpy"):
            get_backend("tensorflow")

    def test_backend_instance_passes_through(self):
        backend = get_backend("mirror")
        assert get_backend(backend) is backend

    def test_module_object_resolves_by_name(self):
        assert get_backend(np).name == "numpy"

    def test_non_module_non_string_rejected(self):
        with pytest.raises(TypeError, match="array_module"):
            get_backend(42)

    @pytest.mark.skipif(
        importlib.util.find_spec("torch") is not None,
        reason="torch installed: the missing-module path cannot fire",
    )
    def test_missing_torch_error_names_backend_and_remedy(self):
        with pytest.raises(ImportError, match="torch"):
            get_backend("torch")
        with pytest.raises(ImportError, match="pip install torch"):
            get_backend("torch")

    def test_resolution_is_cached(self):
        assert get_backend("mirror") is get_backend("mirror")


class TestDispatch:
    def test_plain_ndarray_maps_to_numpy(self):
        a = np.zeros(3)
        assert backend_of(a).name == "numpy"
        assert get_namespace(a) is np

    def test_mirror_array_maps_to_mirror(self):
        m = get_backend("mirror").from_numpy(np.zeros(3))
        assert isinstance(m, MirrorArray)
        assert backend_of(m).name == "mirror"
        assert get_namespace(m) is get_backend("mirror").xp

    def test_first_foreign_array_wins(self):
        a = np.zeros(3)
        m = get_backend("mirror").from_numpy(np.zeros(3))
        assert get_namespace(a, m) is get_backend("mirror").xp

    def test_all_host_arrays_stay_numpy(self):
        assert get_namespace(np.zeros(3), np.ones(3)) is np

    def test_unknown_object_has_no_backend(self):
        assert backend_of([1.0, 2.0]) is None

    def test_to_host_round_trip(self):
        m = get_backend("mirror").from_numpy(np.arange(4.0))
        host = to_host(m)
        assert type(host) is np.ndarray
        np.testing.assert_array_equal(host, np.arange(4.0))
        a = np.zeros(3)
        assert to_host(a) is a


class TestMirrorCounters:
    def test_namespace_calls_are_counted(self):
        reset_mirror_counts()
        xp = get_backend("mirror").xp
        xp.zeros((2, 2))
        xp.matmul(np.eye(2), np.eye(2))
        xp.linalg.qr(np.eye(2))
        counts = mirror_call_counts()
        assert counts["zeros"] == 1
        assert counts["matmul"] == 1
        assert counts["linalg.qr"] == 1
        reset_mirror_counts()
        assert mirror_call_counts() == {}

    def test_results_are_mirror_arrays(self):
        xp = get_backend("mirror").xp
        out = xp.matmul(np.eye(2), np.eye(2))
        assert isinstance(out, MirrorArray)
        q, r = xp.linalg.qr(np.eye(2))
        assert isinstance(q, MirrorArray) and isinstance(r, MirrorArray)

    def test_mirror_is_bit_identical_to_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 4))
        xp = get_backend("mirror").xp
        q, r = xp.linalg.qr(get_backend("mirror").from_numpy(a))
        q_np, r_np = np.linalg.qr(a)
        np.testing.assert_array_equal(np.asarray(q), q_np)
        np.testing.assert_array_equal(np.asarray(r), r_np)

    def test_non_callables_fall_through(self):
        xp = get_backend("mirror").xp
        assert xp.float64 is np.float64
        assert xp.newaxis is np.newaxis


class TestArrayBackendContract:
    def test_custom_backend_fields(self):
        backend = ArrayBackend(
            "custom",
            np,
            from_numpy=np.asarray,
            to_numpy=np.asarray,
            handles=lambda a: False,
        )
        assert backend.name == "custom"
        assert get_backend(backend) is backend

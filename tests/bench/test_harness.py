"""Tests for harness utilities."""

import json

from repro.bench.harness import (
    ascii_curve,
    format_series_table,
    results_dir,
    save_results,
)


class TestFormatting:
    def test_series_table(self):
        table = format_series_table(
            "Title",
            "cores",
            [1, 2],
            {"algo-a": {1: 1.0, 2: 0.5}, "algo-b": {1: 2.0}},
        )
        assert "Title" in table
        assert "algo-a" in table
        assert "0.5" in table
        assert "-" in table  # missing point for algo-b at 2

    def test_ascii_curve(self):
        art = ascii_curve({1: 1.0, 2: 2.0}, label="x")
        assert "#" in art
        assert art.splitlines()[0] == "x"

    def test_ascii_curve_empty(self):
        assert "(no data)" in ascii_curve({}, label="y")


class TestPersistence:
    def test_save_results_roundtrip(self):
        import numpy as np

        path = save_results(
            "_test_artifact", {"a": np.float64(1.5), "b": np.arange(3)}
        )
        data = json.loads(path.read_text())
        assert data["a"] == 1.5
        assert data["b"] == [0, 1, 2]
        path.unlink()

    def test_results_dir_exists(self):
        assert results_dir().is_dir()

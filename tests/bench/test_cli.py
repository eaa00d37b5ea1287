"""Smoke tests for the figure-regeneration CLI (`python -m repro.bench.figures`)."""

import pytest

from repro.bench import figures


@pytest.fixture(autouse=True)
def scratch_results(tmp_path, monkeypatch):
    """Write the CLI's records under ``tmp_path``: ``stability`` would
    otherwise rewrite the committed record with this host's roundoff."""
    monkeypatch.setattr("repro.bench.harness.results_dir", lambda: tmp_path)


class TestMain:
    def test_fig1(self, capsys):
        figures.main("fig1")
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "[]" in out  # the ASCII structure

    def test_stability(self, capsys):
        figures.main("stability")
        out = capsys.readouterr().out
        assert "Stability" in out
        assert "normal-eq" in out

    def test_unknown_selector_is_noop(self, capsys):
        figures.main("nonexistent-figure")
        assert capsys.readouterr().out == ""


class TestResultsArtifacts:
    def test_fig1_saved(self, capsys):
        figures.main("fig1")
        capsys.readouterr()
        from repro.bench.harness import results_dir

        assert (results_dir() / "fig1.json").exists()

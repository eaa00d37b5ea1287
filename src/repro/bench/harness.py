"""Table and series utilities shared by the figure benchmarks.

The paper plots time-vs-cores and speedup-vs-cores series; this module
provides the ASCII renderings of those series and JSON persistence
under ``results/`` so the README can cite stable numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = [
    "format_series_table",
    "ascii_curve",
    "save_results",
    "results_dir",
]


def format_series_table(
    title: str,
    x_label: str,
    x_values: list,
    series: dict[str, dict],
    unit: str = "s",
    fmt: str = "{:.4g}",
) -> str:
    """Render ``{series name: {x: y}}`` as a paper-style table."""
    lines = [title, ""]
    name_w = max([len(x_label)] + [len(n) for n in series]) + 2
    header = f"{x_label:<{name_w}}" + "".join(
        f"{str(x):>12}" for x in x_values
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, values in series.items():
        row = f"{name:<{name_w}}"
        for x in x_values:
            v = values.get(x)
            row += f"{'-':>12}" if v is None else f"{fmt.format(v):>12}"
        lines.append(row)
    lines.append(f"(values in {unit})")
    return "\n".join(lines)


def ascii_curve(
    values: dict, width: int = 48, label: str = ""
) -> str:
    """One-line-per-point bar chart for quick visual shape checks."""
    if not values:
        return f"{label}: (no data)"
    vmax = max(values.values())
    lines = [label] if label else []
    for x, v in values.items():
        bar = "#" * max(1, int(round(width * v / vmax))) if vmax > 0 else ""
        lines.append(f"{str(x):>8} | {bar} {v:.3g}")
    return "\n".join(lines)


def results_dir() -> Path:
    """``results/`` next to the repository root (created on demand)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            d = parent / "results"
            d.mkdir(exist_ok=True)
            return d
    d = Path.cwd() / "results"
    d.mkdir(exist_ok=True)
    return d


def save_results(name: str, data) -> Path:
    """Persist a benchmark's data as ``results/<name>.json``."""

    def default(obj):
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        raise TypeError(f"cannot serialize {type(obj)}")

    path = results_dir() / f"{name}.json"
    path.write_text(json.dumps(data, indent=2, default=default))
    return path

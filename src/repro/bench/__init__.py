"""Benchmark harness: workloads, figure regenerators, micro-benchmark."""

from .figures import (
    fig1_structure,
    fig2_running_times,
    fig3_speedups,
    fig5_variability,
    fig6_blocksize,
    fig6_dimensions,
    overhead_table,
    record_graph,
    stability_table,
)
from .harness import (
    ascii_curve,
    format_series_table,
    save_results,
)
from .microbench import PHASES, microbench_speedups, run_microbench
from .workloads import SMOKE_WORKLOADS, WORKLOADS, Workload, core_counts_for

__all__ = [
    "fig1_structure",
    "fig2_running_times",
    "fig3_speedups",
    "fig5_variability",
    "fig6_blocksize",
    "fig6_dimensions",
    "overhead_table",
    "record_graph",
    "stability_table",
    "ascii_curve",
    "format_series_table",
    "save_results",
    "PHASES",
    "microbench_speedups",
    "run_microbench",
    "SMOKE_WORKLOADS",
    "WORKLOADS",
    "Workload",
    "core_counts_for",
]

"""Throughput benchmark for the batched smoothing subsystem.

Measures sequences/second of :class:`repro.batch.BatchSmoother` against
the per-sequence :class:`repro.core.smoother.OddEvenSmoother` loop over
the same workload, sweeping the batch size.  The per-sequence loop pays
Python and LAPACK call overhead for every tiny block QR; the batched
path collapses each recursion level's blocks across all ``B``
sequences into stacked kernels, so throughput should grow with the
batch size until the kernels are large enough to amortize the
overheads.

A second benchmark, :func:`obs_overhead`, prices the
:mod:`repro.obs` instrumentation itself: warm plan-cached
``smooth_many`` throughput with a live :class:`~repro.obs.MetricsRegistry`
versus a :class:`~repro.obs.NullRegistry`, on the serving-shaped
workload where per-call overhead matters most.  The hot path looks the
registry up dynamically, so swapping in the null registry is exactly
the "metrics disabled" configuration.

A third benchmark, :func:`backend_throughput`, prices an array
backend (:mod:`repro.linalg.xp`): warm plan-cached ``smooth_many``
throughput with ``EstimatorConfig(array_module=NAME)`` versus the
plain-numpy run on the same workload, per batch size.  Select it with
``--backend NAME``; results land in ``results/backend_<name>.json``.

Run as a module for the table + JSON artifact::

    PYTHONPATH=src python -m repro.bench.batch            # full sweep
    PYTHONPATH=src python -m repro.bench.batch --quick    # CI smoke
    PYTHONPATH=src python -m repro.bench.batch --obs      # obs overhead
    PYTHONPATH=src python -m repro.bench.batch --backend torch --quick

Results are persisted to ``results/batch_throughput.json``,
``results/obs_overhead.json``, and ``results/backend_<name>.json``.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..api import EstimatorConfig, make_smoother
from ..batch.plan import PlanCache
from ..model.generators import random_problem
from .harness import ascii_curve, format_series_table, median_time, save_results

__all__ = [
    "backend_throughput",
    "batch_throughput",
    "obs_overhead",
    "main",
]

DEFAULT_BATCH_SIZES = (1, 4, 16, 64, 256)


def _workload(batch: int, k: int, n: int, seed: int = 0):
    """``batch`` independent random problems of ``k + 1`` states each."""
    return [
        random_problem(k=k, seed=seed + i, dims=n, random_cov=True)
        for i in range(batch)
    ]


def batch_throughput(
    batch_sizes=DEFAULT_BATCH_SIZES,
    k: int = 63,
    n: int = 4,
    repeats: int = 5,
    compute_covariance: bool = True,
    result_name: str = "batch_throughput",
) -> dict:
    """Sequences/sec of the batched vs the per-sequence smoother.

    Returns (and persists) a record with, per batch size, the median
    wall-clock seconds and derived sequences/sec of both paths plus
    their ratio (``speedup``).
    """
    per_seq = make_smoother("odd-even", compute_covariance=compute_covariance)
    batched = make_smoother(
        "batch-odd-even", compute_covariance=compute_covariance
    )
    rows = []
    for batch in batch_sizes:
        problems = _workload(batch, k, n)

        def loop_all():
            for p in problems:
                per_seq.smooth(p)

        def batch_all():
            batched.smooth_many(problems)

        t_loop = median_time(loop_all, repeats=repeats)
        t_batch = median_time(batch_all, repeats=repeats)
        rows.append(
            {
                "batch": batch,
                "loop_seconds": t_loop,
                "batch_seconds": t_batch,
                "loop_seq_per_sec": batch / t_loop,
                "batch_seq_per_sec": batch / t_batch,
                "speedup": t_loop / t_batch,
            }
        )
    record = {
        "workload": {
            "k": k,
            "n": n,
            "repeats": repeats,
            "compute_covariance": compute_covariance,
        },
        "rows": rows,
    }
    save_results(result_name, record)
    return record


def backend_throughput(
    backend: str,
    batch_sizes=(16, 64),
    k: int = 31,
    n: int = 4,
    repeats: int = 5,
    compute_covariance: bool = True,
    result_name: str | None = None,
) -> dict:
    """Warm plan-cached ``smooth_many`` on ``backend`` vs plain numpy.

    Both sides replay a cached plan over the same workload, so the
    measured delta is the backend itself: the per-bucket move of the
    whitened stack, adapted kernels, and the one host crossing at the
    result boundary.  The
    ratio is informative on vectorized hardware and expected to be
    *below* 1 for CPU builds of torch on small blocks — the point of
    recording it is the step function at large batch on real
    accelerators (see ROADMAP).  Persists ``results/backend_<name>.json``.
    """
    from ..linalg.xp import get_backend

    name = get_backend(backend).name  # resolve/validate up front
    smoother = make_smoother(
        "batch-odd-even", compute_covariance=compute_covariance
    )
    rows = []
    for batch in batch_sizes:
        problems = _workload(batch, k, n)
        numpy_config = EstimatorConfig(plan_cache=PlanCache())
        backend_config = EstimatorConfig(
            array_module=name, plan_cache=PlanCache()
        )

        def numpy_call():
            smoother.smooth_many(problems, config=numpy_config)

        def backend_call():
            smoother.smooth_many(problems, config=backend_config)

        numpy_call()  # populate both plan caches before timing
        backend_call()
        t_numpy = median_time(numpy_call, repeats=repeats)
        t_backend = median_time(backend_call, repeats=repeats)
        rows.append(
            {
                "batch": batch,
                "numpy_seconds": t_numpy,
                "backend_seconds": t_backend,
                "numpy_seq_per_sec": batch / t_numpy,
                "backend_seq_per_sec": batch / t_backend,
                "speedup_vs_numpy": t_numpy / t_backend,
            }
        )
    record = {
        "backend": name,
        "workload": {
            "k": k,
            "n": n,
            "repeats": repeats,
            "compute_covariance": compute_covariance,
        },
        "rows": rows,
    }
    save_results(result_name or f"backend_{name}", record)
    return record


def obs_overhead(
    batch: int = 64,
    k: int = 7,
    n: int = 4,
    repeats: int = 15,
    result_name: str = "obs_overhead",
) -> dict:
    """Warm plan-cached ``smooth_many`` with metrics on vs off.

    Times a warm-cache serving-shaped workload (many short
    identical-structure windows per call, the regime of
    :class:`~repro.stream.StreamServer` flushes) under a live registry
    and under :class:`~repro.obs.NullRegistry`, and reports the on/off
    wall-clock ratio.  The acceptance budget is <2% overhead: the hot path pays
    one registry lookup plus a handful of counter increments and
    histogram observations per *call* (not per sequence), so the cost
    is amortized across the batch.

    On/off timings are *interleaved* (one pair per round, medians over
    rounds) so slow clock drift — thermal throttling, a background
    compile — lands on both sides instead of biasing whichever side is
    measured second.
    """
    smoother = make_smoother("batch-odd-even")
    problems = _workload(batch, k, n)
    cache = PlanCache()
    config = EstimatorConfig(plan_cache=cache)

    def warm_call():
        smoother.smooth_many(problems, config=config)

    live = obs.MetricsRegistry()
    # Populate the plan cache and create the live registry's
    # instruments before either timed region.
    with obs.use_registry(obs.NullRegistry()):
        warm_call()
    with obs.use_registry(live):
        warm_call()
    times_off: list[float] = []
    times_on: list[float] = []
    for _ in range(repeats):
        with obs.use_registry(obs.NullRegistry()):
            t0 = time.perf_counter()
            warm_call()
            times_off.append(time.perf_counter() - t0)
        with obs.use_registry(live):
            t0 = time.perf_counter()
            warm_call()
            times_on.append(time.perf_counter() - t0)
    t_off = float(np.median(times_off))
    t_on = float(np.median(times_on))
    record = {
        "workload": {
            "batch": batch,
            "k": k,
            "n": n,
            "repeats": repeats,
        },
        "metrics_off_seconds": t_off,
        "metrics_on_seconds": t_on,
        "metrics_off_seq_per_sec": batch / t_off,
        "metrics_on_seq_per_sec": batch / t_on,
        "overhead_ratio": t_on / t_off,
        "overhead_pct": (t_on / t_off - 1.0) * 100.0,
    }
    save_results(result_name, record)
    return record


def main(argv: list[str] | None = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(
        description="Batched smoothing throughput benchmark"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny sweep for CI smoke runs",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="instrumentation overhead: metrics on vs NullRegistry",
    )
    parser.add_argument(
        "--backend",
        metavar="NAME",
        help="array-backend throughput vs numpy "
        "(results/backend_<name>.json); combine with --quick",
    )
    args = parser.parse_args(argv)
    if args.backend:
        if args.quick:
            record = backend_throughput(
                args.backend, batch_sizes=(8,), k=15, n=3, repeats=2
            )
        else:
            record = backend_throughput(args.backend)
        w = record["workload"]
        print(
            f"Backend throughput: {record['backend']} vs numpy "
            f"(warm plan-cached, k={w['k']}, n={w['n']})"
        )
        for row in record["rows"]:
            print(
                f"  batch {row['batch']:4d}: "
                f"numpy {row['numpy_seq_per_sec']:10.1f} seq/s, "
                f"{record['backend']} {row['backend_seq_per_sec']:10.1f} "
                f"seq/s ({row['speedup_vs_numpy']:.2f}x)"
            )
        return
    if args.obs:
        record = obs_overhead()
        w = record["workload"]
        print(
            f"Instrumentation overhead (warm plan-cached smooth_many, "
            f"batch={w['batch']}, k={w['k']}, n={w['n']})"
        )
        print(
            f"  metrics off {record['metrics_off_seconds'] * 1e3:8.2f} ms"
            f"  {record['metrics_off_seq_per_sec']:10.1f} seq/s"
        )
        print(
            f"  metrics on  {record['metrics_on_seconds'] * 1e3:8.2f} ms"
            f"  {record['metrics_on_seq_per_sec']:10.1f} seq/s"
        )
        print(f"  overhead: {record['overhead_pct']:+.2f}%")
        return
    if args.quick:
        record = batch_throughput(
            batch_sizes=(1, 8),
            k=15,
            n=3,
            repeats=2,
            result_name="batch_throughput_quick",
        )
    else:
        record = batch_throughput()
    xs = [r["batch"] for r in record["rows"]]
    print(
        format_series_table(
            "Batched smoothing throughput "
            f"(k={record['workload']['k']}, n={record['workload']['n']})",
            "batch",
            xs,
            {
                "per-seq loop (seq/s)": {
                    r["batch"]: r["loop_seq_per_sec"]
                    for r in record["rows"]
                },
                "BatchSmoother (seq/s)": {
                    r["batch"]: r["batch_seq_per_sec"]
                    for r in record["rows"]
                },
                "speedup": {
                    r["batch"]: r["speedup"] for r in record["rows"]
                },
            },
            unit="seq/s (speedup unitless)",
        )
    )
    print()
    print(
        ascii_curve(
            {r["batch"]: r["speedup"] for r in record["rows"]},
            label="speedup vs per-sequence loop",
        )
    )


if __name__ == "__main__":
    main()

"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload long-seq --seed 1 --seconds 10
    python3 perfbench/run.py --workload serve-open --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs a fixed untraced pass and then the same pass with every layer
wrapped, and reports the per-layer metrics.  End-to-end times, and the
rates made from them, are at the nominal host speed: each is scaled by
a reference kernel timed beside it (``workloads``, ``report``).
Workloads, metrics, units and directions are declared in
``BENCHMARK.json``.  Every metric is
printed by name with its unit, then a host record, then (last line) one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when an output check failed and 2 when the program
cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program() -> bool:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: repro was imported from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return False
    return True


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float) -> tuple[dict, int, int, dict]:
    """The end-to-end metrics of one untraced run."""
    outcome = workload.run(seconds)
    metrics = dict(outcome.metrics)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    metrics["ok_frac"] = 1.0 - outcome.failed / outcome.attempted
    return metrics, outcome.attempted, outcome.failed, outcome.notes


def trace(workload, trace_dir: Path | None) -> tuple[dict, int, int, dict]:
    """The per-layer metrics of one traced pass.

    The same pass also runs untraced before and after it, so host drift
    cancels out of the tracing overhead.  Each pass starts from the same
    state - an emptied plan cache and a fresh build - so the passes differ
    only by the wrappers.
    """
    import repro
    from repro import obs

    from perfbench import report, spans

    def fresh_pass(rec):
        repro.default_plan_cache().clear()
        workload.trace_build()
        try:
            if rec is None:
                return workload.trace_pass(None)
            with obs.use_registry(registry), spans.installed(rec):
                return workload.trace_pass(rec)
        finally:
            workload.close()

    registry = obs.MetricsRegistry()
    rec = spans.Recorder()
    before, ops, extra = fresh_pass(None)
    traced_busy, _, _ = fresh_pass(rec)
    after, _, _ = fresh_pass(None)
    pool_rec = None
    if hasattr(workload, "pool_pass"):
        # Pool fan-out depends on timing, so it is traced in a separate
        # real-time pass whose counts are not reported.
        pool_rec = spans.Recorder()
        workload.build()
        try:
            with spans.installed(pool_rec):
                workload.pool_pass(pool_rec)
        finally:
            workload.close()
        extra = dict(extra, **{"parallel.pool.busy_ratio": report.pool_busy_ratio(pool_rec)})
    metrics = report.layer_metrics(
        rec,
        ops=ops,
        calls=getattr(workload, "trace_calls", 0),
        fleet=getattr(workload, "fleet_size", 0),
        untraced_busy=(before + after) / 2,
        traced_busy=traced_busy,
        exported_s=report.exported_phase_seconds(registry),
        extra=extra,
    )
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans.write(rec.spans, trace_dir / f"{workload.name}.spans.jsonl")
        if pool_rec is not None:
            spans.write(pool_rec.spans, trace_dir / f"{workload.name}.pool.spans.jsonl")
    return metrics, ops, 0, {"spans": len(rec.spans)}


def run_one(args, spec) -> int:
    if not _import_program():
        return 2
    from perfbench import report, workloads

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    host = report.host_record(ROOT)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    # The reference kernel is timed on both sides of the measurement, so
    # a run that straddles a change of host speed shows it.
    host["ref_kernel_ms_before"] = report.reference_kernel_ms()
    if args.trace:
        trace_dir = ROOT / ".perfbench" / f"seed{args.seed}"
        metrics, attempted, failed, notes = trace(workload, trace_dir)
    else:
        metrics, attempted, failed, notes = measure(workload, args.seconds)
    host["ref_kernel_ms_after"] = report.reference_kernel_ms()
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"workload {args.workload} did not report {missing}")
    for m in declared:
        direction = {"higher": "higher is better", "lower": "lower is better"}.get(
            m.get("better"), "no direction"
        )
        print(f"{m['name']:36s} {metrics[m['name']]:>16.6g} {m['unit']:8s} ({direction})")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "operation": workload.op,
                "attempted": attempted,
                "error_frac": failed / attempted,
                "notes": notes,
                "host": host,
            }
        )
    )
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args, spec) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    results, status = {}, 0
    for w in spec["workloads"]:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", w["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"== {w['name']}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[w["name"]] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = max(status, proc.returncode)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    # One generator thread plus the program's own worker pool: BLAS runs
    # single-threaded unless the caller says otherwise.  Set before the
    # program (and numpy) is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, help="a workload of BENCHMARK.json, or 'all'"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

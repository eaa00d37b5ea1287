"""Host record and the per-layer metrics of a traced pass."""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from repro import obs

from . import spans

#: per-layer share metric -> span name whose self time it divides
SELF_SHARES = {
    "model.whiten.share": "model.whiten",
    "core.factorize.share": "core.factorize",
    "core.solve.share": "core.solve",
    "core.selinv.share": "core.selinv",
    "batch.plan.share": "batch.plan",
    "batch.stack.share": "batch.stack",
    "batch.smooth_many.share": "batch.smooth_many",
    "model.linearize.share": "model.linearize",
    "nonlinear.objective.share": "nonlinear.objective",
    "nonlinear.ekf_init.share": "nonlinear.ekf_init",
    "nonlinear.drive.share": "nonlinear.drive",
    "stream.filter.share": "stream.filter",
    "stream.submit.share": "stream.submit",
    "stream.poll.share": "stream.poll",
    "stream.flush.share": "stream.flush",
    "stream.window.share": "stream.window",
    "stream.absorb.share": "stream.absorb",
}
#: per-layer inclusive share metric -> span name
INCLUSIVE_SHARES = {
    "nonlinear.inner_solve.incl_share": "nonlinear.inner_solve",
    "stream.flush_solve.incl_share": "stream.flush_solve",
}
#: phases of ``repro_batch_phase_seconds`` the benchmark also times
EXPORTED_PHASES = ("stack", "factorize", "solve", "selinv")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def exported_phase_seconds(registry) -> float:
    """Summed ``repro_batch_phase_seconds`` of the exported phases, read
    through the program's Prometheus export."""
    series = obs.parse_prometheus(obs.to_prometheus(registry))
    return sum(
        s["value"]
        for s in series.get("repro_batch_phase_seconds_sum", [])
        if s["labels"].get("phase") in EXPORTED_PHASES
    )


def pool_busy_ratio(rec: spans.Recorder) -> float:
    """Pool-task span time ÷ (``ThreadPoolBackend.map`` wall × threads)."""
    tasks = sum(s.end - s.start for s in rec.spans if s.name == "parallel.pool.task")
    return _ratio(tasks, rec.counts["pool.thread_seconds"])


def layer_metrics(
    rec: spans.Recorder,
    *,
    ops: int,
    calls: int,
    fleet: int,
    untraced_busy: float,
    traced_busy: float,
    exported_s: float,
    extra: dict,
) -> dict:
    """Every per-layer metric of one traced pass.

    ``ops`` are the pass's operations (the unit of every count),
    ``calls`` the benchmark's library calls, ``fleet`` the problems per
    nonlinear call.  Layers a workload bypasses report 0.
    """
    self_s, incl_s = spans.self_and_inclusive(rec.spans)
    traced = incl_s[spans.ROOT]
    c = rec.counts
    out = {name: _ratio(self_s[span], traced) for name, span in SELF_SHARES.items()}
    out.update(
        {name: _ratio(incl_s[span], traced) for name, span in INCLUSIVE_SHARES.items()}
    )
    bench_phases = spans.batch_phase_seconds(rec.spans)
    out.update(
        {
            "linalg.qr_calls": c["linalg.qr_calls"] / ops,
            "linalg.kernel_calls": rec.tally.kernel_calls / ops,
            "linalg.flops": rec.tally.flops / ops,
            "linalg.bytes": rec.tally.bytes_moved / ops,
            "batch.plan.hit_ratio": _ratio(
                c["plan.lookups"] - c["plan.builds"], c["plan.lookups"]
            ),
            "batch.buckets_per_call": _ratio(c["batch.buckets"], c["batch.calls"]),
            "batch.fill_ratio": _ratio(
                c["batch.real_states"], c["batch.padded_states"]
            ),
            "model.linearize.calls_per_problem": c["linearize.calls"] / ops
            if fleet
            else 0.0,
            "nonlinear.outer_iterations": _ratio(c["inner.solves"], calls)
            if fleet
            else 0.0,
            "nonlinear.slot_ratio": _ratio(
                c["inner.sequences"], c["inner.solves"] * fleet
            ),
            "stream.windows_per_flush": _ratio(
                c["stream.absorbs"], c["stream.flush_solves"]
            ),
            "stream.busy_ratio": extra.get("stream.busy_ratio", 0.0),
            "stream.max_batch_end": extra.get("stream.max_batch_end", 0.0),
            "parallel.pool.busy_ratio": extra.get(
                "parallel.pool.busy_ratio", pool_busy_ratio(rec)
            ),
            "unattributed.share": _ratio(self_s[spans.ROOT], traced),
            "trace.overhead_share": _ratio(traced_busy, untraced_busy) - 1.0,
            "obs.phase_gap_share": _ratio(
                abs(exported_s - bench_phases), bench_phases
            ),
        }
    )
    return out


def _commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = root / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_version() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal((12, 6))
_REF_STACK = _REF_RNG.standard_normal((64, 12, 6))
#: the reference pass time that work times are reported at: a fixed
#: constant (a pass took 1.4-3.3 ms on the 2-vCPU Xeon of the baseline,
#: depending on the host's phase)
REF_NOMINAL_S = 2.5e-3


def reference_pass() -> float:
    """Seconds of one pass of a fixed kernel shaped like the program's
    work: 100 small LAPACK QRs driven from Python plus one stacked QR,
    about 3 ms.

    It does not touch the program, so it moves only with the host.
    Timed beside the program's calls it gives the host's speed, which
    the workloads divide out of their work times.
    """
    t0 = time.perf_counter()
    for _ in range(100):
        np.linalg.qr(_REF_SMALL)
    np.linalg.qr(_REF_STACK)
    return time.perf_counter() - t0


def reference_s(reps: int = 5) -> float:
    """The median of ``reps`` reference passes, in seconds."""
    return statistics.median(reference_pass() for _ in range(reps))


def reference_kernel_ms(reps: int = 25) -> float:
    """The reference kernel's median time in ms, for the host record: a
    slower reference time in the same run points at host drift, not at
    a regression."""
    return reference_s(reps) * 1e3


def host_record(root: Path) -> dict:
    return {
        "commit": _commit(root),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }

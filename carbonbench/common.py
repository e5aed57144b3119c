"""Helpers shared by the workloads: statistics, process facts, output."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
HOOK_DIR = os.path.join(HERE, "hook")
SRC_DIR = "src"
OUT_DIR = ".bench_out"
WORK_DIR = ".bench_work"

def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def percentile(values, p: float) -> float:
    """Percentile interpolated between the closest ranks (numpy's default
    method), so the 50th of an even count is the mean of the middle two.
    A training run has one step per job, and with so few samples the
    nearest rank jumped between neighbouring values from run to run."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * p / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (pos - low))


def program_env(trace_dir: str | None = None) -> dict:
    """Environment for a program process: the user's environment (no BLAS
    thread pinning added) with ``src`` importable, plus the tracing hook
    when ``trace_dir`` is given."""
    env = dict(os.environ)
    env.pop("CARBONBENCH_TRACE_DIR", None)
    paths = [os.path.abspath(SRC_DIR)]
    if trace_dir is not None:
        paths.insert(0, HOOK_DIR)
        env["CARBONBENCH_TRACE_DIR"] = os.path.abspath(trace_dir)
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def proc_status(pid: int) -> dict:
    """Peak resident memory (VmHWM) and thread count of a live process."""
    out = {"pid": pid, "rss_peak_mb": 0.0, "threads": 0}
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    out["rss_peak_mb"] = int(line.split()[1]) / 1024.0
                elif line.startswith("Threads:"):
                    out["threads"] = int(line.split()[1])
    except OSError:
        pass
    return out


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop.  Recorded at the start and
    the end of each run to show host drift; never used to normalise a
    metric."""
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


def _blas(config_module) -> str:
    try:
        blas = config_module.CONFIG["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    """Facts that explain a run's numbers: CPUs, versions, host speed."""
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.__config__),
        "scipy_blas": _blas(scipy.__config__),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "host_probe_ms": host_probe_ms(),
    }


class Metric:
    """One reported metric with its sample count."""

    def __init__(self, value: float, unit: str, samples: int, alias: str = "") -> None:
        self.value = float(value)
        self.unit = unit
        self.samples = int(samples)
        self.alias = alias


def emit(workload: str, seed: int, trace: bool, correct: bool, attempted: int,
         failed: int, metrics: dict[str, Metric], record: dict) -> int:
    """Print the human-readable table, write the run record under
    ``.bench_out/`` and print the result JSON as the last line.  Returns
    the exit code: non-zero when any operation failed or a check did."""
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print(f"== {workload} seed={seed} {kind}: correct={correct} "
          f"attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        alias = f"  [{m.alias}]" if m.alias else ""
        print(f"  {name:28s} {m.value:14.6g} {m.unit:6s} n={m.samples}{alias}")
    for phase, counts in record.get("phases", {}).items():
        print(f"  phase {phase:22s} " + " ".join(f"{k}={v}" for k, v in counts.items()))
    env = record.get("environment", {})
    if env:
        env["host_probe_end_ms"] = host_probe_ms()
        print(f"  env nproc={env.get('nproc')} python={env.get('python')} "
              f"numpy={env.get('numpy')} scipy={env.get('scipy')} "
              f"blas={env.get('numpy_blas')} host probe {env['host_probe_ms']:.2f}ms "
              f"-> {env['host_probe_end_ms']:.2f}ms")
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(record, workload=workload, seed=seed, trace=trace, correct=correct,
                  attempted=attempted, failed=failed,
                  metrics={k: vars(m) for k, m in metrics.items()})
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0 if correct and failed == 0 else 1

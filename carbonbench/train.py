"""Training workload: ``train-serial``.

A run trains a fixed list of jobs ``PASSES`` times over ``SEGMENTS``
back-to-back segment processes (``train_job.py``), one segment per pass.
A segment sets up once and then trains its jobs.  Job ``k`` of run seed
``s`` trains on ``generate_instance(250, 10, 1000*s + k)`` from algorithm
seed ``k``: the initialisation and one GP+GA step.  The number of jobs
depends only on ``--seconds`` (``JOB_BUDGET_S`` per job run, which the
slowest host speed observed still meets), so a faster program trains the
same instances, not more of them.  A run whose jobs are not done by the
safety deadline counts its unfinished jobs as failed.

A job is deterministic, so its passes do identical work; each step and
each job keeps the lowest of its pass times.  The host's speed flips
between two modes about 1.5x apart every few tens of seconds, and the
passes of a job run a quarter of a run apart: a slow stretch seldom
covers all four, while a slower program is slower in every pass.

End-to-end metrics:

* ``setup_s`` — median over segments of launch until the first algorithm
  is built;
* ``p50_ms`` / ``p90_ms`` — durations of the engine steps that ran a GP
  and a GA generation (``step_p50_ms`` / ``step_p90_ms``), one per job,
  pooled over the run's jobs; initialisation is part of ``train_s``
  but not a step;
* ``throughput_per_s`` — fitness evaluations (UL + LL, a fixed budget per
  job) per second of ``EngineLoop.run``: the budget over the median job's
  ``train_s``;
* ``peak_rss_mb`` — median over segments of the peak resident memory of
  the segment process.

Correctness: the run's first job is trained again through a caller-provided
``ProcessExecutor(workers=2)`` and both fingerprints must be identical;
they must also equal the committed one (``fingerprints.json``) when the
seed is listed there.  The same verification segment always trains
``REFERENCE_JOB``, whose committed fingerprint every run checks, whatever
its seed.  In a traced run that segment is traced too and gives the
``parallel.*`` metrics.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

from common import (HERE, WORK_DIR, Metric, emit, environment, median,
                    percentile, program_env)
from layers import PER_LAYER, SpanTable, load_span_files, program_layers

JOB_SCRIPT = os.path.join(HERE, "train_job.py")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
SEGMENTS = 4
PASSES = 4
#: Seconds of ``--seconds`` budgeted per job run: a 45 s run trains 14
#: jobs four times.  Jobs took 0.55-0.9 s on a 2-vCPU host whose speed
#: drifts by 1.5x.
JOB_BUDGET_S = 0.8
#: Job seed that every run trains and checks against its committed fingerprint.
REFERENCE_JOB = 0
VERIFY_TIMEOUT_S = 40.0


def job_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def job_lists(seed: int, seconds: float) -> list[list[int]]:
    """The run's job seeds, one list per segment: the distinct jobs split
    over ``SEGMENTS // PASSES`` segments, then the same lists again for
    each further pass."""
    per_segment = max(1, round(seconds / JOB_BUDGET_S / SEGMENTS))
    one_pass = [[job_seed(seed, i * per_segment + k) for k in range(per_segment)]
                for i in range(SEGMENTS // PASSES)]
    return one_pass * PASSES


def safety_deadline(t_start: float, seconds: float) -> float:
    """Time by which the measured segments must be done (the run has to
    end within 180 s, verification included)."""
    return t_start + min(120.0, max(60.0, 3.0 * seconds))


def run_segment(executor: str, job_seeds: list[int], scale: str, timeout: float,
                trace_dir: str | None = None) -> dict:
    """Launch one segment process; returns its report plus ``setup_s``.
    A segment still running after ``timeout`` seconds is killed with its
    pool and reports no jobs."""
    cmd = [sys.executable, JOB_SCRIPT, "--executor", executor,
           "--jobs", ",".join(map(str, job_seeds)), "--scale", scale]
    failed = {"ok": False, "jobs": [], "executor": executor, "job_seeds": job_seeds}
    t_launch = time.perf_counter()
    proc = subprocess.Popen(cmd, env=program_env(trace_dir), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return dict(failed, error=f"timeout after {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        return dict(failed, error=f"exit {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report.update(ok=True, setup_s=report["t_ready"] - t_launch, executor=executor,
                  job_seeds=job_seeds)
    return report


def committed_fingerprints(scale: str, path: str = FINGERPRINTS) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh).get(scale, {})
    except FileNotFoundError:
        return {}


def check_fingerprint(report: dict, expected: dict | None, other: dict | None) -> list[str]:
    """Mismatches of a job's fingerprint against the committed value and
    against the same job on the other executor (empty list: correct)."""
    problems = []
    fp = report.get("fingerprint")
    if fp is None:
        return [f"job seed {report.get('seed')} did not finish"]
    if expected is not None and fp != expected:
        problems.append(f"seed {report['seed']}: fingerprint {fp} != committed {expected}")
    if other is not None and other.get("fingerprint") != fp:
        problems.append(
            f"seed {report['seed']}: {report.get('executor')} fingerprint {fp} != "
            f"{other.get('executor')} {other.get('fingerprint')}"
        )
    return problems


def _e2e_metrics(segments: list[dict]) -> dict[str, Metric]:
    good = [s for s in segments if s["ok"]]
    runs: dict[int, list[dict]] = {}
    for s in good:
        for j in s["jobs"]:
            runs.setdefault(j["seed"], []).append(j)
    # Per job, the fastest of its passes: the steps position by position
    # (every pass runs the same steps) and train_s.
    jobs = [{"evaluations": r[0]["evaluations"],
             "train_s": min(j["train_s"] for j in r),
             "steps_ms": [min(v) for v in zip(*(j["steps_ms"] for j in r))]}
            for r in runs.values()]
    steps = [ms for j in jobs for ms in j["steps_ms"]]
    rss = [sum(p["rss_peak_mb"] for p in s["processes"]) for s in good]
    rates = [j["evaluations"] / j["train_s"] for j in jobs]
    return {
        "setup_s": Metric(median(s["setup_s"] for s in good), "s", len(good)),
        "p50_ms": Metric(percentile(steps, 50), "ms", len(steps), "step_p50_ms"),
        "p90_ms": Metric(percentile(steps, 90), "ms", len(steps), "step_p90_ms"),
        "throughput_per_s": Metric(
            median(rates), "1/s", len(jobs),
            f"train_s median {median(j['train_s'] for j in jobs):.4f} s",
        ),
        "peak_rss_mb": Metric(median(rss), "MB", len(good)),
    }


def _spans_from_first_job(trace_dir: str) -> list[dict]:
    """A segment's span documents without the spans that start before its
    first job (its set-up and warm-up)."""
    docs = load_span_files(trace_dir)
    first = min((s[3] for d in docs for s in d["spans"] if s[2] == "engine.run"),
                default=0.0)
    return [dict(d, spans=[s for s in d["spans"] if s[3] >= first]) for d in docs]


def _layer_metrics(trace_root: str, pairs: list[tuple[dict, dict]],
                   verify: dict) -> tuple[dict, int]:
    """Per-layer metrics per traced job.  The measured segments run the
    serial path; ``parallel.*`` come from the traced verification segment,
    which trains its jobs through the process pool."""
    docs = []
    for k in range(len(pairs)):
        docs += _spans_from_first_job(os.path.join(trace_root, f"segment{k}"))
    table = SpanTable(docs)
    n_jobs = table.count("engine.run")
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({k: v for k, v in program_layers(table, per=max(1, n_jobs)).items()
                   if not k.startswith("parallel.")})
    pool = SpanTable(_spans_from_first_job(os.path.join(trace_root, "verify")))
    pool_jobs = max(1, pool.count("engine.run"))
    values.update({k: v for k, v in program_layers(pool, per=pool_jobs).items()
                   if k.startswith("parallel.")})
    values["parallel.spawn_s"] = verify.get("spawn_s", 0.0)
    runs = table.dur_s("engine.run")
    values["unattributed_share"] = table.self_s("engine.run") / runs if runs else 0.0
    ratios = [tb["train_s"] / ta["train_s"] - 1.0
              for a, b in pairs for ta, tb in zip(a["jobs"], b["jobs"])]
    values["trace.overhead_share"] = median(ratios) if ratios else 0.0
    return {k: Metric(v, PER_LAYER[k][0], n_jobs) for k, v in values.items()}, n_jobs


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str,
        fingerprints_path: str = FINGERPRINTS) -> int:
    # The measured jobs run serially; the correctness segment uses the pool.
    executor, other = "serial", "procs"
    env = environment()
    t_start = time.perf_counter()
    deadline = safety_deadline(t_start, seconds)
    trace_root = os.path.join(WORK_DIR, f"trace-{workload}-{seed}")
    shutil.rmtree(trace_root, ignore_errors=True)

    lists = job_lists(seed, seconds)
    segments: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    if not trace:
        for job_seeds in lists:
            segments.append(run_segment(executor, job_seeds, scale,
                                        deadline - time.perf_counter()))
    else:
        # Paired segments: the same jobs untraced, then traced, so the
        # tracing overhead is measured on identical work.  Each of the
        # run's jobs is trained once untraced and once traced.
        for k, job_seeds in enumerate(lists[:SEGMENTS // PASSES]):
            plain = run_segment(executor, job_seeds, scale, deadline - time.perf_counter())
            tdir = os.path.join(trace_root, f"segment{k}")
            os.makedirs(tdir)
            traced = run_segment(executor, job_seeds, scale, deadline - time.perf_counter(),
                                 trace_dir=tdir)
            pairs.append((plain, traced))
            segments += [plain, traced]
    measured_s = time.perf_counter() - t_start

    # Correctness: the run's first job again on the other executor, and the
    # reference job, against each other and the committed fingerprints.
    committed = committed_fingerprints(scale, fingerprints_path)
    jobs = [dict(j, executor=s["executor"]) for s in segments for j in s["jobs"]]
    first = job_seed(seed, 0)
    verify_seeds = list(dict.fromkeys([first, REFERENCE_JOB]))
    verify_dir = None
    if trace:
        verify_dir = os.path.join(trace_root, "verify")
        os.makedirs(verify_dir)
    verify = run_segment(other, verify_seeds, scale, VERIFY_TIMEOUT_S, trace_dir=verify_dir)
    checked = {j["seed"]: dict(j, executor=other) for j in verify["jobs"]}
    job0 = next((j for j in jobs if j["seed"] == first), {"seed": first})
    problems = check_fingerprint(job0, committed.get(str(first)), checked.get(first, {}))
    expected_reference = committed.get(str(REFERENCE_JOB))
    if expected_reference is None:
        problems.append(f"no committed fingerprint for reference job {REFERENCE_JOB}")
    else:
        problems += check_fingerprint(checked.get(REFERENCE_JOB, {"seed": REFERENCE_JOB}),
                                      expected_reference, None)
    for s in segments + [verify]:
        if not s["ok"]:
            problems.append(f"{s['executor']} segment {s['job_seeds']}: {s['error']}")
    # Every run of a job (passes, traced twins) must compute the same result.
    results: dict[int, set[str]] = {}
    for j in jobs:
        results.setdefault(j["seed"], set()).add(json.dumps(j["fingerprint"], sort_keys=True))
    problems += [f"seed {k}: its runs in this run differ: {sorted(v)}"
                 for k, v in results.items() if len(v) > 1]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    planned = sum(len(s["job_seeds"]) for s in segments)
    attempted = planned + len(verify_seeds)
    unfinished = attempted - len(jobs) - len(verify["jobs"])
    failed = min(attempted, max(unfinished, 1 if problems else 0))

    record = {
        "environment": env,
        "measured_s": measured_s,
        "fingerprint_job0": job0.get("fingerprint"),
        "fingerprint_committed": committed.get(str(first)),
        "fingerprint_other_executor": checked.get(first, {}).get("fingerprint"),
        "fingerprint_reference": checked.get(REFERENCE_JOB, {}).get("fingerprint"),
        "problems": problems,
        "segments": [{k: s.get(k) for k in ("executor", "job_seeds", "ok", "setup_s",
                                            "spawn_s", "processes")}
                     for s in segments + [verify]],
        "jobs": [{k: j[k] for k in ("seed", "executor", "train_s", "init_ms", "steps_ms")}
                 for j in jobs],
        "phases": {
            "jobs": {"attempted": planned, "succeeded": len(jobs),
                     "failed": planned - len(jobs)},
            # An unfinished verification job is itself a problem.
            "verify": {"attempted": len(verify_seeds),
                       "succeeded": 0 if problems else len(verify_seeds),
                       "failed": len(verify_seeds) if problems else 0},
        },
    }
    if trace:
        metrics, record["traced_jobs"] = _layer_metrics(trace_root, pairs, verify)
    else:
        metrics = _e2e_metrics(segments)
    return emit(workload, seed, trace, not problems, attempted, failed, metrics, record)

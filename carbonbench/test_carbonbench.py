"""Self-tests of the benchmark (not part of the program's test suite).

    python3 -m pytest carbonbench -q

Run from the repository root; the workload runs use the ``tiny`` scale.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(HERE, "hook"), os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import cbtrace  # noqa: E402
import train  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, seed: int = 1, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "carbonbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric in declared:
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line
                   for line in proc.stdout.splitlines()), metric["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fingerprint_gate_fails_on_seeded_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    committed = train.committed_fingerprints("tiny")
    seed0 = str(train.job_seed(1, 0))
    assert seed0 in committed
    wrong = dict(committed[seed0], best_gap=committed[seed0]["best_gap"] * (1 + 1e-15))
    report = {"seed": int(seed0), "executor": "serial", "fingerprint": committed[seed0]}
    assert train.check_fingerprint(report, committed[seed0], dict(report)) == []
    assert train.check_fingerprint(report, wrong, None)
    assert train.check_fingerprint(report, None, dict(report, fingerprint=wrong))

    table = dict(committed, **{seed0: wrong})
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps({"tiny": table}))
    code = train.run("train-serial", 1, 1.0, False, "tiny", fingerprints_path=str(path))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("reference", ["wrong", "missing"])
def test_uncommitted_seed_still_checks_the_reference_job(reference, tmp_path, capsys,
                                                        monkeypatch):
    """A run seed with no committed fingerprint of its own is still gated
    by the reference job's committed fingerprint."""
    monkeypatch.chdir(ROOT)
    committed = train.committed_fingerprints("tiny")
    seed = 57
    assert str(train.job_seed(seed, 0)) not in committed
    ref = str(train.REFERENCE_JOB)
    table = dict(committed)
    if reference == "wrong":
        table[ref] = dict(committed[ref], champion="0" * 64)
    else:
        del table[ref]
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps({"tiny": table}))
    code = train.run("train-serial", seed, 1.0, False, "tiny", fingerprints_path=str(path))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_job_list_depends_only_on_seed_and_seconds():
    lists = train.job_lists(3, 45)
    assert lists == train.job_lists(3, 45)
    flat = [j for segment in lists for j in segment]
    assert len(flat) == 56 and len(set(flat)) == 14
    assert len({len(segment) for segment in lists}) == 1
    assert flat[0] == train.job_seed(3, 0)
    # Every pass trains the same jobs in the same order, a pass apart.
    assert all(segment == lists[0] for segment in lists)


def test_training_keeps_the_fastest_pass_of_each_job():
    def segment(times):
        return {"ok": True, "setup_s": 0.5, "processes": [{"rss_peak_mb": 100.0}],
                "jobs": [{"seed": k, "evaluations": 240, "train_s": t, "steps_ms": [t * 100]}
                         for k, t in enumerate(times)]}

    metrics = train._e2e_metrics([segment([1.0, 3.0]), segment([2.0, 1.5])])
    assert metrics["p50_ms"].value == pytest.approx(125.0)  # steps 100 and 150
    assert metrics["p50_ms"].samples == 2
    assert metrics["throughput_per_s"].value == pytest.approx((240 / 1.0 + 240 / 1.5) / 2)


def test_tracer_uninstall_restores_every_callable():
    targets = cbtrace._targets()
    before = [(owner, attr, vars(owner).get(attr, getattr(owner, attr)))
              for owner, attr, *_ in targets]
    tracer = cbtrace.install(None)
    try:
        for owner, attr, original in before:
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        cbtrace.uninstall()
    assert cbtrace.active() is None and tracer.patches == []
    for owner, attr, original in before:
        assert vars(owner).get(attr, getattr(owner, attr)) is original


def test_tracer_records_nested_spans_with_self_time():
    import numpy as np

    from layers import SpanTable, program_layers
    from repro.bcpop.evaluate import EvaluationPipeline, LowerLevelEvaluator
    from repro.bcpop.generator import generate_instance
    from repro.gp.generate import ramped_half_and_half
    from repro.gp.primitives import paper_primitive_set

    inst = generate_instance(30, 3, seed=0)
    trees = ramped_half_and_half(paper_primitive_set(), 4, np.random.default_rng(0))
    prices = [inst.price_bounds[1] * f for f in (0.2, 0.5)]
    tracer = cbtrace.install(None)
    try:
        pipeline = EvaluationPipeline(LowerLevelEvaluator(inst))
        pipeline.evaluate_heuristics([(p, t) for p in prices for t in trees] * 2)
    finally:
        spans = cbtrace.uninstall()
    table = SpanTable([{"pid": os.getpid(), "spans": spans}])
    layers = program_layers(table)
    assert layers["evaluate.requests"] == 16
    assert layers["covering.greedy.calls"] == 8
    assert layers["lp.relaxation.calls"] == 2
    assert layers["evaluate.dedup_ratio"] == 0.5
    pipeline_row = table.of("evaluate.pipeline")[0]
    children = sum(r["dur"] for r in table.rows if r["name"] == "evaluate.fresh")
    assert pipeline_row["self"] == pytest.approx(pipeline_row["dur"] - children, abs=1e-9)
    assert all(r["self"] >= 0 for r in table.rows)
    assert tracer.spans == spans


def test_shard_spans_survive_sigterm(tmp_path, monkeypatch):
    """The router stops its shards with SIGTERM; their spans must reach disk."""
    monkeypatch.chdir(ROOT)
    import serve
    from layers import load_span_files

    workdir = tmp_path / "serve"
    workdir.mkdir()
    session = serve.Session(3, "tiny", str(workdir))
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    fleet = session.start_fleet("t", str(trace_dir))
    load = serve.LoadGen(fleet.port)
    try:
        session.run_phase(load, "open_loop", 20, 50.0)
        shard_pids = {row["pid"] for row in fleet.shard_rows}
        fleet.stop(load)
    finally:
        load.close()
    docs = {doc["pid"]: doc for doc in load_span_files(str(trace_dir))}
    assert shard_pids <= set(docs)
    names = {span[2] for pid in shard_pids for span in docs[pid]["spans"]}
    assert {"evaluate.pipeline", "covering.greedy", "lp.relaxation"} <= names
    assert not session.verify(load, "open_loop")


def test_percentile_interpolates_between_ranks():
    import numpy as np

    from common import percentile

    values = list(np.random.default_rng(0).random(14))
    for p in (0, 10, 50, 90, 100):
        assert percentile(values, p) == pytest.approx(np.percentile(values, p))
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5


def test_replays_keep_the_best_figure_of_each_request_and_chunk():
    import serve

    def replay(latencies, chunks):
        return {"open_loop": {"latencies_ms": latencies},
                "capacity": [{"goodput": g, "passed": ok} for g, ok in chunks]}

    first = replay([10.0, 50.0, 12.0], [(100.0, True), (300.0, False), (90.0, True)])
    second = replay([30.0, 11.0, 12.5], [(80.0, True), (120.0, True), (95.0, False)])
    latencies, capacity, chunks = serve.best_of_replays([first, second])
    assert latencies == [10.0, 11.0, 12.0]
    assert (capacity, chunks) == (100.0, 3)  # median of 100, 120 and 90
    failing = replay([1.0], [(500.0, False)])
    assert serve.best_of_replays([failing, failing])[1:] == (0.0, 0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "carbonbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    t0 = time.perf_counter()
    proc = _run("train-serial", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert time.perf_counter() - t0 < 180
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

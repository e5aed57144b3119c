"""Per-layer metrics from the spans of a traced run.

A span's self time is its duration minus the time its child spans (same
process, same thread) cover.  Spans of pool workers and shard processes
are read from their span files; worker spans have no parent in the
calling process, so a ``parallel.map`` span's self time is the wall time
the caller waited for the pool.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict

#: Per-layer metrics: name -> (unit, better).  Every traced run reports
#: every one of them; a layer a workload bypasses reports 0.
PER_LAYER = {
    "covering.greedy.calls": ("count", "lower"),
    "covering.greedy.self_s": ("s", "lower"),
    "covering.greedy.picks": ("count", "lower"),
    "lp.relaxation.calls": ("count", "lower"),
    "lp.relaxation.self_s": ("s", "lower"),
    "lp.cache.hit_ratio": ("ratio", "higher"),
    "gp.compile.calls": ("count", "lower"),
    "gp.compile.self_s": ("s", "lower"),
    "gp.compile_cache.hit_ratio": ("ratio", "higher"),
    "gp.variation.self_s": ("s", "lower"),
    "ga.variation.self_s": ("s", "lower"),
    "evaluate.requests": ("count", "lower"),
    "evaluate.memo.hit_ratio": ("ratio", "higher"),
    "evaluate.dedup_ratio": ("ratio", "higher"),
    "evaluate.self_s": ("s", "lower"),
    "parallel.map.calls": ("count", "lower"),
    "parallel.map.wall_s": ("s", "lower"),
    "parallel.worker.busy_s": ("s", "lower"),
    "parallel.utilization": ("ratio", "higher"),
    "parallel.bytes_out": ("bytes", "lower"),
    "parallel.bytes_in": ("bytes", "lower"),
    "parallel.spawn_s": ("s", "lower"),
    "engine.step.self_s": ("s", "lower"),
    "serve.router.hop_ms": ("ms", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.batch.exec_ms": ("ms", "lower"),
    "serve.batch.size_mean": ("count", "higher"),
    "serve.shard_share": ("ratio", "lower"),
    "serve.overloads": ("count", "lower"),
    "serve.timeouts": ("count", "lower"),
    "serve.failovers": ("count", "lower"),
    "serve.memo.hit_ratio": ("ratio", "higher"),
    "serve.lp_cache.hit_ratio": ("ratio", "higher"),
    "unattributed_share": ("ratio", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def load_span_files(trace_dir: str) -> list[dict]:
    """Every process's span document in ``trace_dir``."""
    docs = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path) as fh:
            docs.append(json.load(fh))
    return docs


class SpanTable:
    """Spans of one or more processes with self times computed."""

    def __init__(self, docs: list[dict]) -> None:
        self.rows: list[dict] = []
        for doc in docs:
            pid = doc["pid"]
            child_time: dict[int, float] = defaultdict(float)
            spans = doc["spans"]
            for sid, parent, name, t0, t1, tid, info in spans:
                if parent:
                    child_time[parent] += t1 - t0
            for sid, parent, name, t0, t1, tid, info in spans:
                self.rows.append({
                    "pid": pid, "name": name, "t0": t0, "t1": t1,
                    "dur": t1 - t0, "self": (t1 - t0) - child_time.get(sid, 0.0),
                    "info": info or {},
                })

    def within(self, t0: float, t1: float) -> "SpanTable":
        """The spans that start and end inside ``[t0, t1]`` (self times
        stay those computed over every span)."""
        table = SpanTable([])
        table.rows = [r for r in self.rows if t0 <= r["t0"] and r["t1"] <= t1]
        return table

    def of(self, name: str) -> list[dict]:
        return [r for r in self.rows if r["name"] == name]

    def count(self, name: str) -> int:
        return len(self.of(name))

    def self_s(self, *names: str) -> float:
        return sum(r["self"] for n in names for r in self.of(n))

    def dur_s(self, name: str) -> float:
        return sum(r["dur"] for r in self.of(name))

    def info_sum(self, name: str, key: str) -> float:
        return sum(r["info"].get(key, 0) for r in self.of(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def program_layers(table: SpanTable, per: float = 1.0) -> dict[str, float]:
    """Layer metrics of the evaluation stack, executor and engine.  Counts
    and times are divided by ``per`` (the number of training jobs traced;
    1 for a serving session); ratios are not."""
    fresh = table.count("evaluate.fresh")
    requests = table.info_sum("evaluate.pipeline", "requests")
    map_rows = table.of("parallel.map")
    capacity_s = sum(r["dur"] * r["info"].get("workers", 1) for r in map_rows)
    busy = table.dur_s("parallel.worker")
    out = {
        "covering.greedy.calls": table.count("covering.greedy") / per,
        "covering.greedy.self_s": table.self_s("covering.greedy") / per,
        "covering.greedy.picks": table.info_sum("covering.greedy", "picks") / per,
        "lp.relaxation.calls": table.count("lp.relaxation") / per,
        "lp.relaxation.self_s": table.self_s("lp.relaxation") / per,
        "lp.cache.hit_ratio": _ratio(fresh - table.count("lp.relaxation"), fresh),
        "gp.compile.calls": table.count("gp.compile") / per,
        "gp.compile.self_s": table.self_s("gp.compile_cache", "gp.compile") / per,
        "gp.compile_cache.hit_ratio": _ratio(
            table.count("gp.compile_cache") - table.count("gp.compile"),
            table.count("gp.compile_cache"),
        ),
        "gp.variation.self_s": table.self_s("gp.variation") / per,
        "ga.variation.self_s": table.self_s("ga.variation") / per,
        "evaluate.requests": requests / per,
        "evaluate.memo.hit_ratio": _ratio(
            table.info_sum("evaluate.pipeline", "memo_hits"),
            table.info_sum("evaluate.pipeline", "memo_lookups"),
        ),
        "evaluate.dedup_ratio": _ratio(
            table.info_sum("evaluate.pipeline", "dedup"), requests
        ),
        "evaluate.self_s": table.self_s("evaluate.pipeline", "evaluate.fresh") / per,
        "parallel.map.calls": len(map_rows) / per,
        "parallel.map.wall_s": table.dur_s("parallel.map") / per,
        "parallel.worker.busy_s": busy / per,
        "parallel.utilization": _ratio(busy, capacity_s),
        "parallel.bytes_out": table.info_sum("parallel.map", "bytes_out") / per,
        "parallel.bytes_in": table.info_sum("parallel.map", "bytes_in") / per,
        "engine.step.self_s": table.self_s("engine.step") / per,
    }
    return out

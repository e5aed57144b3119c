"""Routed serving workload: ``serve-routed``.

The program is ``repro-bench serve --shards 2`` (``python -m
repro.experiments.runner serve``), started in its own process group with
32 registered n100-m5 instances.  This process is the single client: one
connection, one thread sending on a schedule and one reading replies.

The registered instances and the 16 GP trees are the same in every run
(fixed seeds), so the instances' split across the shards, which moves
capacity by a tenth, is a property of the program and not of ``--seed``.
The seed draws the traffic: each request names an instance by digest,
carries one of the trees inline and a price vector; about a quarter
repeat an earlier (instance, prices, tree) triple.  The traffic is
replayed, identically, on ``REPLAYS`` fresh fleets one after the other;
each replay runs these phases in order:

1. warm-up — untimed, at the open-loop rate, so caches fill and lazy
   set-up finishes;
2. open loop — a fixed rate well below capacity; each request is timed
   from its due time, so a stall also delays the requests behind it;
3. capacity — a closed loop that keeps ``CAPACITY_WINDOW`` requests in
   flight (two per shard), in ``CAPACITY_CHUNKS`` chunks of equal size.
   The window bounds the backlog by construction; a chunk counts when
   every reply is ok and its p90 is within ``P90_LIMIT_MS``.

Every phase sends a request count fixed by ``--seconds``, so a faster
program serves the same requests, not more of them.

End-to-end metrics: ``setup_s`` (launch until a ``ping`` is answered with
every shard connected; median of the run's fleet starts), ``p50_ms`` /
``p90_ms`` (open loop: each request's latency is the lowest of its
replays, which keeps a slow stretch of the shared host in one replay out
of the figure while a slower program is slower in every replay),
``throughput_per_s`` (``capacity_rps``: per chunk the highest goodput of
the replays that meet the limit, then the median over chunks) and
``peak_rss_mb`` (router plus shards, median over the replays).
"""

from __future__ import annotations

import os
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import (WORK_DIR, Metric, emit, environment, median, percentile,
                    proc_status, program_env)

SCALES = {
    "full": {"n": 100, "m": 5, "instances": 32, "trees": 16, "rate": 40.0},
    "tiny": {"n": 30, "m": 3, "instances": 4, "trees": 4, "rate": 40.0},
}
SHARDS = 2
REPEAT_SHARE = 0.25
#: Fresh fleets the traffic is replayed on, one after the other.  The
#: host's speed flips between two modes about 1.5x apart every few tens of
#: seconds; replays about 15 s apart seldom all fall in a slow stretch.
REPLAYS = 3
#: Share of ``--seconds`` for each replay's warm-up and open loop at ``rate``.
WARMUP_SHARE, OPEN_LOOP_SHARE = 0.04, 0.18
#: Capacity requests per replay and second of ``--seconds``: about 4 s of
#: a 45 s run at the ~200/s the closed loop reached on a 2-vCPU host.
CAPACITY_PER_S = 18
CAPACITY_CHUNKS = 4
#: Requests in flight in the capacity loop: two per shard, which kept the
#: p90 near 35 ms.  Larger windows batch more but their goodput varied by
#: a quarter from chunk to chunk.
CAPACITY_WINDOW = 2 * SHARDS
P90_LIMIT_MS = 100.0
CHECK_SAMPLE = 16
TREE_SEED = 20180521
INSTANCE_SEED = 20180522


# -- inputs --------------------------------------------------------------------


def make_inputs(seed: int, scale: str):
    """The fixed instances and trees, and the request stream of ``seed``."""
    from repro.bcpop.generator import generate_instance
    from repro.gp.generate import ramped_half_and_half
    from repro.gp.primitives import paper_primitive_set

    shape = SCALES[scale]
    instances = [
        generate_instance(shape["n"], shape["m"],
                          seed=np.random.default_rng([INSTANCE_SEED, i]), name=f"serve-{i}")
        for i in range(shape["instances"])
    ]
    trees = ramped_half_and_half(
        paper_primitive_set(), shape["trees"], np.random.default_rng(TREE_SEED),
        min_depth=2, max_depth=4,
    )
    return instances, trees, RequestStream(seed, instances, len(trees))


class RequestStream:
    """Deterministic (instance, tree, prices) triples for one seed."""

    def __init__(self, seed: int, instances, n_trees: int) -> None:
        self.rng = np.random.default_rng([seed, 2])
        self.instances = instances
        self.n_trees = n_trees
        self.history: list[tuple[int, int, np.ndarray]] = []
        self.repeats = 0

    def next(self) -> tuple[int, int, np.ndarray]:
        if self.history and self.rng.random() < REPEAT_SHARE:
            self.repeats += 1
            return self.history[int(self.rng.integers(len(self.history)))]
        i = int(self.rng.integers(len(self.instances)))
        low, high = self.instances[i].price_bounds
        triple = (i, int(self.rng.integers(self.n_trees)), self.rng.uniform(low, high))
        self.history.append(triple)
        return triple


# -- the program ---------------------------------------------------------------


class Fleet:
    """One ``repro-bench serve --shards 2`` process group."""

    def __init__(self, instance_files: list[str], log_path: str,
                 trace_dir: str | None = None) -> None:
        cmd = [sys.executable, "-m", "repro.experiments.runner", "serve",
               "--shards", str(SHARDS), "--port", "0", "--instances", *instance_files]
        self.log = open(log_path, "w")
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=program_env(trace_dir), stdout=subprocess.PIPE,
            stderr=self.log, text=True, start_new_session=True,
        )
        self.port: int | None = None
        self.shard_rows: list[dict] = []
        self.setup_s = float("nan")
        self.stopped = False

    def wait_ready(self, timeout: float = 90.0) -> None:
        """Read the announce line, then ping until every shard is connected."""
        from repro.serve.client import ServeClient

        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise RuntimeError("serve did not announce its port")
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            raise RuntimeError(f"unexpected serve output: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])
        deadline = time.perf_counter() + timeout
        with ServeClient("127.0.0.1", self.port, timeout=timeout) as client:
            while True:
                pong = client.ping()
                t_pong = time.perf_counter()
                rows = client.shards()
                if pong and len(rows) == SHARDS and all(r["connected"] for r in rows):
                    self.setup_s = t_pong - self.t_launch
                    self.shard_rows = rows
                    return
                if time.perf_counter() > deadline:
                    raise RuntimeError("shards did not connect")
                time.sleep(0.01)

    def pids(self) -> list[int]:
        return [self.proc.pid] + [row["pid"] for row in self.shard_rows]

    def stop(self, client=None) -> None:
        """Shut the fleet down through the ``shutdown`` op; kill the process
        group if it does not exit; wait until every process has ended."""
        if self.stopped:
            return
        self.stopped = True
        pids = self.pids()
        try:
            if client is not None:
                client.call({"op": "shutdown"})
            else:
                from repro.serve.client import ServeClient

                with ServeClient("127.0.0.1", self.port, timeout=30) as c:
                    c.shutdown()
            self.proc.communicate(timeout=30)
        except Exception:  # noqa: BLE001 - any failure here ends in a kill
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.communicate(timeout=30)
        finally:
            self.log.close()
        _wait_gone(pids, 30.0)


def _wait_gone(pids: list[int], timeout: float) -> None:
    deadline = time.perf_counter() + timeout
    for pid in pids:
        while os.path.exists(f"/proc/{pid}") and time.perf_counter() < deadline:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    if fh.read().split()[2] == "Z":
                        break  # exited, waiting to be reaped by its parent
            except OSError:
                break
            time.sleep(0.02)


# -- the client ----------------------------------------------------------------


class LoadGen:
    """One connection: the calling thread sends, a reader thread receives."""

    def __init__(self, port: int) -> None:
        from repro.serve.client import ServeClient

        self.client = ServeClient("127.0.0.1", port, timeout=120)
        self.replies: dict[int, tuple[float, dict]] = {}
        self.cond = threading.Condition()
        self.next_id = 0
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        while True:
            try:
                reply = self.client.recv()
            except (ConnectionError, OSError, ValueError):
                break
            t = time.perf_counter()
            with self.cond:
                self.replies[reply.get("id")] = (t, reply)
                self.cond.notify_all()

    def _send(self, message: dict) -> int:
        self.next_id += 1
        message["id"] = self.next_id
        self.client.send(message)
        return self.next_id

    def wait(self, ids, timeout: float) -> bool:
        deadline = time.perf_counter() + timeout
        with self.cond:
            while not all(i in self.replies for i in ids):
                left = deadline - time.perf_counter()
                if left <= 0:
                    return False
                self.cond.wait(left)
        return True

    def call(self, message: dict, timeout: float = 30.0) -> dict:
        rid = self._send(dict(message))
        if not self.wait([rid], timeout):
            raise TimeoutError(f"no reply to {message.get('op')}")
        return self.replies[rid][1]

    def phase(self, messages, rate: float) -> dict:
        """Send ``messages`` at ``rate`` per second; time each from its due
        time.  Returns per-request records and the phase's counts."""
        sent: list[tuple[int, float, float]] = []
        t0 = time.perf_counter() + 0.005
        for k, message in enumerate(messages):
            due = t0 + k / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            rid = self._send(message)
            sent.append((rid, due, time.perf_counter()))
        return dict(self._collect(sent, t0), rate=rate)

    def closed(self, messages, window: int) -> dict:
        """Send ``messages`` keeping ``window`` requests in flight; time each
        from its send."""
        sent: list[tuple[int, float, float]] = []
        pending: set[int] = set()
        t0 = time.perf_counter()
        for message in messages:
            with self.cond:
                pending = {i for i in pending if i not in self.replies}
                while len(pending) >= window:
                    if not self.cond.wait(60.0):
                        break  # nothing answered for a minute: counted as failed
                    pending = {i for i in pending if i not in self.replies}
            rid = self._send(message)
            now = time.perf_counter()
            sent.append((rid, now, now))
            pending.add(rid)
        return dict(self._collect(sent, t0), window=window)

    def _collect(self, sent: list[tuple[int, float, float]], t0: float) -> dict:
        """Wait for the replies to ``sent`` (request id, reference time,
        send time) and time each from its reference time."""
        ids = [rid for rid, _, _ in sent]
        drained = self.wait(ids, 60.0)
        end = time.perf_counter()
        latencies, failed, codes = [], 0, {}
        for rid, ref, _ in sent:
            got = self.replies.get(rid)
            if got is None or not got[1].get("ok"):
                failed += 1
                code = "no-reply" if got is None else str(got[1].get("error"))
                codes[code] = codes.get(code, 0) + 1
                latencies.append((end - ref) * 1e3)  # a failure misses any limit
            else:
                latencies.append((got[0] - ref) * 1e3)
        lateness = [(s - d) * 1e3 for _, d, s in sent]
        answered = [self.replies[r][0] for r in ids if r in self.replies]
        span = max(answered) - t0 if answered else 0.0
        return {
            "sent": len(sent), "failed": failed, "codes": codes,
            "drained": drained, "t0": t0, "t_end": end,
            "latencies_ms": latencies, "ids": ids,
            "goodput": (len(sent) - failed) / span if span > 0 else 0.0,
            "lateness_p50_ms": percentile(lateness, 50) if lateness else 0.0,
            "lateness_max_ms": max(lateness) if lateness else 0.0,
        }

    def close(self) -> None:
        self.client.close()
        self.reader.join(5.0)


def _messages(stream: RequestStream, digests, trees, count: int) -> list[tuple]:
    """``count`` solve messages plus the triple each one carries."""
    from repro.serve.client import build_solve_request

    out = []
    for _ in range(count):
        i, t, prices = stream.next()
        out.append((build_solve_request(prices, trees[t], instance=digests[i]), (i, t, prices)))
    return out


class Session:
    """Inputs plus the phases run against one fleet."""

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        from repro.bcpop.io import save_bcpop

        self.seed = seed
        self.shape = SCALES[scale]
        self.instances, self.trees, self.stream = make_inputs(seed, scale)
        self.digests = [inst.digest for inst in self.instances]
        self.workdir = workdir
        self.files = []
        for k, inst in enumerate(self.instances):
            path = os.path.join(workdir, f"instance-{k:02d}.json")
            save_bcpop(inst, path)
            self.files.append(path)
        self.phases: dict[str, dict] = {}
        self.sent_triples: dict[int, tuple] = {}

    def start_fleet(self, tag: str, trace_dir: str | None = None) -> Fleet:
        fleet = Fleet(self.files, os.path.join(self.workdir, f"serve-{tag}.log"), trace_dir)
        try:
            fleet.wait_ready()
        except Exception:
            fleet.stop()
            raise
        return fleet

    def run_phase(self, load: LoadGen, name: str, count: int, rate: float | None = None,
                  window: int | None = None) -> dict:
        """``count`` requests at ``rate`` per second (open loop) or with
        ``window`` in flight (closed loop)."""
        batch = _messages(self.stream, self.digests, self.trees, count)
        messages = [m for m, _ in batch]
        result = load.phase(messages, rate) if window is None else load.closed(messages, window)
        for rid, (_, triple) in zip(result["ids"], batch):
            self.sent_triples[rid] = triple
        self.phases[name] = result
        return result

    def replay(self, load: LoadGen, seconds: float, tag: str, capacity: bool = True) -> dict:
        """The run's traffic from its start: warm-up, open loop and, with
        ``capacity``, the closed-loop chunks.  Phase names start with
        ``tag``; every replay sends the identical request sequence."""
        self.stream = RequestStream(self.seed, self.instances, len(self.trees))
        rate = self.shape["rate"]
        self.run_phase(load, tag + "warmup", max(20, int(rate * seconds * WARMUP_SHARE)), rate)
        out = {"open_loop": self.run_phase(
            load, tag + "open_loop", max(40, int(rate * seconds * OPEN_LOOP_SHARE)), rate)}
        if capacity:
            out["capacity"] = self.capacity(load, seconds, tag)
        return out

    def capacity(self, load: LoadGen, seconds: float, tag: str) -> list[dict]:
        """The closed-loop chunks; a chunk passes when its replies were all
        ok with the p90 within ``P90_LIMIT_MS``."""
        count = max(20, int(seconds * CAPACITY_PER_S) // CAPACITY_CHUNKS)
        chunks = []
        for k in range(CAPACITY_CHUNKS):
            result = self.run_phase(load, f"{tag}capacity_{k}", count, window=CAPACITY_WINDOW)
            result["passed"] = (not result["failed"]
                                and percentile(result["latencies_ms"], 90) <= P90_LIMIT_MS)
            chunks.append(result)
        return chunks

    def verify(self, load: LoadGen, phase: str) -> list[str]:
        """Re-solve a fixed sample of the phase's replies in-process; every
        served %-gap must equal the fresh one bit for bit."""
        from repro.bcpop.evaluate import LowerLevelEvaluator

        ids = self.phases[phase]["ids"]
        step = max(1, len(ids) // CHECK_SAMPLE)
        problems = []
        for rid in ids[::step][:CHECK_SAMPLE]:
            got = load.replies.get(rid)
            if got is None or not got[1].get("ok"):
                problems.append(f"{phase} request {rid}: no ok reply")
                continue
            i, t, prices = self.sent_triples[rid]
            fresh = LowerLevelEvaluator(self.instances[i], memo_size=0).evaluate_heuristic_fresh(
                prices, self.trees[t]
            )
            if float(fresh.gap) != got[1]["gap"]:
                problems.append(f"{phase} request {rid}: served gap {got[1]['gap']!r} "
                                f"!= {fresh.gap!r}")
        return problems


def replay_gaps_agree(first: dict, second: dict, loads: tuple) -> list[str]:
    """Two replays sent the same requests in the same order: every
    open-loop request answered in both must carry the same gap."""
    problems = []
    for k, (a, b) in enumerate(zip(first["ids"], second["ids"])):
        ra, rb = loads[0].replies.get(a), loads[1].replies.get(b)
        if ra and rb and ra[1].get("ok") and rb[1].get("ok") and ra[1]["gap"] != rb[1]["gap"]:
            problems.append(f"open-loop request {k}: replays served gaps "
                            f"{ra[1]['gap']!r} and {rb[1]['gap']!r}")
    return problems


def best_of_replays(replays: list[dict]) -> tuple[list[float], float, int]:
    """Open-loop latencies (per request, the lowest of its replays) and the
    capacity (per chunk, the highest goodput of the replays that passed;
    then the median over chunks; 0 when no chunk passed anywhere)."""
    latencies = [min(v) for v in zip(*(r["open_loop"]["latencies_ms"] for r in replays))]
    best = []
    for chunk in zip(*(r["capacity"] for r in replays)):
        passed = [c["goodput"] for c in chunk if c["passed"]]
        if passed:
            best.append(max(passed))
    return latencies, (median(best) if best else 0.0), len(best)


def _phase_counts(phases: dict) -> dict:
    """Attempted/succeeded/failed and generator lateness per phase (the
    capacity steps summed into one ``capacity`` row)."""
    out: dict[str, dict] = {}
    for name, p in phases.items():
        key = name.split("capacity_")[0] + "capacity" if "capacity_" in name else name
        row = out.setdefault(key, {"attempted": 0, "succeeded": 0, "failed": 0,
                                   "lateness_p50_ms": 0.0, "lateness_max_ms": 0.0})
        row["attempted"] += p["sent"]
        row["succeeded"] += p["sent"] - p["failed"]
        row["failed"] += p["failed"]
        row["lateness_p50_ms"] = round(max(row["lateness_p50_ms"], p["lateness_p50_ms"]), 3)
        row["lateness_max_ms"] = round(max(row["lateness_max_ms"], p["lateness_max_ms"]), 3)
        if "passed" in p:
            row["window"] = p["window"]
            row.setdefault("chunks", []).append(
                f"{'pass' if p['passed'] else 'fail'}:{p['goodput']:.1f}/s:"
                f"p90 {percentile(p['latencies_ms'], 90):.1f}ms")
        else:
            row["rate"] = p["rate"]
    return out


def _fleet_stats(load: LoadGen, fleet: Fleet) -> dict:
    from repro.serve.client import ServeClient

    router = load.call({"op": "stats"})["stats"]
    shards = []
    for row in fleet.shard_rows:
        with ServeClient("127.0.0.1", row["port"], timeout=30) as c:
            shards.append(c.stats())
    return {"router": router, "shards": shards}


def _serve_layers(stats: dict, topology: list[dict], open_loop: dict,
                  window, untraced_p50: float) -> dict:
    """The ``serve.*`` metrics plus the shares, from the stats op, the
    topology and the shard spans of the open-loop window."""
    router, shards = stats["router"], stats["shards"]
    solved = [s["solved"] for s in shards]
    shard_p50 = (sum(s["latency_ms"]["p50"] * n for s, n in zip(shards, solved))
                 / max(1, sum(solved)))
    batches = window.of("evaluate.pipeline")
    exec_ms = [r["dur"] * 1e3 for r in batches]
    per_request = [r["dur"] * 1e3 for r in batches for _ in range(r["info"].get("requests", 1))]
    lookups = [s["pipeline_requests"] for s in shards]
    fresh = [max(0.0, n * (1 - s["memo_hit_rate"]) - s["pipeline_deduplicated"])
             for s, n in zip(shards, lookups)]
    routed = [row["routed"] for row in topology]
    client_p50 = percentile(open_loop["latencies_ms"], 50)
    n_batches = sum(s["batches"] for s in shards)
    return {
        "serve.router.hop_ms": router["latency_ms"]["p50"] - shard_p50,
        "serve.queue_wait_ms": shard_p50 - (percentile(per_request, 50) if per_request else 0.0),
        "serve.batch.exec_ms": percentile(exec_ms, 50) if exec_ms else 0.0,
        "serve.batch.size_mean": (sum(s["mean_batch_size"] * s["batches"] for s in shards)
                                  / max(1, n_batches)),
        "serve.shard_share": max(routed) / max(1, sum(routed)),
        "serve.overloads": float(router["overloads"]),
        "serve.timeouts": float(router["timeouts"]),
        "serve.failovers": float(router["failovers"]),
        "serve.memo.hit_ratio": (sum(s["memo_hit_rate"] * n for s, n in zip(shards, lookups))
                                 / max(1, sum(lookups))),
        "serve.lp_cache.hit_ratio": (sum(s["lp_cache_hit_rate"] * f for s, f in zip(shards, fresh))
                                     / max(1.0, sum(fresh))),
        "unattributed_share": max(0.0, client_p50 - router["latency_ms"]["p50"]) / client_p50,
        "trace.overhead_share": client_p50 / untraced_p50 - 1.0,
    }


def run(seed: int, seconds: float, trace: bool, scale: str) -> int:
    from layers import PER_LAYER, SpanTable, load_span_files, program_layers

    env = environment()
    workdir = os.path.join(WORK_DIR, f"serve-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    session = Session(seed, scale, workdir)
    problems: list[str] = []
    record: dict = {"environment": env}

    if not trace:
        setups, replays, loads, processes = [], [], [], []
        for r in range(REPLAYS):
            fleet = session.start_fleet(f"replay{r}")
            setups.append(fleet.setup_s)
            load = None
            try:
                load = LoadGen(fleet.port)
                replays.append(session.replay(load, seconds, f"r{r}_"))
                processes.append([proc_status(pid) for pid in fleet.pids()])
                problems += session.verify(load, f"r{r}_open_loop")
            finally:
                fleet.stop(load)
                if load is not None:
                    load.close()
            loads.append(load)
        problems += replay_gaps_agree(replays[0]["open_loop"], replays[-1]["open_loop"],
                                      (loads[0], loads[-1]))
        lat, capacity, chunks = best_of_replays(replays)
        if capacity <= 0:
            problems.append("no capacity chunk met the latency limit")
        metrics = {
            "setup_s": Metric(median(setups), "s", len(setups)),
            "p50_ms": Metric(percentile(lat, 50), "ms", len(lat)),
            "p90_ms": Metric(percentile(lat, 90), "ms", len(lat)),
            "throughput_per_s": Metric(capacity, "1/s", chunks, "capacity_rps"),
            "peak_rss_mb": Metric(
                median(sum(p["rss_peak_mb"] for p in fleet) for fleet in processes), "MB",
                len(processes)),
        }
        record.update(setups_s=setups, processes=processes)
    else:
        trace_dir = os.path.join(workdir, "trace")
        os.makedirs(trace_dir)
        plain = session.start_fleet("untraced")
        load = None
        try:
            load = LoadGen(plain.port)
            untraced = session.replay(load, seconds, "untraced_", capacity=False)["open_loop"]
        finally:
            plain.stop(load)
            if load is not None:
                load.close()
        # The traced fleet gets the identical request sequence, so the
        # tracing overhead is measured on the same work.
        fleet = session.start_fleet("traced", trace_dir)
        load = None
        try:
            load = LoadGen(fleet.port)
            open_loop = session.replay(load, seconds, "", capacity=False)["open_loop"]
            stats = _fleet_stats(load, fleet)
            session.capacity(load, seconds, "")
            end_stats = load.call({"op": "stats"})["stats"]
            topology = load.call({"op": "shards"})["shards"]
            problems += session.verify(load, "open_loop")
        finally:
            fleet.stop(load)
            if load is not None:
                load.close()
        stats["router"].update({k: end_stats[k] for k in ("overloads", "timeouts", "failovers")})
        table = SpanTable(load_span_files(trace_dir))
        # Layer counts and times cover the open loop only: a fixed request
        # sequence at a fixed rate, the same work whatever the speed.
        window = table.within(open_loop["t0"], open_loop["t_end"])
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(program_layers(window))
        values.update(_serve_layers(stats, topology, open_loop, window,
                                    percentile(untraced["latencies_ms"], 50)))
        if not any(r["name"] == "evaluate.pipeline" for r in table.rows):
            problems.append("no shard spans were recorded")
        metrics = {k: Metric(v, PER_LAYER[k][0], len(open_loop["latencies_ms"]))
                   for k, v in values.items()}
        record.update(fleet_stats=stats, span_processes=len({r["pid"] for r in table.rows}))

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    phases = _phase_counts(session.phases)
    record.update(phases=phases, problems=problems, repeats=session.stream.repeats)
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values()) + len(problems)
    return emit("serve-routed", seed, trace, not problems, attempted, failed, metrics, record)

"""Span tracer that wraps the program's layer entry points from outside.

The benchmark never edits ``src/``.  A traced process calls
:func:`install`, which replaces each layer's public entry point with a
thin wrapper that records one span per call (name, start, end, parent
span, thread) and a few counts read from the call's arguments and
result.  :func:`uninstall` puts every original callable back, so an
untraced measurement in the same process sees the unmodified program.

Spans are kept in memory and written to ``<trace dir>/spans-<pid>.json``
(the directory ``CARBONBENCH_TRACE_DIR`` names) when the process ends: at
normal exit (``atexit``, which also covers spawn-context pool workers) and
on SIGTERM, which is how the router stops its shard processes.

Only layer entry points are wrapped, never per-node GP primitives: a
wrapper costs about a microsecond, and ``_protected_div`` alone runs
six figures of times per training job.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import pickle
import signal
import threading
import time
from typing import Any, Callable

_clock = time.perf_counter


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, out_dir: str | None) -> None:
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self._flushed = False

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             before=None, after=None) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else 0
        pre = before(args) if before is not None else None
        stack.append(sid)
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
        info = after(pre, args, result) if after is not None else None
        self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), info))
        return result

    def record(self, name: str, t0: float, t1: float) -> None:
        """Add a span the caller timed, as a child of the current span."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        self.spans.append((next(self._ids), parent, name, t0, t1, threading.get_ident(), None))

    def root(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as a root span (the workload's unit of work)."""
        return self.call(name, fn, args, kwargs)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` (a module function or a class method)
        with a span-recording wrapper."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, original, args, kwargs, before, after)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def unwrap_all(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    @property
    def patches(self) -> list[tuple[Any, str, Any, bool]]:
        return list(self._patches)

    # -- output ------------------------------------------------------------

    def flush(self) -> None:
        """Write this process's spans once (atexit and SIGTERM both call)."""
        if self._flushed or self.out_dir is None:
            return
        self._flushed = True
        doc = {"pid": os.getpid(), "ppid": os.getppid(), "spans": list(self.spans)}
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


# -- what gets wrapped ----------------------------------------------------------


def _greedy_after(pre, args, result):
    return {"picks": int(result.iterations)}


def _pipeline_before(args):
    pipeline = args[0]
    memo = pipeline.evaluator.memo
    return (
        (memo.hits, memo.misses) if memo is not None else (0, 0),
        pipeline.n_deduplicated,
    )


def _pipeline_after(pre, args, result):
    pipeline = args[0]
    memo = pipeline.evaluator.memo
    hits, misses = (memo.hits, memo.misses) if memo is not None else (0, 0)
    (hits0, misses0), dedup0 = pre
    return {
        "requests": len(args[1]),
        "memo_hits": hits - hits0,
        "memo_lookups": (hits - hits0) + (misses - misses0),
        "dedup": pipeline.n_deduplicated - dedup0,
    }


def _map_after(pre, args, result):
    # Pickling the payloads again costs time the program does not spend;
    # it is recorded as a ``trace.overhead`` child so it counts against no
    # layer of the program.
    t0 = _clock()
    executor, _fn, items = args[0], args[1], args[2]
    info = {
        "items": len(items),
        "workers": int(getattr(executor, "workers", 1)),
        "bytes_out": len(pickle.dumps(list(items), protocol=pickle.HIGHEST_PROTOCOL)),
        "bytes_in": len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)),
    }
    _TRACER.record("trace.overhead", t0, _clock())
    return info


def _targets():
    """``(owner, attribute, span name, before, after)`` for every wrapped
    entry point.  Functions are patched at the module that *calls* them
    (``from x import f`` binds a name per importing module).  The serve
    client is not wrapped: the only client is the benchmark itself, which
    timestamps every request it sends and every reply it reads."""
    import repro.bcpop.evaluate as evaluate
    import repro.core.carbon as carbon
    import repro.gp.compile as gp_compile
    import repro.lp.bounds as lp_bounds
    import repro.parallel.executor as executor

    targets = [
        (evaluate, "greedy_cover", "covering.greedy", None, _greedy_after),
        (lp_bounds, "solve_relaxation", "lp.relaxation", None, None),
        (gp_compile.CompileCache, "get", "gp.compile_cache", None, None),
        (gp_compile, "compile_tree", "gp.compile", None, None),
        (evaluate.LowerLevelEvaluator, "evaluate_heuristic_fresh", "evaluate.fresh",
         None, None),
        (evaluate.EvaluationPipeline, "evaluate_heuristics", "evaluate.pipeline",
         _pipeline_before, _pipeline_after),
        (evaluate, "evaluate_heuristic_batch", "parallel.worker", None, None),
        (executor.SerialExecutor, "map", "parallel.map", None, _map_after),
        (executor.ProcessExecutor, "map", "parallel.map", None, _map_after),
        (carbon.Carbon, "step", "engine.step", None, None),
    ]
    for op in ("sbx_crossover", "polynomial_mutation", "binary_tournament",
               "random_real_population"):
        targets.append((carbon, op, "ga.variation", None, None))
    for op in ("one_point_crossover", "uniform_mutation", "reproduce", "tournament",
               "ramped_half_and_half"):
        targets.append((carbon, op, "gp.variation", None, None))
    return targets


_TRACER: Tracer | None = None


def active() -> Tracer | None:
    return _TRACER


def _on_sigterm(signum, frame):
    if _TRACER is not None:
        _TRACER.flush()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def install(out_dir: str | None) -> Tracer:
    """Wrap every layer entry point in this process (idempotent)."""
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    tracer = Tracer(out_dir)
    _TRACER = tracer
    for owner, attr, name, before, after in _targets():
        tracer.wrap(owner, attr, name, before, after)
    if out_dir is not None:
        atexit.register(tracer.flush)
        if (threading.current_thread() is threading.main_thread()
                and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL):
            signal.signal(signal.SIGTERM, _on_sigterm)
    return tracer


def uninstall() -> list[Any]:
    """Restore every wrapped callable; returns the recorded spans."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    if tracer is None:
        return []
    tracer.unwrap_all()
    if signal.getsignal(signal.SIGTERM) is _on_sigterm:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    return list(tracer.spans)

"""Shared lower-level evaluation pipeline.

Both algorithms funnel every lower-level evaluation through
:class:`LowerLevelEvaluator`, which (a) induces the covering instance for a
pricing decision, (b) obtains the LP relaxation (cached — CARBON re-solves
the same induced instance once per heuristic candidate), (c) runs the
requested solver, and (d) computes the paper's %-gap and the leader revenue.
Centralizing this also gives exact evaluation-budget accounting: the
counter ``n_evaluations`` counts *solver work actually performed* — memo
hits (below) are served without touching it, so it is the exact number of
greedy solves, while the algorithms' own ``ul_used``/``ll_used`` counters
remain the paper's logical "fitness evaluations" (Table II caps them at
50 000).

Two layers sit in front of the raw solve:

* :class:`EvaluationMemo` — a content-addressed LRU memo of full
  :class:`LowerLevelOutcome` objects keyed on ``(instance digest, rounded
  price vector, canonical GP-tree serialization)``.  A co-evolutionary run
  re-evaluates identical (prices, heuristic) pairs constantly (elites,
  reproduced trees, champion pairing), and every such re-solve is pure, so
  memoization is exact, not approximate.
* :class:`EvaluationPipeline` — batches whole populations of evaluation
  requests, dedupes them against the memo, and fans the residual fresh
  work out over a :class:`repro.parallel.executor.Executor`.  Workers keep
  a per-instance evaluator (warm LP-relaxation cache) alive across
  generations; the parent applies results in request order, so serial and
  process execution are bit-identical.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.bcpop.instance import BcpopInstance
from repro.covering.greedy import (
    ContextStatics,
    ScoreFunction,
    greedy_cover,
    greedy_cover_lockstep,
)
from repro.covering.instance import CoveringInstance, CoverSolution
from repro.covering.repair import repair_cover
from repro.gp.compile import CompileCache, CompiledProgram
from repro.gp.tree import SyntaxTree
from repro.lp.bounds import RelaxationCache
from repro.lp.relaxation import Relaxation
from repro.parallel.executor import Executor, ProcessExecutor
from repro.utils.profiling import HotPathTimers

__all__ = [
    "DEFAULT_MEMO_SIZE",
    "LowerLevelOutcome",
    "LowerLevelEvaluator",
    "EvaluationMemo",
    "EvaluationPipeline",
]

#: Default outcome-memo capacity.  The single source of truth — the
#: :class:`repro.core.config.ExecutionConfig` default defers to it, so
#: tuning memo pressure is one edit (or one config field) everywhere.
DEFAULT_MEMO_SIZE = 8192


@dataclass(frozen=True)
class LowerLevelOutcome:
    """Everything the upper level needs to know about one LL evaluation.

    Attributes
    ----------
    prices:
        The UL decision that induced the instance.
    selection:
        Follower basket (boolean, all ``M`` bundles).
    ll_cost:
        Follower objective ``f = sum_j c_j x_j``.
    revenue:
        Leader payoff ``F = sum_{j<=L} c_j x_j``.
    gap:
        Paper Eq. 1: ``100 (ll_cost - LB) / LB`` — the bi-level
        feasibility measure.
    lower_bound:
        ``LB(x)`` from the LP relaxation.
    feasible:
        Whether the basket covers the demand (false only for uncoverable
        instances).
    """

    prices: np.ndarray
    selection: np.ndarray
    ll_cost: float
    revenue: float
    gap: float
    lower_bound: float
    feasible: bool


class EvaluationMemo:
    """Content-addressed LRU memo of :class:`LowerLevelOutcome` objects.

    Keys are opaque byte strings built by
    :meth:`LowerLevelEvaluator.heuristic_key`; a hit returns the exact
    outcome object of the original evaluation (greedy solves are pure, so
    the memoized value *is* a fresh evaluation).  ``hits``/``misses``
    count lookups only — the budget-relevant "work performed" counter
    lives on the evaluator and is advanced once per fresh solve.
    """

    def __init__(self, maxsize: int = DEFAULT_MEMO_SIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._store: OrderedDict[bytes, LowerLevelOutcome] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: bytes) -> LowerLevelOutcome | None:
        found = self._store.get(key)
        if found is not None:
            self.hits += 1
            self._store.move_to_end(key)
            return found
        self.misses += 1
        return None

    def put(self, key: bytes, outcome: LowerLevelOutcome) -> None:
        self._store[key] = outcome
        self._store.move_to_end(key)
        if len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Price-vector quantization step for memo keys — same quantum/rationale as
#: :class:`repro.lp.bounds.RelaxationCache` (prices live in [0, ~1e3]).
_PRICE_QUANTUM = 1e-9


class LowerLevelEvaluator:
    """Evaluation service for one BCPOP instance.

    Parameters
    ----------
    instance:
        The bi-level problem.
    lp_backend:
        Forwarded to :class:`repro.lp.bounds.RelaxationCache`.
    cache_size:
        LRU capacity for relaxations.
    gap_eps:
        Guard for the gap denominator (DESIGN.md §5).
    memo_size:
        Capacity of the outcome memo (0 disables memoization entirely).
        Only heuristic evaluations with a content-addressable solver — GP
        syntax trees — are memoized; opaque callables (hand-written or
        stochastic heuristics) always evaluate fresh.
    compile:
        Lower GP trees to :class:`repro.gp.compile.CompiledProgram`
        bytecode before solving (bit-identical to the interpreter, just
        faster) and share the precomputed static feature matrices across
        all solves of the instance family.  ``False`` restores the exact
        original interpreter path — the differential-testing oracle.
    lp_warm_start:
        Warm-start the own-simplex relaxations from the nearest cached
        basis (forwarded to :class:`repro.lp.bounds.RelaxationCache`).
        Off by default: at degenerate optima a warm solve may settle on
        an alternate optimal vertex (same bound, different duals/x̄), so
        this is an opt-in speed/strictness trade — never enabled on the
        determinism-gated default paths.
    timers:
        Optional :class:`repro.utils.profiling.HotPathTimers` wrapping
        the kernel sections; a disabled instance (default) never reads a
        clock.
    """

    def __init__(
        self,
        instance: BcpopInstance,
        lp_backend: str = "scipy",
        cache_size: int = 4096,
        gap_eps: float = 1e-9,
        memo_size: int = DEFAULT_MEMO_SIZE,
        compile: bool = True,
        lp_warm_start: bool = False,
        timers: HotPathTimers | None = None,
    ) -> None:
        self.instance = instance
        self.lp_backend = lp_backend
        self.lp_warm_start = lp_warm_start
        self._cache = RelaxationCache(
            backend=lp_backend, maxsize=cache_size, warm_start=lp_warm_start
        )
        self.gap_eps = gap_eps
        self.memo = EvaluationMemo(memo_size) if memo_size > 0 else None
        self.compile = compile
        self.kernel = CompileCache() if compile else None
        self._statics: ContextStatics | None = None
        self.timers = timers if timers is not None else HotPathTimers()
        self.n_evaluations = 0
        self.n_lp_solves_saved = 0

    def relaxation(self, prices: np.ndarray) -> Relaxation:
        """LP relaxation of the instance induced by ``prices`` (cached)."""
        ll = self.instance.lower_level(prices)
        before = self._cache.hits
        relax = self._cache.get(ll)
        self.n_lp_solves_saved += self._cache.hits - before
        return relax

    def _outcome(
        self,
        prices: np.ndarray,
        selection: np.ndarray,
        relax: Relaxation,
        feasible: bool,
    ) -> LowerLevelOutcome:
        ll = self.instance.lower_level(prices)
        cost = ll.cost_of(selection)
        gap = relax.percent_gap(cost, eps=self.gap_eps) if feasible else np.inf
        self.n_evaluations += 1
        return LowerLevelOutcome(
            prices=np.asarray(prices, dtype=np.float64).copy(),
            selection=np.asarray(selection, dtype=bool).copy(),
            ll_cost=cost,
            revenue=self.instance.revenue(prices, selection),
            gap=gap,
            lower_bound=relax.lower_bound,
            feasible=feasible,
        )

    def heuristic_key(
        self, prices: np.ndarray, score_fn: ScoreFunction
    ) -> bytes | None:
        """Memo key for a heuristic evaluation, or ``None`` when the solver
        is not content-addressable (an opaque/stochastic callable).

        The key is the triple (instance digest, quantized price vector,
        canonical tree serialization) — *not* the display form, so trees
        that merely print alike (ERC rounding in ``to_infix``) never
        collide.
        """
        if not isinstance(score_fn, SyntaxTree):
            return None
        prices = self.instance.validate_prices(prices)
        quantized = np.round(prices / _PRICE_QUANTUM).tobytes()
        return b"|".join(
            (
                self.instance.digest.encode("ascii"),
                quantized,
                score_fn.serialize().encode("ascii"),
            )
        )

    def _solver_for(self, score_fn: ScoreFunction) -> ScoreFunction:
        """The executable form of ``score_fn``: its compiled program when
        the kernel is enabled and the solver is a syntax tree (compiled
        once per structurally distinct tree), otherwise the callable
        itself."""
        if self.kernel is not None and isinstance(score_fn, SyntaxTree):
            with self.timers.section("compile"):
                return self.kernel.get(score_fn)
        return score_fn

    def evaluate_heuristic_fresh(
        self, prices: np.ndarray, score_fn: ScoreFunction
    ) -> LowerLevelOutcome:
        """One uncached heuristic evaluation (always counts as work)."""
        return self.evaluate_heuristics_fresh([(prices, score_fn)])[0]

    def evaluate_heuristics_fresh(
        self, requests: Sequence[tuple[np.ndarray, ScoreFunction]]
    ) -> list[LowerLevelOutcome]:
        """Uncached evaluations of ``(prices, score_fn)`` requests, in
        request order (each counts as work).

        Relaxations and compiled programs are taken request by request,
        exactly as a loop of :meth:`evaluate_heuristic_fresh` would, so
        the LP cache, its warm-start donors and the compile cache see the
        same sequence.  The greedy solves of the requests sharing one
        compiled program then run as one lockstep pass
        (:func:`greedy_cover_lockstep`), bit-identical row for row to
        solving them one at a time.  A program used once, an opaque
        callable and every solve under ``compile=False`` take the
        per-solve :func:`greedy_cover`; opaque callables run in request
        order, so a stochastic one draws its numbers as before.
        """
        jobs: list[tuple[np.ndarray, CoveringInstance, Relaxation, ScoreFunction]] = []
        for prices, score_fn in requests:
            prices = self.instance.validate_prices(prices)
            ll = self.instance.lower_level(prices)
            with self.timers.section("lp"):
                relax = self.relaxation(prices)
            jobs.append((prices, ll, relax, self._solver_for(score_fn)))
        # Solve groups in first-occurrence order: one per compiled
        # program, one per request for every other solver.
        groups: list[list[int]] = []
        by_program: dict[str, list[int]] = {}
        for i, (_, _, _, solver) in enumerate(jobs):
            if self.compile and isinstance(solver, CompiledProgram):
                if solver.key in by_program:
                    by_program[solver.key].append(i)
                    continue
                by_program[solver.key] = members = [i]
            else:
                members = [i]
            groups.append(members)
        if self.compile and jobs and self._statics is None:
            # The induced instances of one bi-level problem share
            # (q, demand); the static feature matrices are built once and
            # reused across the whole population's solves (bit-identical
            # to rebuilding them — same expressions, same inputs).
            self._statics = ContextStatics.for_instance(jobs[0][1])
        statics = self._statics if self.compile else None
        solutions: list[CoverSolution | None] = [None] * len(jobs)
        for members in groups:
            _, ll, relax, solver = jobs[members[0]]
            with self.timers.section("greedy"):
                if len(members) == 1:
                    solutions[members[0]] = greedy_cover(
                        ll, solver, duals=relax.duals, xbar=relax.xbar, statics=statics
                    )
                    continue
                solved = greedy_cover_lockstep(
                    [jobs[k][1] for k in members],
                    solver,
                    duals=[jobs[k][2].duals for k in members],
                    xbars=[jobs[k][2].xbar for k in members],
                    statics=statics,
                )
            for k, sol in zip(members, solved):
                solutions[k] = sol
        outcomes = []
        for (prices, _, relax, _), sol in zip(jobs, solutions):
            assert sol is not None
            outcomes.append(self._outcome(prices, sol.selected, relax, sol.feasible))
        return outcomes

    def evaluate_heuristic(
        self, prices: np.ndarray, score_fn: ScoreFunction
    ) -> LowerLevelOutcome:
        """CARBON path: solve the induced instance with a scoring heuristic.

        The relaxation's duals and x̄ are passed into the greedy context, so
        GP trees can use the ``DUAL``/``XLP`` terminals of Table I.

        When ``score_fn`` is a syntax tree and the memo is enabled, an
        identical earlier evaluation is returned directly (bit-equal, the
        solve being pure) without advancing ``n_evaluations``.
        """
        key = self.heuristic_key(prices, score_fn) if self.memo is not None else None
        if key is not None:
            found = self.memo.get(key)
            if found is not None:
                return found
        outcome = self.evaluate_heuristic_fresh(prices, score_fn)
        if key is not None:
            self.memo.put(key, outcome)
        return outcome


    def evaluate_selection(
        self, prices: np.ndarray, selection: np.ndarray, repair: bool = True
    ) -> LowerLevelOutcome:
        """COBRA path: evaluate an explicit binary basket (repairing
        under-covering offspring first, the standard treatment)."""
        prices = self.instance.validate_prices(prices)
        ll = self.instance.lower_level(prices)
        sel = np.asarray(selection, dtype=bool)
        if repair and not ll.is_feasible(sel):
            sel = repair_cover(ll, sel)
        relax = self.relaxation(prices)
        return self._outcome(prices, sel, relax, ll.is_feasible(sel))

    @property
    def cache_stats(self) -> dict:
        out = {
            "entries": len(self._cache),
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "hit_rate": self._cache.hit_rate,
        }
        if self.lp_warm_start:
            out["warm_start"] = self._cache.warm_stats
        return out

    @property
    def kernel_stats(self) -> dict:
        """Compile-cache counters (``{"enabled": False}`` when off)."""
        if self.kernel is None:
            return {"enabled": False}
        return {"enabled": True, **self.kernel.stats}

    @property
    def memo_stats(self) -> dict:
        if self.memo is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "entries": len(self.memo),
            "capacity": self.memo.maxsize,
            "hits": self.memo.hits,
            "misses": self.memo.misses,
            "evictions": self.memo.evictions,
            "hit_rate": self.memo.hit_rate,
        }


# -- worker-side machinery ---------------------------------------------------
#
# Tasks shipped to a ProcessExecutor must be picklable top-level callables
# over picklable descriptors.  A batch descriptor carries the instance as a
# pre-pickled blob (serialized once per map call, not once per task) plus its
# digest; each worker keeps one evaluator per (digest, backend) alive for the
# life of the pool, so the instance is unpickled and the LP-relaxation cache
# warmed once per worker rather than once per generation.

_WORKER_EVALUATORS: dict[tuple[str, str, bool, bool], Any] = {}


def _worker_evaluator(
    blob: bytes,
    digest: str,
    lp_backend: str,
    gap_eps: float,
    compile: bool,
    lp_warm_start: bool,
):
    key = (digest, lp_backend, compile, lp_warm_start)
    found = _WORKER_EVALUATORS.get(key)
    if found is None:
        instance = pickle.loads(blob)
        # Workers never memoize: the parent owns the memo and dedupes
        # before dispatch, so a worker memo would only hide work counts.
        # The instance picks its own evaluator class, so non-BCPOP
        # families (e.g. the bilinear toy) ride the same pool.  The
        # compile/warm-start flags ship with the header so workers run
        # the same kernel configuration as the parent.
        found = instance.make_evaluator(
            lp_backend=lp_backend,
            gap_eps=gap_eps,
            memo_size=0,
            compile=compile,
            lp_warm_start=lp_warm_start,
        )
        _WORKER_EVALUATORS[key] = found
    return found


def evaluate_heuristic_batch(batch: tuple) -> list[LowerLevelOutcome]:
    """Worker entry point: evaluate a batch of (prices, score_fn) requests
    against one instance.  Pure — results depend only on the descriptor."""
    blob, digest, lp_backend, gap_eps, compile, lp_warm_start, requests = batch
    evaluator = _worker_evaluator(
        blob, digest, lp_backend, gap_eps, compile, lp_warm_start
    )
    return evaluator.evaluate_heuristics_fresh(requests)


def solve_relaxation_batch(batch: tuple) -> list[Relaxation]:
    """Worker entry point: LP relaxations for a batch of price vectors."""
    blob, digest, lp_backend, gap_eps, compile, lp_warm_start, price_list = batch
    evaluator = _worker_evaluator(
        blob, digest, lp_backend, gap_eps, compile, lp_warm_start
    )
    return [evaluator.relaxation(prices) for prices in price_list]


def _is_process_safe(score_fn: ScoreFunction) -> bool:
    """Whether a solver can cross a process boundary: syntax trees pickle
    by node name; other callables must survive ``pickle`` (closures — e.g.
    the stochastic "random" heuristic — do not, and must stay in-process
    to preserve the parent RNG sequence anyway)."""
    if isinstance(score_fn, SyntaxTree):
        return True
    try:
        pickle.dumps(score_fn)
    except Exception:
        return False
    return True


class EvaluationPipeline:
    """Batched population evaluation: memo → dedup → executor fan-out.

    The pipeline is the single entry point the algorithms use to evaluate
    whole populations.  For each request it (1) consults the parent memo,
    (2) groups the remaining requests by content key so each distinct
    (prices, heuristic) pair is solved once, and (3) evaluates the unique
    residue either in-process (serial executors, tiny batches, unpicklable
    solvers) or on the worker pool.  Results are re-expanded in request
    order, so the caller observes identical outcomes — bit-for-bit — no
    matter which executor ran the work.

    Parameters
    ----------
    evaluator:
        The parent evaluator (owns memo, LP cache, and work counters).
    executor:
        ``None`` or :class:`SerialExecutor` for in-process evaluation; a
        :class:`ProcessExecutor` for fan-out.
    batches_per_worker:
        Load-balancing factor: a map call is split into at most
        ``workers * batches_per_worker`` batches.
    """

    def __init__(
        self,
        evaluator: LowerLevelEvaluator,
        executor: Executor | None = None,
        batches_per_worker: int = 4,
    ) -> None:
        if batches_per_worker < 1:
            raise ValueError("batches_per_worker must be >= 1")
        self.evaluator = evaluator
        self.executor = executor
        self.batches_per_worker = batches_per_worker
        self.n_requests = 0
        self.n_deduplicated = 0
        self.n_parent_evaluations = 0
        self.n_worker_evaluations = 0
        self.n_worker_batches = 0

    # -- internals ---------------------------------------------------------

    def _instance_header(self) -> tuple:
        instance = self.evaluator.instance
        return (
            pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL),
            instance.digest,
            self.evaluator.lp_backend,
            self.evaluator.gap_eps,
            self.evaluator.kernel is not None,
            getattr(self.evaluator, "lp_warm_start", False),
        )

    def _split(self, items: list) -> list[list]:
        """Contiguous near-even batches (order-preserving when re-joined)."""
        workers = self.executor.workers  # type: ignore[union-attr]
        n_batches = min(len(items), workers * self.batches_per_worker)
        bounds = np.linspace(0, len(items), n_batches + 1).astype(int)
        return [
            items[bounds[i]: bounds[i + 1]]
            for i in range(n_batches)
            if bounds[i] < bounds[i + 1]
        ]

    def _dispatch(
        self, entries: list[tuple[np.ndarray, ScoreFunction]]
    ) -> list[LowerLevelOutcome]:
        """Compute fresh outcomes for ``entries``, preserving order."""
        use_pool = (
            isinstance(self.executor, ProcessExecutor)
            and len(entries) >= 2
            and all(_is_process_safe(fn) for _, fn in entries)
        )
        if not use_pool:
            self.n_parent_evaluations += len(entries)
            return self.evaluator.evaluate_heuristics_fresh(entries)
        header = self._instance_header()
        batches = [header + (chunk,) for chunk in self._split(entries)]
        self.n_worker_batches += len(batches)
        self.n_worker_evaluations += len(entries)
        results = self.executor.map(evaluate_heuristic_batch, batches)
        # Work performed remotely still counts as work performed.
        self.evaluator.n_evaluations += len(entries)
        return [outcome for chunk in results for outcome in chunk]

    # -- public API --------------------------------------------------------

    def evaluate_heuristics(
        self, requests: list[tuple[np.ndarray, ScoreFunction]]
    ) -> list[LowerLevelOutcome]:
        """Evaluate ``(prices, score_fn)`` requests; returns outcomes in
        request order.  Memo hits and in-batch duplicates are served from
        one solve; only unique fresh work reaches the executor."""
        self.n_requests += len(requests)
        results: list[LowerLevelOutcome | None] = [None] * len(requests)
        pending: "OrderedDict[bytes, list[int]]" = OrderedDict()
        opaque: list[int] = []
        memo = self.evaluator.memo
        for i, (prices, fn) in enumerate(requests):
            # NB: ``memo is not None`` — EvaluationMemo has __len__, so an
            # *empty* memo is falsy and a plain truthiness test would
            # disable memoization before the first entry ever lands.
            key = self.evaluator.heuristic_key(prices, fn) if memo is not None else None
            if key is None:
                opaque.append(i)
                continue
            # repro-lint: disable-next-line=F003  # keys iterate via `pending` below in insertion order = deterministic first-occurrence request order
            found = memo.get(key)
            if found is not None:
                results[i] = found
            else:
                pending.setdefault(key, []).append(i)

        # Unique fresh work, in first-occurrence order interleaved with the
        # opaque (non-memoizable) requests so the computation order is a
        # deterministic function of the request order alone.
        order: list[tuple[bytes | None, int]] = [
            # repro-lint: disable-next-line=R003  # insertion order = first-occurrence request order, exactly the determinism contract stated above
            (key, idxs[0]) for key, idxs in pending.items()
        ]
        order += [(None, i) for i in opaque]
        order.sort(key=lambda pair: pair[1])
        entries = [requests[i] for _, i in order]
        outcomes = self._dispatch(entries)
        for (key, i), outcome in zip(order, outcomes):
            if key is None:
                results[i] = outcome
                continue
            # repro-lint: disable-next-line=F003  # key order comes from `pending` (OrderedDict, insertion order) — the determinism contract documented above
            memo.put(key, outcome)
            for j in pending[key]:
                results[j] = outcome
            self.n_deduplicated += len(pending[key]) - 1
        return results  # type: ignore[return-value]

    def prefetch_relaxations(self, price_vectors: list[np.ndarray]) -> None:
        """Solve uncached LP relaxations for ``price_vectors`` on the pool
        and seed the parent relaxation cache.  A no-op for serial
        executors (the cache then fills lazily, with identical values);
        purely a latency optimization either way."""
        if not isinstance(self.executor, ProcessExecutor):
            return
        evaluator = self.evaluator
        todo: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        for prices in price_vectors:
            prices = evaluator.instance.validate_prices(prices)
            costs = evaluator.instance.lower_level(prices).costs
            if evaluator._cache.contains(costs):
                continue
            todo.setdefault(costs.tobytes(), prices)
        if len(todo) < 2:
            return
        header = self._instance_header()
        unique = list(todo.values())
        batches = [header + (chunk,) for chunk in self._split(unique)]
        self.n_worker_batches += len(batches)
        results = self.executor.map(solve_relaxation_batch, batches)
        flat = [relax for chunk in results for relax in chunk]
        for prices, relax in zip(unique, flat):
            evaluator._cache.put(
                evaluator.instance.lower_level(prices).costs, relax
            )

    @property
    def stats(self) -> dict:
        """Counters for run-result reporting (memo hit rate included)."""
        out = {
            "requests": self.n_requests,
            "deduplicated": self.n_deduplicated,
            "parent_evaluations": self.n_parent_evaluations,
            "worker_evaluations": self.n_worker_evaluations,
            "worker_batches": self.n_worker_batches,
            "executor": repr(self.executor) if self.executor else "SerialExecutor()",
            "memo": self.evaluator.memo_stats,
            "kernel": self.evaluator.kernel_stats,
        }
        timers = getattr(self.evaluator, "timers", None)
        if timers is not None and timers.enabled:
            # Wall-clock aggregates — present only when explicitly
            # enabled, so compared extras stay deterministic by default.
            out["timers"] = timers.snapshot()
        if getattr(self.executor, "supervised", False):
            # Crash/retry/quarantine accounting rides into RunResult.extras
            # (and the solve server's stats op) alongside the cache stats.
            out["faults"] = self.executor.fault_stats.as_dict()
        return out

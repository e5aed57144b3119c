"""Maximin bilinear toy problem with an analytically known saddle point.

The ground-truth problem the convergence gate runs CARBON against
(tests/test_convergence_gate.py), modelled on the bilinear maximin
function of Lehre's runtime analysis of competitive co-evolutionary
algorithms (PAPERS.md):

    g(x, y) = scale * (mean(x) - a) * (Y(y) - b)

with leader decision ``x in [0, 1]^n`` (maximizing) and follower basket
``y in {0, 1}^m`` (minimizing), where ``Y(y) = sum_j w_j y_j / sum_j w_j``
is the weighted take fraction.  The follower's exact best response is
bang-bang: minimizing ``g`` means taking everything when ``mean(x) < a``
(push ``Y - b`` up against the negative first factor) and nothing when
``mean(x) > a``, hence

    min_y g(x, y) = -scale * |mean(x) - a| * (b if mean(x) > a else 1 - b)

which is maximized — uniquely in ``mean(x)`` — at ``mean(x) = a`` with
maximin value exactly 0.  That analytic optimum is what the gate asserts
convergence to.

The problem duck-types the :class:`repro.bcpop.instance.BcpopInstance`
surface the engine algorithms consume (``digest``, ``price_bounds``,
``validate_prices``, ``n_bundles``, ``make_evaluator``), and its
evaluator speaks the GP language of Table I: the per-item feature context
exposes the same attribute names as
:class:`repro.covering.greedy.GreedyContext`, with ``COST`` carrying the
follower's signed marginal payoff ``c_j = scale * w_j * (mean(x) - a) /
sum(w)`` — so the plain one-terminal tree ``COST`` *is* the optimal
follower policy under the evaluator's selection rule (take every item
scoring negative), and classical rules keep their semantics (Chvátal's
``COST % COVER`` divides by the positive weight, preserving the sign;
LP-guided ``0 - XLP`` follows the exact best-response indicator).

Cycling rationale (why this problem discriminates evaluation modes): a
follower heuristic specialised against the *current* leader population
is a constant policy (take-all or take-none); a leader graded only
against that specialist profitably overshoots to the far side of ``a``,
the follower re-specialises, and the pair orbits the saddle instead of
converging — Lehre's failure mode.  Worst-case grading against an
*archive* holding both specialists scores a leader by
``-|mean(x) - a|``-shaped payoff, which is exactly the maximin objective,
so archive mode converges to the known optimum.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.bcpop.evaluate import EvaluationMemo, LowerLevelOutcome
from repro.gp.compile import CompileCache
from repro.gp.tree import SyntaxTree
from repro.utils.profiling import HotPathTimers

__all__ = ["BilinearContext", "BilinearInstance", "BilinearEvaluator", "bilinear_instance"]


@dataclass
class BilinearContext:
    """GreedyContext-shaped feature view for one leader decision.

    Only the attributes the Table I terminals read (plus the classical
    heuristics of :mod:`repro.covering.heuristics`) — per-item arrays of
    length ``m`` throughout.
    """

    costs: np.ndarray
    q_sum: np.ndarray
    q_max: np.ndarray
    coverage: np.ndarray
    demand_total: np.ndarray
    residual_total: np.ndarray
    duals: np.ndarray
    xbar: np.ndarray
    selected: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    step: int = 0


@dataclass(frozen=True)
class BilinearInstance:
    """One maximin bilinear problem.

    Parameters
    ----------
    n:
        Leader dimension (``x in [0, 1]^n``).
    weights:
        Positive per-item follower weights ``w_j`` (their heterogeneity
        makes the GP features non-constant across items).
    a:
        Leader target: the saddle sits at ``mean(x) = a``.
    b:
        Follower offset in ``(0, 1)``; both ``b`` and ``1 - b`` must be
        positive so overshooting *either* side of ``a`` is punished.
    scale:
        Payoff scale (gap percentages are normalized by it).
    """

    n: int
    weights: np.ndarray
    a: float
    b: float
    scale: float
    name: str = "bilinear"

    def __post_init__(self) -> None:
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if weights.ndim != 1 or weights.size < 1:
            raise ValueError(f"weights must be a non-empty vector, got {weights.shape}")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (0.0 < self.a < 1.0):
            raise ValueError(f"a must be in (0, 1), got {self.a}")
        if not (0.0 < self.b < 1.0):
            raise ValueError(f"b must be in (0, 1), got {self.b}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "weights", weights)

    # -- BcpopInstance duck surface ----------------------------------------

    @property
    def m(self) -> int:
        return int(self.weights.size)

    @property
    def n_bundles(self) -> int:
        """Follower decision length (the engine's selection width)."""
        return self.m

    @property
    def n_own(self) -> int:
        """Leader decision length (mirrors the BCPOP naming)."""
        return self.n

    @property
    def digest(self) -> str:
        cached = self.__dict__.get("_digest")
        if cached is None:
            h = hashlib.sha256()
            h.update(b"bilinear")
            h.update(np.asarray([self.n], dtype=np.int64).tobytes())
            h.update(np.float64(self.a).tobytes())
            h.update(np.float64(self.b).tobytes())
            h.update(np.float64(self.scale).tobytes())
            h.update(self.weights.tobytes())
            cached = h.hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    @property
    def price_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.zeros(self.n), np.ones(self.n))

    def validate_prices(self, prices: np.ndarray) -> np.ndarray:
        prices = np.asarray(prices, dtype=np.float64).ravel()
        if prices.shape != (self.n,):
            raise ValueError(f"leader decision shape {prices.shape} != ({self.n},)")
        return np.clip(prices, 0.0, 1.0)

    def make_evaluator(
        self,
        lp_backend: str = "scipy",
        cache_size: int = 4096,
        gap_eps: float = 1e-9,
        memo_size: int = 0,
        compile: bool = True,
        lp_warm_start: bool = False,
    ) -> "BilinearEvaluator":
        """Polymorphic evaluator factory (the pipeline's worker side calls
        this, so bilinear instances ride the same process pool as BCPOP).
        ``lp_backend``/``cache_size``/``lp_warm_start`` are accepted for
        signature compatibility; there is no LP here — bounds are
        analytic."""
        return BilinearEvaluator(
            self, gap_eps=gap_eps, memo_size=memo_size, compile=compile
        )

    # -- analytics -----------------------------------------------------------

    def payoff(self, prices: np.ndarray, selection: np.ndarray) -> float:
        """``g(x, y)`` — the leader's payoff (the follower pays it)."""
        prices = self.validate_prices(prices)
        sel = np.asarray(selection, dtype=bool)
        if sel.shape != (self.m,):
            raise ValueError(f"selection shape {sel.shape} != ({self.m},)")
        take = float(self.weights @ sel) / float(self.weights.sum())
        return float(self.scale * (prices.mean() - self.a) * (take - self.b))

    #: BCPOP-compatible alias (``revenue`` is what engine code calls it).
    def revenue(self, prices: np.ndarray, selection: np.ndarray) -> float:
        return self.payoff(prices, selection)

    def best_response_value(self, prices: np.ndarray) -> float:
        """``min_y g(x, y)`` in closed form (bang-bang)."""
        prices = self.validate_prices(prices)
        lean = float(prices.mean() - self.a)
        side = self.b if lean > 0 else 1.0 - self.b
        return float(-self.scale * abs(lean) * side)

    def best_response(self, prices: np.ndarray) -> np.ndarray:
        """An exact rational reaction (all-ones below ``a``, else empty)."""
        prices = self.validate_prices(prices)
        take_all = prices.mean() < self.a
        return np.full(self.m, bool(take_all))

    def saddle_distance(self, prices: np.ndarray) -> float:
        """``|mean(x) - a|`` — distance to the known optimum in mean
        space; the convergence gate's primary metric."""
        prices = self.validate_prices(prices)
        return float(abs(prices.mean() - self.a))

    @property
    def maximin_value(self) -> float:
        """The known optimum: ``max_x min_y g = 0`` at ``mean(x) = a``."""
        return 0.0


class BilinearEvaluator:
    """Lower-level evaluation service for one bilinear instance.

    Mirrors the :class:`repro.bcpop.evaluate.LowerLevelEvaluator` surface
    the pipeline and algorithms consume (``heuristic_key``,
    ``evaluate_heuristic[_fresh]``, memo, work counters, stats) with the
    analytic best response in place of an LP relaxation.

    The follower's decision rule: score every item with the heuristic and
    take exactly the items scoring **negative** — the unconstrained
    analogue of the covering loop's "pick while demand remains" (an item
    with negative marginal score lowers the follower's objective).  With
    ``COST`` carrying the signed marginal payoff, the optimal policy is
    one terminal away, and the %-gap to the analytic bound tells a
    heuristic exactly how far from rational its reaction is.
    """

    def __init__(
        self,
        instance: BilinearInstance,
        gap_eps: float = 1e-9,
        memo_size: int = 0,
        lp_backend: str = "analytic",
        compile: bool = True,
        timers: HotPathTimers | None = None,
    ) -> None:
        self.instance = instance
        self.gap_eps = gap_eps
        self.lp_backend = lp_backend
        self.memo = EvaluationMemo(memo_size) if memo_size > 0 else None
        self.compile = compile
        self.kernel = CompileCache() if compile else None
        self.lp_warm_start = False  # analytic bounds: nothing to warm-start
        self.timers = timers if timers is not None else HotPathTimers()
        self.n_evaluations = 0
        self.n_lp_solves_saved = 0

    def _solver_for(self, score_fn):
        """Compiled form of a GP tree (cached), or the callable as-is."""
        if self.kernel is not None and isinstance(score_fn, SyntaxTree):
            with self.timers.section("compile"):
                return self.kernel.get(score_fn)
        return score_fn

    # -- feature context -----------------------------------------------------

    def context(self, prices: np.ndarray) -> BilinearContext:
        """Table I feature view of the follower's decision under ``x``."""
        inst = self.instance
        prices = inst.validate_prices(prices)
        w = inst.weights
        lean = float(prices.mean() - inst.a)
        costs = inst.scale * w * lean / float(w.sum())
        m = inst.m
        return BilinearContext(
            costs=costs,
            q_sum=w.copy(),
            q_max=w.copy(),
            coverage=w.copy(),
            demand_total=np.full(m, inst.b),
            residual_total=np.full(m, float(prices.mean())),
            duals=-costs,
            xbar=(costs < 0).astype(np.float64),
            selected=np.zeros(m, dtype=bool),
        )

    # -- evaluator surface ---------------------------------------------------

    def heuristic_key(self, prices, score_fn) -> bytes | None:
        """Memo key (content-addressable solvers only) — same shape as the
        BCPOP evaluator's: (digest, quantized decision, tree form)."""
        if not isinstance(score_fn, SyntaxTree):
            return None
        prices = self.instance.validate_prices(prices)
        quantized = np.round(prices / 1e-9).tobytes()
        return b"|".join(
            (
                self.instance.digest.encode("ascii"),
                quantized,
                score_fn.serialize().encode("ascii"),
            )
        )

    def evaluate_heuristic_fresh(self, prices, score_fn) -> LowerLevelOutcome:
        """One uncached evaluation: score items, take the negatives."""
        inst = self.instance
        prices = inst.validate_prices(prices)
        ctx = self.context(prices)
        solver = self._solver_for(score_fn)
        with self.timers.section("score"):
            scores = np.asarray(solver(ctx), dtype=np.float64)
        if scores.shape != (inst.m,):
            raise ValueError(
                f"score function returned shape {scores.shape}, expected ({inst.m},)"
            )
        selection = np.where(np.isfinite(scores), scores, np.inf) < 0.0
        payoff = inst.payoff(prices, selection)
        bound = inst.best_response_value(prices)
        gap = 100.0 * (payoff - bound) / inst.scale
        self.n_evaluations += 1
        return LowerLevelOutcome(
            prices=prices.copy(),
            selection=selection,
            ll_cost=payoff,
            revenue=payoff,
            gap=gap,
            lower_bound=bound,
            feasible=True,
        )

    def evaluate_heuristics_fresh(self, requests) -> list[LowerLevelOutcome]:
        """Uncached evaluations in request order — the pipeline's batch
        entry point.  Scoring is one vector per request, so there is no
        greedy loop to run in lockstep."""
        return [self.evaluate_heuristic_fresh(p, fn) for p, fn in requests]

    def evaluate_heuristic(self, prices, score_fn) -> LowerLevelOutcome:
        key = self.heuristic_key(prices, score_fn) if self.memo is not None else None
        if key is not None:
            found = self.memo.get(key)
            if found is not None:
                return found
        outcome = self.evaluate_heuristic_fresh(prices, score_fn)
        if key is not None:
            self.memo.put(key, outcome)
        return outcome

    @property
    def cache_stats(self) -> dict:
        return {"entries": 0, "hits": 0, "misses": 0, "hit_rate": 0.0}

    @property
    def kernel_stats(self) -> dict:
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


def bilinear_instance(
    n: int = 6,
    m: int = 8,
    a: float = 0.35,
    b: float = 0.5,
    scale: float = 10.0,
    name: str | None = None,
) -> BilinearInstance:
    """The standard gate instance: heterogeneous weights ``1 + j/m``."""
    weights = 1.0 + np.arange(m, dtype=np.float64) / m
    return BilinearInstance(
        n=n,
        weights=weights,
        a=a,
        b=b,
        scale=scale,
        name=name or f"bilinear-n{n}-m{m}",
    )

"""Score-ordered greedy covering solver.

This is the heuristic *framework* of the paper (§IV-B): a greedy loop that
repeatedly adds the bundle with the best score until every service
requirement is met, where the *scoring function* is a plug-in — either a
classical hand-written rule (:mod:`repro.covering.heuristics`) or a
GP-evolved syntax tree.  The evolved population in CARBON is a population
of scoring functions; embedding each into this loop yields a complete
lower-level solver.

Vectorization (HPC guide idiom): one scoring call returns scores for *all*
bundles at once; the per-iteration state update is two in-place array
operations.  There is no per-bundle Python loop anywhere in the hot path.
:func:`greedy_cover_lockstep` goes one axis further: the B solves of one
``(q, demand)`` family under one compiled score function advance as one
loop over ``(B, n)`` arrays, so a step's numpy dispatch is paid once per
group rather than once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.covering.instance import CoveringInstance, CoverSolution

__all__ = [
    "ContextStatics",
    "GreedyContext",
    "LockstepContext",
    "ScoreFunction",
    "greedy_cover",
    "greedy_cover_lockstep",
]


@dataclass(frozen=True)
class ContextStatics:
    """Price-invariant feature matrices, shared across a whole population.

    ``q_sum``/``q_max``/``demand_total`` and the *initial* coverage
    depend only on ``(q, demand)`` — which never change across the
    induced instances of one bi-level problem (only the cost vector
    does) — yet :meth:`GreedyContext.fresh` used to recompute them on
    every solve.  An evaluator builds this bundle once per instance and
    threads it through every greedy solve; the arrays are computed with
    the exact expressions ``fresh`` uses, so sharing them is
    bit-identical.

    The shared arrays are read-only by convention: the greedy loop
    *reassigns* ``ctx.coverage`` (never mutates it in place), and the
    genuinely per-solve state (``residual``, ``residual_total``,
    ``selected``) is still freshly allocated per solve.
    """

    q_sum: np.ndarray
    q_max: np.ndarray
    coverage: np.ndarray
    demand_total: np.ndarray

    @classmethod
    def for_instance(cls, instance: CoveringInstance) -> "ContextStatics":
        """Precompute the static features of ``instance``.

        ``coverage`` here is the step-0 value: with ``residual ==
        demand`` (an exact copy), ``min(q, residual)`` and
        ``min(q, demand)`` are the same bits.
        """
        n = instance.n_bundles
        q = instance.q
        return cls(
            q_sum=q.sum(axis=0),
            q_max=q.max(axis=0) if instance.n_services else np.zeros(n),
            coverage=np.minimum(q, instance.demand[:, None]).sum(axis=0),
            demand_total=np.full(n, instance.demand.sum()),
        )


@dataclass
class GreedyContext:
    """Per-bundle feature view handed to scoring functions.

    Static features are computed once per solve; dynamic features
    (``residual``, ``coverage``) are refreshed in place at each greedy step.
    All vector attributes have length ``n_bundles`` unless noted.

    Attributes
    ----------
    costs:
        Bundle costs ``c_j`` (GP terminal ``COST``).
    q_sum:
        Total contribution ``sum_k q_j^k`` (terminal ``QSUM``).
    q_max:
        Peak contribution ``max_k q_j^k`` (terminal ``QMAX``).
    coverage:
        *Useful residual* contribution ``sum_k min(q_j^k, residual_k)``
        (terminal ``COVER``) — the classical greedy denominator.
    demand_total:
        Scalar ``sum_k b^k`` broadcast over bundles (terminal ``BSUM``).
    residual_total:
        Scalar remaining demand ``sum_k residual_k`` broadcast (``BRES``).
    duals:
        Dual-weighted contribution ``sum_k d_k q_j^k`` from the LP
        relaxation (terminal ``DUAL``); zeros when no relaxation is given.
    xbar:
        LP-relaxed solution value ``x̄_j`` (terminal ``XLP``); zeros when
        no relaxation is given.
    selected:
        Boolean mask of already-picked bundles.
    residual:
        ``(n_services,)`` remaining demand vector (not per-bundle).
    """

    instance: CoveringInstance
    costs: np.ndarray
    q_sum: np.ndarray
    q_max: np.ndarray
    coverage: np.ndarray
    demand_total: np.ndarray
    residual_total: np.ndarray
    duals: np.ndarray
    xbar: np.ndarray
    selected: np.ndarray
    residual: np.ndarray
    step: int = 0
    extras: dict = field(default_factory=dict)

    @classmethod
    def fresh(
        cls,
        instance: CoveringInstance,
        duals: np.ndarray | None = None,
        xbar: np.ndarray | None = None,
        statics: ContextStatics | None = None,
    ) -> "GreedyContext":
        """Build the initial context for a solve of ``instance``.

        ``statics`` (optional) supplies the precomputed price-invariant
        features — bit-identical to computing them here, just not paid
        for on every solve of the same ``(q, demand)`` family.
        """
        n = instance.n_bundles
        residual = instance.demand.copy()
        q = instance.q
        dual_vec = (
            np.zeros(n)
            if duals is None
            else np.asarray(duals, dtype=np.float64) @ q
        )
        xbar_vec = (
            np.zeros(n)
            if xbar is None
            else np.asarray(xbar, dtype=np.float64).copy()
        )
        if dual_vec.shape != (n,):
            raise ValueError(f"duals incompatible with instance: {dual_vec.shape}")
        if xbar_vec.shape != (n,):
            raise ValueError(f"xbar shape {xbar_vec.shape} != ({n},)")
        if statics is None:
            statics = ContextStatics.for_instance(instance)
        elif statics.q_sum.shape != (n,):
            raise ValueError(
                f"statics built for n={statics.q_sum.shape} != ({n},)"
            )
        ctx = cls(
            instance=instance,
            costs=instance.costs,
            q_sum=statics.q_sum,
            q_max=statics.q_max,
            coverage=statics.coverage,
            demand_total=statics.demand_total,
            residual_total=np.full(n, residual.sum()),
            duals=dual_vec,
            xbar=xbar_vec,
            selected=np.zeros(n, dtype=bool),
            residual=residual,
        )
        return ctx

    def pick(self, j: int) -> None:
        """Mark bundle ``j`` selected and refresh the dynamic features."""
        if self.selected[j]:
            raise ValueError(f"bundle {j} already selected")
        self.selected[j] = True
        np.subtract(self.residual, self.instance.q[:, j], out=self.residual)
        np.maximum(self.residual, 0.0, out=self.residual)
        self.coverage = np.minimum(self.instance.q, self.residual[:, None]).sum(axis=0)
        self.residual_total.fill(self.residual.sum())
        self.step += 1

    @property
    def covered(self) -> bool:
        return bool(self.residual.max(initial=0.0) <= 1e-9)


@dataclass
class LockstepContext:
    """The greedy state of B solves of one ``(q, demand)`` family.

    The solves differ only in their costs, duals and x̄.  Every
    per-bundle feature of :class:`GreedyContext` gains a leading row
    axis: ``costs``, ``coverage``, ``duals``, ``xbar`` and ``selected``
    are ``(B, n)``, ``residual`` is ``(B, m)`` and ``residual_total`` is
    ``(B, 1)``.  The price-invariant ``q_sum``/``q_max``/``demand_total``
    stay ``(n,)`` and broadcast.  Row ``i`` holds exactly the values the
    ``GreedyContext`` of solve ``i`` holds after the same picks, computed
    with the same elementwise expressions.
    """

    q: np.ndarray
    costs: np.ndarray
    q_sum: np.ndarray
    q_max: np.ndarray
    coverage: np.ndarray
    demand_total: np.ndarray
    residual_total: np.ndarray
    duals: np.ndarray
    xbar: np.ndarray
    selected: np.ndarray
    residual: np.ndarray
    extras: dict = field(default_factory=dict)

    @classmethod
    def stack(cls, rows: Sequence[GreedyContext]) -> "LockstepContext":
        """Stack fresh per-solve contexts that share ``(q, demand)`` and
        their statics."""
        first = rows[0]
        residual = np.stack([ctx.residual for ctx in rows])
        return cls(
            q=first.instance.q,
            costs=np.stack([ctx.costs for ctx in rows]),
            q_sum=first.q_sum,
            q_max=first.q_max,
            coverage=np.stack([ctx.coverage for ctx in rows]),
            demand_total=first.demand_total,
            residual_total=residual.sum(axis=1, keepdims=True),
            duals=np.stack([ctx.duals for ctx in rows]),
            xbar=np.stack([ctx.xbar for ctx in rows]),
            selected=np.stack([ctx.selected for ctx in rows]),
            residual=residual,
        )

    def pick(self, rows: np.ndarray, js: np.ndarray) -> None:
        """:meth:`GreedyContext.pick` of bundle ``js[i]`` in row ``rows[i]``."""
        self.selected[rows, js] = True
        residual = np.maximum(self.residual[rows] - self.q[:, js].T, 0.0)
        self.residual[rows] = residual
        self.coverage[rows] = np.minimum(self.q, residual[:, :, None]).sum(axis=1)
        self.residual_total[rows] = residual.sum(axis=1, keepdims=True)

    @property
    def covered(self) -> np.ndarray:
        """Per-row :attr:`GreedyContext.covered`."""
        return self.residual.max(axis=1, initial=0.0) <= 1e-9


ScoreFunction = Callable[[GreedyContext], np.ndarray]
"""A scoring rule: lower score = picked earlier.  Must return a float array
of length ``n_bundles``; entries for ineligible bundles are ignored."""


def greedy_cover(
    instance: CoveringInstance,
    score_fn: ScoreFunction,
    duals: np.ndarray | None = None,
    xbar: np.ndarray | None = None,
    prune: bool = True,
    max_steps: int | None = None,
    statics: ContextStatics | None = None,
) -> CoverSolution:
    """Solve ``instance`` greedily under ``score_fn`` (lower is better).

    At each step the *eligible* bundles are those not yet selected whose
    residual coverage is positive; the one with the lowest score is added.
    Non-finite scores are treated as worst-possible.  After construction,
    redundant bundles are pruned (most expensive first) unless
    ``prune=False``.

    ``statics`` optionally carries the precomputed price-invariant
    features (see :class:`ContextStatics`).  A score function exposing a
    truthy ``is_static`` attribute (a compiled program with no dynamic
    terminal — :mod:`repro.gp.compile`) is called once and its scores
    reused at every step: the inputs cannot change within the solve, so
    the per-step score vectors are the same array and the selected
    bundles are unchanged.

    Returns an infeasible :class:`CoverSolution` only when the instance
    itself is uncoverable.
    """
    ctx = GreedyContext.fresh(instance, duals=duals, xbar=xbar, statics=statics)
    n = instance.n_bundles
    limit = max_steps if max_steps is not None else n
    steps = 0
    score_is_static = bool(getattr(score_fn, "is_static", False))
    static_scores: np.ndarray | None = None
    while not ctx.covered and steps < limit:
        eligible = (~ctx.selected) & (ctx.coverage > 1e-12)
        if not eligible.any():
            return CoverSolution(
                selected=ctx.selected,
                cost=instance.cost_of(ctx.selected),
                feasible=False,
                iterations=steps,
            )
        if static_scores is None:
            scores = np.asarray(score_fn(ctx), dtype=np.float64)
            if scores.shape != (n,):
                raise ValueError(
                    f"score function returned shape {scores.shape}, expected ({n},)"
                )
            scores = np.where(np.isfinite(scores), scores, np.inf)
            if score_is_static:
                static_scores = scores
        else:
            scores = static_scores
        masked = np.where(eligible, scores, np.inf)
        j = int(np.argmin(masked))
        if not np.isfinite(masked[j]):
            # All eligible bundles scored non-finite: fall back to the
            # first eligible index (keeps degenerate trees total).
            j = int(np.flatnonzero(eligible)[0])
        ctx.pick(j)
        steps += 1

    feasible = ctx.covered
    selected = ctx.selected
    if feasible and prune:
        from repro.covering.repair import prune_redundant

        selected = prune_redundant(instance, selected)
    return CoverSolution(
        selected=selected,
        cost=instance.cost_of(selected),
        feasible=feasible,
        iterations=steps,
    )


def greedy_cover_lockstep(
    instances: Sequence[CoveringInstance],
    score_fn: Callable[[LockstepContext], np.ndarray],
    duals: Sequence[np.ndarray | None] | None = None,
    xbars: Sequence[np.ndarray | None] | None = None,
    prune: bool = True,
    max_steps: int | None = None,
    statics: ContextStatics | None = None,
) -> list[CoverSolution]:
    """:func:`greedy_cover` for B instances of one ``(q, demand)`` family
    under one score function, advanced as one loop over ``(B, n)`` arrays.

    ``score_fn`` maps a :class:`LockstepContext` to ``(B, n)`` scores,
    row ``i`` being what it would score for solve ``i`` alone — a
    :class:`repro.gp.compile.CompiledProgram` does, building its static
    register bank once for all rows.  Each step scores every row once,
    takes the row-wise masked argmin (with :func:`greedy_cover`'s
    first-eligible fallback) and picks in every row still running; a row
    retires when it is covered, runs out of eligible bundles, or reaches
    ``max_steps``.  Covered rows are then pruned one by one
    (:func:`repro.covering.repair.prune_redundant`).

    Returns one :class:`CoverSolution` per instance, bit-identical to
    ``greedy_cover(instances[i], ...)`` with the same duals, x̄ and
    statics: selection, cost, feasibility and iteration count.
    """
    if not instances:
        return []
    base = instances[0]
    for inst in instances[1:]:
        if not (
            (inst.q is base.q or np.array_equal(inst.q, base.q))
            and (inst.demand is base.demand or np.array_equal(inst.demand, base.demand))
        ):
            raise ValueError("lockstep instances must share q and demand")
    b = len(instances)
    duals = [None] * b if duals is None else duals
    xbars = [None] * b if xbars is None else xbars
    if not len(duals) == len(xbars) == b:
        raise ValueError(f"need {b} dual and x̄ vectors, got {len(duals)}/{len(xbars)}")
    if statics is None:
        statics = ContextStatics.for_instance(base)
    ctx = LockstepContext.stack([
        GreedyContext.fresh(inst, duals=d, xbar=x, statics=statics)
        for inst, d, x in zip(instances, duals, xbars)
    ])
    n = base.n_bundles
    limit = max_steps if max_steps is not None else n
    score_is_static = bool(getattr(score_fn, "is_static", False))
    static_scores: np.ndarray | None = None
    live = ~ctx.covered
    every_row = np.arange(b)
    steps = 0
    while steps < limit:
        eligible = (~ctx.selected) & (ctx.coverage > 1e-12)
        # A row with nothing left to pick is uncoverable: it retires
        # unpruned, exactly where greedy_cover returns early.
        live &= eligible.any(axis=1)
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        if static_scores is None:
            scores = np.asarray(score_fn(ctx), dtype=np.float64)
            if scores.shape != (b, n):
                raise ValueError(
                    f"score function returned shape {scores.shape}, expected ({b}, {n})"
                )
            scores = np.where(np.isfinite(scores), scores, np.inf)
            if score_is_static:
                static_scores = scores
        else:
            scores = static_scores
        masked = np.where(eligible, scores, np.inf)
        js = np.argmin(masked, axis=1)
        blind = ~np.isfinite(masked[every_row, js])
        if blind.any():
            # All eligible bundles scored non-finite: first eligible index.
            js[blind] = np.argmax(eligible[blind], axis=1)
        ctx.pick(rows, js[rows])
        steps += 1
        live[rows] = ~ctx.covered[rows]

    feasible = ctx.covered
    iterations = ctx.selected.sum(axis=1)
    selected = ctx.selected
    if prune and feasible.any():
        from repro.covering.repair import prune_redundant

        for i in np.flatnonzero(feasible):
            selected[i] = prune_redundant(instances[i], selected[i])
    return [
        CoverSolution(
            selected=selected[i].copy(),
            cost=inst.cost_of(selected[i]),
            feasible=bool(feasible[i]),
            iterations=int(iterations[i]),
        )
        for i, inst in enumerate(instances)
    ]

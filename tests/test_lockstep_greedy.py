"""Differential tests: lockstep greedy vs the per-solve greedy loop.

``greedy_cover_lockstep`` runs the B solves that share one compiled
program and one ``(q, demand)`` family as one loop over ``(B, n)``
arrays.  Its contract is *bit-identity* with B calls of
``greedy_cover``: the same selection, cost, feasibility flag and
iteration count for every row, whatever the rows do — finish at
different steps, get stuck on an uncoverable demand, fall back to the
first eligible bundle under non-finite scores, or stop at ``max_steps``.

One level up, ``LowerLevelEvaluator.evaluate_heuristics_fresh`` groups a
batch of requests by program; its outcomes and its LP-cache, warm-start
and compile-cache counters must equal those of the per-request loop, on
the serial pipeline and on the process pool.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bcpop.evaluate import EvaluationPipeline, LowerLevelEvaluator
from repro.bcpop.generator import generate_instance
from repro.covering.greedy import (
    ContextStatics,
    GreedyContext,
    LockstepContext,
    greedy_cover,
    greedy_cover_lockstep,
)
from repro.covering.heuristics import make_heuristic
from repro.covering.instance import CoveringInstance
from repro.gp.compile import compile_tree
from repro.gp.nodes import Constant
from repro.gp.primitives import lookup_primitive, lookup_terminal
from repro.gp.tree import SyntaxTree
from repro.parallel.executor import ProcessExecutor
from tests.conftest import random_covering
from tests.test_gp_compile import assert_bitwise_equal, random_tree


def T(name):
    return lookup_terminal(name)


def P(name):
    return lookup_primitive(name)


def poisoned_tree(seed: int) -> SyntaxTree:
    """A random tree, every third one combined with a NaN/±inf constant
    so whole score vectors go non-finite (the first-eligible fallback)."""
    tree = random_tree(seed)
    if seed % 3:
        return tree
    poison = Constant([np.nan, np.inf, -np.inf][seed % 9 // 3])
    return SyntaxTree([P(["add", "mul", "div"][seed % 4 % 3]), poison, *tree.nodes])


def fractional_covering(seed: int, n_services: int, n_bundles: int) -> CoveringInstance:
    """A covering instance with sparse non-integer ``q``, so that sums
    over services round and their order shows in the last bits."""
    gen = np.random.default_rng(seed)
    q = gen.uniform(0.0, 8.0, (n_services, n_bundles)) * (gen.random((n_services, n_bundles)) < 0.7)
    demand = q.sum(axis=1) * gen.uniform(0.2, 0.6)
    return CoveringInstance(costs=np.ones(n_bundles), q=q, demand=demand)


def family_batch(seed: int, b: int, n_services: int, n_bundles: int):
    """B instances sharing ``(q, demand)`` with their own costs, duals and
    x̄ (x̄ sometimes poisoned with NaN/±inf; duals sometimes absent)."""
    gen = np.random.default_rng(seed)
    if seed % 2:
        base = random_covering(seed, n_services=n_services, n_bundles=n_bundles)
    else:
        base = fractional_covering(seed, n_services, n_bundles)
    instances, duals, xbars = [], [], []
    for _ in range(b):
        # Integer costs make score ties common (argmin takes the first).
        costs = gen.integers(0, 6, n_bundles).astype(float) + gen.random() * (gen.random() < 0.5)
        instances.append(base.with_costs(costs))
        duals.append(gen.uniform(0.0, 3.0, n_services) if gen.random() < 0.8 else None)
        xbar = gen.uniform(0.0, 1.0, n_bundles)
        if gen.random() < 0.3:
            xbar = np.where(gen.random(n_bundles) < 0.3, np.nan, xbar)
            xbar[gen.integers(n_bundles)] = [np.inf, -np.inf][int(gen.integers(2))]
        xbars.append(xbar if gen.random() < 0.9 else None)
    return instances, duals, xbars


def assert_same_solutions(lockstep, reference):
    assert len(lockstep) == len(reference)
    for got, want in zip(lockstep, reference):
        assert np.array_equal(got.selected, want.selected)
        assert got.cost == want.cost
        assert got.feasible == want.feasible
        assert got.iterations == want.iterations


def per_solve(instances, program, duals, xbars, **kw):
    return [
        greedy_cover(inst, program, duals=d, xbar=x, **kw)
        for inst, d, x in zip(instances, duals, xbars)
    ]


class TestLockstepGreedy:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 1_000_000),
        b=st.integers(1, 20),
        n_services=st.integers(1, 5),
        n_bundles=st.integers(2, 30),
        max_steps=st.one_of(st.none(), st.integers(0, 12)),
    )
    def test_rows_bit_identical_to_per_solve(self, seed, b, n_services, n_bundles, max_steps):
        instances, duals, xbars = family_batch(seed, b, n_services, n_bundles)
        program = compile_tree(poisoned_tree(seed))
        statics = ContextStatics.for_instance(instances[0])
        got = greedy_cover_lockstep(
            instances, program, duals, xbars, max_steps=max_steps, statics=statics
        )
        want = per_solve(
            instances, program, duals, xbars, max_steps=max_steps, statics=statics
        )
        assert_same_solutions(got, want)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 1_000_000), b=st.integers(1, 8), n_services=st.integers(1, 12))
    def test_pick_updates_match_greedy_context(self, seed, b, n_services):
        """After the same picks, every lockstep row holds the bits of the
        per-solve context: coverage, residual and remaining demand."""
        instances, duals, xbars = family_batch(2 * seed, b, n_services, 16)
        statics = ContextStatics.for_instance(instances[0])
        rows = [
            GreedyContext.fresh(inst, duals=d, xbar=x, statics=statics)
            for inst, d, x in zip(instances, duals, xbars)
        ]
        ctx = LockstepContext.stack(rows)
        gen = np.random.default_rng(seed)
        orders = [gen.permutation(16) for _ in range(b)]
        for step in range(6):
            live = np.flatnonzero(gen.random(b) < 0.8)
            for i in live:
                rows[i].pick(int(orders[i][step]))
            ctx.pick(live, np.array([orders[i][step] for i in live], dtype=np.intp))
            for i, row in enumerate(rows):
                assert_bitwise_equal(ctx.coverage[i].copy(), row.coverage)
                assert_bitwise_equal(ctx.residual[i].copy(), row.residual)
                assert_bitwise_equal(
                    np.broadcast_to(ctx.residual_total[i], row.residual_total.shape).copy(),
                    row.residual_total,
                )
                assert np.array_equal(ctx.selected[i], row.selected)
            assert np.array_equal(ctx.covered, [row.covered for row in rows])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1_000_000), b=st.integers(2, 12))
    def test_prune_off_and_default_statics(self, seed, b):
        instances, duals, xbars = family_batch(seed, b, 3, 12)
        program = compile_tree(random_tree(seed))
        got = greedy_cover_lockstep(instances, program, duals, xbars, prune=False)
        assert_same_solutions(got, per_solve(instances, program, duals, xbars, prune=False))

    def test_rows_finish_at_different_steps(self):
        instances, duals, xbars = family_batch(3, 16, 4, 40)
        program = compile_tree(SyntaxTree([P("div"), T("COST"), T("COVER")]))
        assert not program.is_static
        got = greedy_cover_lockstep(instances, program, duals, xbars)
        assert len({sol.iterations for sol in got}) > 1
        assert_same_solutions(got, per_solve(instances, program, duals, xbars))

    def test_static_program_scores_once(self):
        instances, duals, xbars = family_batch(5, 6, 3, 15)
        program = compile_tree(SyntaxTree([P("sub"), T("COST"), T("DUAL")]))
        assert program.is_static
        calls = []

        def counted(ctx):
            calls.append(ctx)
            return program(ctx)

        counted.is_static = True
        got = greedy_cover_lockstep(instances, counted, duals, xbars)
        assert len(calls) == 1
        assert_same_solutions(got, per_solve(instances, program, duals, xbars))

    def test_uncoverable_row_inside_a_batch(self):
        """Rows share (q, demand) but subtract the same bundles in other
        orders; at this magnitude the rounding leaves two rows 1.5e-8 short
        of their demand with nothing left to pick, while the first covers."""
        q = np.array([[48866828.707, 81159026.748, 84723481.276]])
        demand = np.array([q[0, 0] + q[0, 1] + q[0, 2]])
        base = CoveringInstance(costs=np.ones(3), q=q, demand=demand)
        instances = [
            base.with_costs(np.array(c))
            for c in ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [2.0, 1.0, 3.0])
        ]
        program = compile_tree(SyntaxTree([T("COST")]))
        nones = [None] * 3
        got = greedy_cover_lockstep(instances, program, nones, nones)
        assert [sol.feasible for sol in got] == [True, False, False]
        assert_same_solutions(got, per_solve(instances, program, nones, nones))

    def test_wholly_uncoverable_batch(self):
        base = CoveringInstance(
            costs=np.ones(4), q=np.array([[1.0, 0.0, 2.0, 1.0]]), demand=np.array([9.0])
        )
        instances = [base.with_costs(np.array(c)) for c in ([1.0, 2, 3, 4], [4.0, 3, 2, 1])]
        program = compile_tree(SyntaxTree([T("COST")]))
        nones = [None, None]
        got = greedy_cover_lockstep(instances, program, nones, nones)
        assert not any(sol.feasible for sol in got)
        assert_same_solutions(got, per_solve(instances, program, nones, nones))

    def test_rejects_mixed_families_and_short_vectors(self):
        a = random_covering(1)
        b = random_covering(2)
        program = compile_tree(SyntaxTree([T("COST")]))
        with pytest.raises(ValueError, match="share q and demand"):
            greedy_cover_lockstep([a, b], program)
        with pytest.raises(ValueError, match="dual"):
            greedy_cover_lockstep([a, a], program, duals=[None])
        assert greedy_cover_lockstep([], program) == []


class TestLockstepScorer:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_program_scores_stacked_rows_bitwise(self, seed):
        """A compiled program scores a stacked ``(B, n)`` context row for
        row as it scores each context alone — also when every feature,
        ``q_sum`` included, differs per row."""
        prog = compile_tree(random_tree(seed))
        rows = [
            GreedyContext.fresh(random_covering(s, n_services=3, n_bundles=8))
            for s in range(seed % 3 + 2)
        ]

        def stack(name):
            return np.stack([getattr(ctx, name) for ctx in rows])

        residual = stack("residual")
        stacked = LockstepContext(
            q=rows[0].instance.q,
            costs=stack("costs"),
            q_sum=stack("q_sum"),
            q_max=stack("q_max"),
            coverage=stack("coverage"),
            demand_total=stack("demand_total"),
            residual_total=residual.sum(axis=1, keepdims=True),
            duals=stack("duals"),
            xbar=stack("xbar"),
            selected=stack("selected"),
            residual=residual,
        )
        scores = prog(stacked)
        assert scores.shape == (len(rows), 8)
        for i, ctx in enumerate(rows):
            assert_bitwise_equal(scores[i].copy(), prog(GreedyContext.fresh(ctx.instance)))


# -- evaluator and pipeline ---------------------------------------------------


@pytest.fixture(scope="module")
def bcpop():
    return generate_instance(40, 4, seed=3, name="lockstep-40x4")


def carbon_style_requests(instance, n_trees=6, n_prices=4, seed=0):
    """Predators on a shared price sample, then prey against one champion
    — the two request shapes CARBON sends, every tree used several times."""
    gen = np.random.default_rng(seed)
    low, high = instance.price_bounds
    prices = [gen.uniform(low, high) for _ in range(n_prices)]
    trees = [random_tree(seed * 100 + k) for k in range(n_trees)]
    requests = [(p, t) for t in trees for p in prices]
    requests += [(gen.uniform(low, high), trees[0]) for _ in range(5)]
    return requests


def assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.selection, b.selection)
        assert a.ll_cost == b.ll_cost
        assert a.revenue == b.revenue
        assert a.gap == b.gap or (np.isnan(a.gap) and np.isnan(b.gap))
        assert a.lower_bound == b.lower_bound
        assert a.feasible == b.feasible


class TestEvaluatorBatch:
    def test_batch_matches_interpreter_oracle(self, bcpop):
        requests = carbon_style_requests(bcpop)
        fast = bcpop.make_evaluator(memo_size=0)
        oracle = bcpop.make_evaluator(memo_size=0, compile=False)
        got = fast.evaluate_heuristics_fresh(requests)
        want = [oracle.evaluate_heuristic_fresh(p, t) for p, t in requests]
        assert_same_outcomes(got, want)
        assert fast.n_evaluations == oracle.n_evaluations == len(requests)

    def test_compile_off_never_groups(self, bcpop, monkeypatch):
        """Under ``compile=False`` every solve stays per-solve, even when
        the caller passes an already compiled program as the score
        function."""
        requests = carbon_style_requests(bcpop, n_trees=2, n_prices=3, seed=5)
        programs = {id(t): compile_tree(t) for _, t in requests}
        compiled = [(p, programs[id(t)]) for p, t in requests]
        want = [
            bcpop.make_evaluator(memo_size=0).evaluate_heuristic_fresh(p, t)
            for p, t in requests
        ]

        def no_lockstep(*args, **kwargs):
            raise AssertionError("compile=False must not solve in lockstep")

        monkeypatch.setattr("repro.bcpop.evaluate.greedy_cover_lockstep", no_lockstep)
        oracle = bcpop.make_evaluator(memo_size=0, compile=False)
        assert_same_outcomes(oracle.evaluate_heuristics_fresh(compiled), want)

    @pytest.mark.parametrize("backend, warm", [("scipy", False), ("simplex", True)])
    def test_cache_counters_follow_request_order(self, bcpop, backend, warm):
        """LP-cache hits/misses, warm-start donors and compile-cache
        counters see exactly the per-request sequence."""
        requests = carbon_style_requests(bcpop, seed=1)
        batch = LowerLevelEvaluator(bcpop, lp_backend=backend, memo_size=0, lp_warm_start=warm)
        loop = LowerLevelEvaluator(bcpop, lp_backend=backend, memo_size=0, lp_warm_start=warm)
        got = batch.evaluate_heuristics_fresh(requests)
        want = [loop.evaluate_heuristic_fresh(p, t) for p, t in requests]
        assert_same_outcomes(got, want)
        assert batch.cache_stats == loop.cache_stats
        assert batch.kernel_stats == loop.kernel_stats
        assert batch.n_lp_solves_saved == loop.n_lp_solves_saved
        if warm:
            assert batch.cache_stats["warm_start"]["attempts"] > 0

    def test_opaque_callables_keep_request_order(self, bcpop):
        """A stochastic heuristic draws its numbers in request order,
        interleaved with lockstep groups of compiled trees."""
        base = carbon_style_requests(bcpop, n_trees=2, n_prices=3, seed=2)

        def mixed(rng):
            rand = make_heuristic("random", rng=rng)
            return [(p, rand if k % 3 == 1 else t) for k, (p, t) in enumerate(base)]

        got = bcpop.make_evaluator(memo_size=0).evaluate_heuristics_fresh(
            mixed(np.random.default_rng(9))
        )
        loop = bcpop.make_evaluator(memo_size=0)
        want = [loop.evaluate_heuristic_fresh(p, fn) for p, fn in mixed(np.random.default_rng(9))]
        assert_same_outcomes(got, want)

    def test_pipeline_serial_and_process_match_per_request(self, bcpop):
        requests = carbon_style_requests(bcpop, seed=4)
        requests += requests[:5]  # in-batch duplicates: deduped before dispatch
        loop = LowerLevelEvaluator(bcpop, memo_size=0)
        want = [loop.evaluate_heuristic_fresh(p, t) for p, t in requests]
        serial = EvaluationPipeline(LowerLevelEvaluator(bcpop))
        assert_same_outcomes(serial.evaluate_heuristics(requests), want)
        assert serial.evaluator.kernel_stats["misses"] == loop.kernel_stats["misses"]
        with ProcessExecutor(workers=2) as ex:
            pooled = EvaluationPipeline(LowerLevelEvaluator(bcpop), ex)
            assert_same_outcomes(pooled.evaluate_heuristics(requests), want)
            assert pooled.n_worker_evaluations > 0

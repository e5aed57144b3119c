"""Differential tests: compiled GP evaluation vs the tree interpreter.

The compiler's whole contract is *bit-identity*: for every tree and every
context, ``compile_tree(t)(ctx)`` returns exactly the array
``t.evaluate(ctx)`` would — including NaN/inf propagation, protected
division/modulo edge cases, and constant-folded subtrees.  The interpreter
(``ExecutionConfig(compile=False)``) is the oracle throughout.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bcpop.generator import generate_instance
from repro.covering.greedy import ContextStatics, GreedyContext, greedy_cover
from repro.gp.compile import (
    STATIC_TERMINALS,
    CompileCache,
    CompiledProgram,
    compile_tree,
)
from repro.gp.generate import full_tree, grow_tree
from repro.gp.nodes import Constant
from repro.gp.primitives import (
    lookup_primitive,
    lookup_terminal,
    paper_primitive_set,
)
from repro.gp.tree import SyntaxTree
from repro.lp.bounds import RelaxationCache
from tests.conftest import random_covering


def T(name):
    return lookup_terminal(name)


def P(name):
    return lookup_primitive(name)


def C(value):
    return Constant(value)


def assert_bitwise_equal(a: np.ndarray, b: np.ndarray) -> None:
    """Exact equality including NaN positions and signed zeros."""
    assert a.shape == b.shape
    assert a.dtype == b.dtype == np.float64
    assert np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    ), f"bit mismatch: {a} vs {b}"


def random_tree(seed: int, max_depth: int = 6) -> SyntaxTree:
    gen = np.random.default_rng(seed)
    pset = paper_primitive_set(erc_probability=0.3)
    depth = int(gen.integers(0, max_depth + 1))
    build = full_tree if seed % 2 else grow_tree
    return build(pset, depth, gen)


class TestBasicLowering:
    def test_single_terminal(self, tiny_covering):
        ctx = GreedyContext.fresh(tiny_covering)
        prog = compile_tree(SyntaxTree([T("COST")]))
        assert_bitwise_equal(prog(ctx), np.asarray(tiny_covering.costs))

    def test_single_constant_broadcasts(self, tiny_covering):
        ctx = GreedyContext.fresh(tiny_covering)
        tree = SyntaxTree([C(2.5)])
        prog = compile_tree(tree)
        assert_bitwise_equal(prog(ctx), tree.evaluate(ctx))
        assert prog(ctx).shape == (tiny_covering.n_bundles,)

    def test_constant_folding_collapses_instructions(self):
        # ((1 + 2) * 3) is one CONST instruction, value 9.
        tree = SyntaxTree([P("mul"), P("add"), C(1.0), C(2.0), C(3.0)])
        prog = compile_tree(tree)
        assert prog.n_instructions == 1
        assert prog.is_static

    def test_folding_protected_division_by_zero(self, tiny_covering):
        # 1 / 0 under the protected division is 1.0 — folded or not.
        tree = SyntaxTree([P("div"), C(1.0), C(0.0)])
        ctx = GreedyContext.fresh(tiny_covering)
        prog = compile_tree(tree)
        assert prog.n_instructions == 1  # folded
        assert_bitwise_equal(prog(ctx), tree.evaluate(ctx))

    def test_cse_deduplicates_repeated_subtree(self):
        # (COST/QSUM) + (COST/QSUM): the division is emitted once.
        nodes = [
            P("add"),
            P("div"), T("COST"), T("QSUM"),
            P("div"), T("COST"), T("QSUM"),
        ]
        prog = compile_tree(SyntaxTree(nodes))
        # 2 loads + 1 div + 1 add = 4, not 5.
        assert prog.n_instructions == 4

    def test_cse_result_identical(self, small_covering):
        nodes = [
            P("sub"),
            P("mul"), T("COVER"), T("COST"),
            P("mul"), T("COVER"), T("COST"),
        ]
        tree = SyntaxTree(nodes)
        ctx = GreedyContext.fresh(small_covering)
        assert_bitwise_equal(compile_tree(tree)(ctx), tree.evaluate(ctx))

    def test_static_partition(self):
        # COVER is dynamic, COST is static.
        tree = SyntaxTree([P("div"), T("COST"), T("COVER")])
        prog = compile_tree(tree)
        assert not prog.is_static
        assert len(prog.static_instrs) == 1   # load COST
        assert len(prog.dynamic_instrs) == 2  # load COVER, div
        static_only = SyntaxTree([P("add"), T("COST"), T("DUAL")])
        assert compile_tree(static_only).is_static

    def test_static_terminal_set_matches_pick_semantics(self):
        # The two features GreedyContext.pick refreshes are exactly the
        # dynamic ones; everything else in Table I is static.
        assert "COVER" not in STATIC_TERMINALS
        assert "BRES" not in STATIC_TERMINALS
        for name in ("COST", "QSUM", "QMAX", "BSUM", "DUAL", "XLP"):
            assert name in STATIC_TERMINALS

    def test_malformed_tree_rejected(self):
        with pytest.raises(ValueError, match="stack"):
            compile_tree(SyntaxTree([P("add"), T("COST")]))


class TestDifferentialRandomTrees:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 1_000_000), inst_seed=st.integers(0, 40))
    def test_random_tree_bit_identical(self, seed, inst_seed):
        tree = random_tree(seed)
        inst = random_covering(inst_seed)
        ctx = GreedyContext.fresh(inst)
        expected = tree.evaluate(ctx)
        got = compile_tree(tree)(GreedyContext.fresh(inst))
        assert_bitwise_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_with_duals_and_xbar(self, seed):
        tree = random_tree(seed)
        inst = random_covering(seed % 13)
        cache = RelaxationCache()
        relax = cache.get(inst)
        kw = dict(duals=relax.duals, xbar=relax.xbar)
        expected = tree.evaluate(GreedyContext.fresh(inst, **kw))
        got = compile_tree(tree)(GreedyContext.fresh(inst, **kw))
        assert_bitwise_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 1_000_000), step_seed=st.integers(0, 10_000))
    def test_mid_solve_context_bit_identical(self, seed, step_seed):
        """After picks mutate the dynamic features, the static bank is
        replayed and the dynamic suffix recomputed — still bit-identical."""
        tree = random_tree(seed)
        inst = random_covering(seed % 13)
        prog = compile_tree(tree)
        ctx_i = GreedyContext.fresh(inst)
        ctx_c = GreedyContext.fresh(inst)
        # Warm the static bank before mutating the context.
        assert_bitwise_equal(prog(ctx_c), tree.evaluate(ctx_i))
        gen = np.random.default_rng(step_seed)
        for j in gen.permutation(inst.n_bundles)[:3]:
            ctx_i.pick(int(j))
            ctx_c.pick(int(j))
            assert_bitwise_equal(prog(ctx_c), tree.evaluate(ctx_i))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_nan_inf_inputs_propagate_identically(self, seed):
        """Poisoned features (NaN, ±inf) flow through both paths the same
        way — protected primitives only guard division/modulo by ~0."""
        tree = random_tree(seed)
        inst = random_covering(seed % 7)
        poison = GreedyContext.fresh(inst)
        gen = np.random.default_rng(seed)
        n = inst.n_bundles
        bad = np.where(
            gen.random(n) < 0.3,
            gen.choice([np.nan, np.inf, -np.inf, 0.0], size=n),
            poison.duals,
        )
        poison.duals = bad
        poison2 = GreedyContext.fresh(inst)
        poison2.duals = bad.copy()
        assert_bitwise_equal(compile_tree(tree)(poison2), tree.evaluate(poison))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_serialize_compile_roundtrip(self, seed):
        """serialize → deserialize → compile evaluates identically, and
        the program key round-trips with the canonical serialization."""
        tree = random_tree(seed)
        clone = SyntaxTree.deserialize(tree.serialize())
        inst = random_covering(seed % 11)
        a = compile_tree(tree)(GreedyContext.fresh(inst))
        b = compile_tree(clone)(GreedyContext.fresh(inst))
        assert_bitwise_equal(a, b)
        assert compile_tree(tree).key == clone.serialize()


class TestGreedyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 1_000_000), inst_seed=st.integers(0, 30))
    def test_greedy_cover_identical_solutions(self, seed, inst_seed):
        """The full greedy solve — static hoist, shared statics and all —
        selects the same bundles at the same cost as the interpreter."""
        tree = random_tree(seed)
        inst = random_covering(inst_seed)
        base = greedy_cover(inst, tree)
        prog = compile_tree(tree)
        statics = ContextStatics.for_instance(inst)
        fast = greedy_cover(inst, prog, statics=statics)
        assert np.array_equal(base.selected, fast.selected)
        assert base.cost == fast.cost
        assert base.feasible == fast.feasible
        assert base.iterations == fast.iterations

    def test_statics_match_fresh_construction(self):
        inst = random_covering(3)
        statics = ContextStatics.for_instance(inst)
        fresh = GreedyContext.fresh(inst)
        assert_bitwise_equal(statics.q_sum, fresh.q_sum)
        assert_bitwise_equal(statics.q_max, fresh.q_max)
        assert_bitwise_equal(statics.coverage, fresh.coverage)
        assert_bitwise_equal(statics.demand_total, fresh.demand_total)

    def test_statics_shape_mismatch_rejected(self):
        statics = ContextStatics.for_instance(random_covering(1, n_bundles=10))
        other = random_covering(2, n_bundles=5)
        with pytest.raises(ValueError, match="statics"):
            GreedyContext.fresh(other, statics=statics)


class TestEvaluatorIntegration:
    def test_compiled_vs_interpreted_outcomes(self, small_bcpop):
        """Evaluator-level differential: compile=True and compile=False
        produce byte-identical outcomes over a random population."""
        fast = small_bcpop.make_evaluator(compile=True)
        oracle = small_bcpop.make_evaluator(compile=False)
        gen = np.random.default_rng(11)
        low, high = small_bcpop.price_bounds
        for seed in range(12):
            tree = random_tree(seed)
            prices = gen.uniform(low, high)
            a = fast.evaluate_heuristic(prices, tree)
            b = oracle.evaluate_heuristic(prices, tree)
            assert np.array_equal(a.selection, b.selection)
            assert a.ll_cost == b.ll_cost
            assert a.revenue == b.revenue
            assert a.gap == b.gap
            assert a.lower_bound == b.lower_bound

    def test_kernel_stats_exposed(self, small_bcpop):
        ev = small_bcpop.make_evaluator(compile=True)
        tree = SyntaxTree([P("div"), T("COST"), T("COVER")])
        prices = np.zeros(small_bcpop.n_own)
        ev.evaluate_heuristic_fresh(prices, tree)
        ev.evaluate_heuristic_fresh(prices, tree)
        stats = ev.kernel_stats
        assert stats["enabled"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        off = small_bcpop.make_evaluator(compile=False)
        assert off.kernel_stats == {"enabled": False}

    def test_compile_off_uses_interpreter_directly(self, small_bcpop):
        ev = small_bcpop.make_evaluator(compile=False)
        assert ev.kernel is None
        tree = SyntaxTree([T("COST")])
        out = ev.evaluate_heuristic_fresh(np.zeros(small_bcpop.n_own), tree)
        assert out.feasible


class TestCompileCache:
    def test_structural_sharing(self):
        cache = CompileCache(maxsize=4)
        t1 = SyntaxTree([P("add"), T("COST"), T("QSUM")])
        t2 = SyntaxTree([P("add"), T("COST"), T("QSUM")])  # equal structure
        p1 = cache.get(t1)
        p2 = cache.get(t2)
        assert p1 is p2
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = CompileCache(maxsize=2)
        trees = [SyntaxTree([C(float(i))]) for i in range(3)]
        for t in trees:
            cache.get(t)
        assert len(cache) == 2
        assert cache.evictions == 1
        # Oldest (0.0) was evicted; re-getting it is a miss.
        cache.get(trees[0])
        assert cache.misses == 4

    def test_stats_shape(self):
        cache = CompileCache()
        stats = cache.stats
        assert set(stats) == {
            "entries", "capacity", "hits", "misses", "evictions", "hit_rate",
        }

    def test_programs_are_reusable_across_instances(self):
        cache = CompileCache()
        tree = SyntaxTree([P("mod"), T("COST"), T("COVER")])
        prog = cache.get(tree)
        for s in range(3):
            inst = random_covering(s)
            ctx = GreedyContext.fresh(inst)
            assert_bitwise_equal(prog(ctx), tree.evaluate(GreedyContext.fresh(inst)))


class TestStaticBankCaching:
    def test_bank_cached_per_program_and_width(self):
        inst = random_covering(5)
        tree = SyntaxTree([P("div"), T("COST"), T("COVER")])
        prog = compile_tree(tree)
        ctx = GreedyContext.fresh(inst)
        prog(ctx)
        from repro.gp.compile import _STATE_KEY

        state = ctx.extras[_STATE_KEY]
        assert state[0] is prog and state[1] == inst.n_bundles
        # A different program on the same context rebuilds its own bank.
        other = compile_tree(SyntaxTree([P("add"), T("COST"), T("COVER")]))
        other(ctx)
        assert ctx.extras[_STATE_KEY][0] is other

    def test_bank_never_leaks_between_solves(self):
        """Two consecutive solves of different instances with the same
        program must not share static registers."""
        tree = SyntaxTree([P("div"), T("COST"), T("COVER")])
        prog = compile_tree(tree)
        a = random_covering(1)
        b = random_covering(2)
        out_a = prog(GreedyContext.fresh(a))
        out_b = prog(GreedyContext.fresh(b))
        assert_bitwise_equal(out_a, tree.evaluate(GreedyContext.fresh(a)))
        assert_bitwise_equal(out_b, tree.evaluate(GreedyContext.fresh(b)))


class TestBcpopScale:
    def test_generated_instance_differential(self):
        """A Table-II-shaped (scaled-down) BCPOP instance: full pipeline
        differential across a small population of random trees."""
        inst = generate_instance(60, 6, seed=3)
        ev_fast = inst.make_evaluator(compile=True)
        ev_ref = inst.make_evaluator(compile=False)
        gen = np.random.default_rng(0)
        low, high = inst.price_bounds
        for seed in range(6):
            tree = random_tree(seed, max_depth=5)
            prices = gen.uniform(low, high)
            a = ev_fast.evaluate_heuristic_fresh(prices, tree)
            b = ev_ref.evaluate_heuristic_fresh(prices, tree)
            assert np.array_equal(a.selection, b.selection)
            assert a.gap == b.gap

"""Tests for the Table I primitive sets and protected operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp.nodes import Constant
from repro.gp.primitives import (
    PrimitiveSet,
    lookup_primitive,
    lookup_terminal,
    paper_operator_set,
    paper_primitive_set,
    paper_terminal_set,
)


class TestTableI:
    def test_operator_symbols(self):
        symbols = [op.symbol for op in paper_operator_set()]
        assert symbols == ["+", "-", "*", "%", "mod"]

    def test_all_operators_binary(self):
        assert all(op.arity == 2 for op in paper_operator_set())

    def test_terminal_names_cover_table1(self):
        names = {t.name for t in paper_terminal_set()}
        # c_j, q_j^k views, b^k views, d_k view, x̄_j.
        assert {"COST", "QSUM", "QMAX", "COVER", "BSUM", "BRES", "DUAL", "XLP"} == names

    def test_describe_rows(self):
        rows = paper_primitive_set().describe()
        names = [r[0] for r in rows]
        assert "+" in names and "COST" in names and "ERC" in names


class TestProtectedOps:
    def test_protected_div_normal(self):
        div = lookup_primitive("div")
        assert div.fn(np.array([6.0]), np.array([2.0])) == pytest.approx([3.0])

    def test_protected_div_by_zero_yields_one(self):
        div = lookup_primitive("div")
        out = div.fn(np.array([6.0, -2.0]), np.array([0.0, 1e-12]))
        assert out == pytest.approx([1.0, 1.0])

    def test_protected_mod_normal(self):
        mod = lookup_primitive("mod")
        assert mod.fn(np.array([7.0]), np.array([3.0])) == pytest.approx([1.0])

    def test_protected_mod_by_zero_yields_zero(self):
        mod = lookup_primitive("mod")
        assert mod.fn(np.array([7.0]), np.array([0.0])) == pytest.approx([0.0])

    def test_protected_ops_never_raise_or_nan(self):
        div, mod = lookup_primitive("div"), lookup_primitive("mod")
        a = np.array([0.0, 1.0, -1.0, 1e300, -1e300])
        b = np.array([0.0, 1e-30, -1e-30, 1e-300, 5.0])
        for fn in (div.fn, mod.fn):
            out = fn(a, b)
            assert np.isfinite(out).all()


def _reference_div(a, b):
    """The protected division as first written: one ``np.where`` to make
    the divisor safe, one to put the neutral value back."""
    b = np.asarray(b, dtype=np.float64)
    safe = np.abs(b) > 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(a, np.where(safe, b, 1.0))
    return np.where(safe, out, 1.0)


def _reference_mod(a, b):
    b = np.asarray(b, dtype=np.float64)
    safe = np.abs(b) > 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.fmod(a, np.where(safe, b, 1.0))
    return np.where(safe, out, 0.0)


_EDGES = [0.0, -0.0, 1e-12, -1e-12, 1e-9, -1e-9, np.inf, -np.inf, np.nan,
          5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e308, -1e308]
_VALUES = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=True, allow_infinity=True))


def _operand(draw, shape):
    if shape == ():
        return np.float64(draw(_VALUES))
    values = draw(st.lists(_VALUES, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.float64).reshape(shape)


@st.composite
def _operand_pairs(draw):
    """Scalar/array operands in every broadcasting combination the
    interpreter and the compiled kernel produce: (n,) vs (n,), scalar vs
    (n,), (B, 1) vs (n,), (B, n) vs (n,), scalar vs scalar."""
    n = draw(st.integers(1, 6))
    b = draw(st.integers(1, 4))
    shapes = draw(st.sampled_from([
        ((n,), (n,)), ((), (n,)), ((n,), ()), ((), ()),
        ((b, 1), (n,)), ((n,), (b, 1)), ((b, n), (n,)), ((b, n), (b, n)),
    ]))
    return _operand(draw, shapes[0]), _operand(draw, shapes[1])


class TestProtectedOpsMatchReference:
    """Bitwise equality with the two-``where`` formulation, including NaN
    payload positions, signed zeros, subnormals and infinities."""

    @settings(max_examples=300, deadline=None)
    @given(pair=_operand_pairs())
    def test_div_and_mod_bitwise(self, pair):
        a, b = pair
        for name, reference in (("div", _reference_div), ("mod", _reference_mod)):
            with np.errstate(all="ignore"):
                got = np.asarray(lookup_primitive(name).fn(a, b))
                want = np.asarray(reference(a, b))
            assert got.shape == want.shape and got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (name, a, b)


class TestRegistry:
    def test_lookup_primitive_is_singleton(self):
        assert lookup_primitive("add") is lookup_primitive("add")

    def test_lookup_terminal_is_singleton(self):
        assert lookup_terminal("COST") is lookup_terminal("COST")

    def test_unknown_lookup_raises(self):
        with pytest.raises(KeyError):
            lookup_primitive("pow")


class TestPrimitiveSet:
    def test_requires_operators_and_terminals(self):
        with pytest.raises(ValueError, match="operator"):
            PrimitiveSet(operators=(), terminals=paper_terminal_set())
        with pytest.raises(ValueError, match="terminal"):
            PrimitiveSet(operators=paper_operator_set(), terminals=())

    def test_erc_probability_validated(self):
        with pytest.raises(ValueError, match="erc_probability"):
            paper_primitive_set(erc_probability=1.5)

    def test_random_leaf_respects_erc_probability(self, rng):
        always_erc = paper_primitive_set(erc_probability=1.0)
        never_erc = paper_primitive_set(erc_probability=0.0)
        assert all(
            isinstance(always_erc.random_leaf(rng), Constant) for _ in range(20)
        )
        assert not any(
            isinstance(never_erc.random_leaf(rng), Constant) for _ in range(20)
        )

    def test_erc_range(self, rng):
        pset = paper_primitive_set(erc_probability=1.0, erc_range=(2.0, 3.0))
        for _ in range(20):
            leaf = pset.random_leaf(rng)
            assert 2.0 <= leaf.value <= 3.0

    def test_max_arity(self):
        assert paper_primitive_set().max_arity == 2

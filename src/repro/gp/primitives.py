"""The paper's GP language (Table I) and the primitive registry.

Operators
---------
``+  -  *  %  mod`` — the two division-like operators are *protected*
(divisor magnitude below ``1e-9`` yields a neutral value instead of
inf/nan), the standard Koza treatment that the paper's "with protection"
notes refer to.

Terminals
---------
Table I lists ``c_j``, ``q_j^k``, ``b^k``, ``d_k``, ``x̄_j``.  A scoring
function must produce one value *per bundle j*, while ``q_j^k``, ``b^k``
and ``d_k`` are indexed by service ``k``; the paper does not spell out the
aggregation, so (documented design choice, DESIGN.md §5) each k-indexed
quantity is exposed through natural per-bundle aggregate views:

========  ==========================================  ==================
terminal  definition                                  Table I source
========  ==========================================  ==================
COST      ``c_j``                                     ``c_j``
QSUM      ``sum_k q_j^k``                             ``q_j^k``
QMAX      ``max_k q_j^k``                             ``q_j^k``
COVER     ``sum_k min(q_j^k, residual_k)`` (dynamic)  ``q_j^k`` + ``b^k``
BSUM      ``sum_k b^k`` (broadcast scalar)            ``b^k``
BRES      ``sum_k residual_k`` (broadcast, dynamic)   ``b^k``
DUAL      ``sum_k d_k q_j^k``                         ``d_k`` + ``q_j^k``
XLP       ``x̄_j``                                     ``x̄_j``
ERC       ephemeral random constant in [-1, 1]        (Koza ERC)
========  ==========================================  ==================

With this vocabulary the classical rules are expressible: Chvátal's rule
is ``COST % COVER``, the primal-dual rule is ``COST - DUAL``, LP-guided is
``0 - XLP`` — tests assert these equivalences against
:mod:`repro.covering.heuristics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, cast

import numpy as np

from repro.gp.nodes import Constant, Primitive, Terminal

__all__ = [
    "PrimitiveSet",
    "paper_operator_set",
    "paper_terminal_set",
    "paper_primitive_set",
    "lookup_primitive",
    "lookup_terminal",
]

_PROTECT_EPS = 1e-9


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def _sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a - b


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


# The protected ops set no floating-point error state of their own (an
# ``errstate`` per call cost more than the arithmetic): every caller —
# ``SyntaxTree.evaluate``, ``CompiledProgram``, constant folding — runs
# them under ``np.errstate(all="ignore")``.


def _protected_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a / b`` with divisor protection: |b| < eps (or nan) yields 1.0."""
    b = np.asarray(b, dtype=np.float64)
    out = np.ones(np.broadcast(a, b).shape)
    return cast(np.ndarray, np.divide(a, b, out=out, where=np.abs(b) > _PROTECT_EPS))


def _protected_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``fmod(a, b)`` with divisor protection: |b| < eps (or nan) yields 0.0."""
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros(np.broadcast(a, b).shape)
    return cast(np.ndarray, np.fmod(a, b, out=out, where=np.abs(b) > _PROTECT_EPS))


def _t_cost(ctx: Any) -> np.ndarray:
    return cast(np.ndarray, ctx.costs)


def _t_qsum(ctx: Any) -> np.ndarray:
    return cast(np.ndarray, ctx.q_sum)


def _t_qmax(ctx: Any) -> np.ndarray:
    return cast(np.ndarray, ctx.q_max)


def _t_cover(ctx: Any) -> np.ndarray:
    return cast(np.ndarray, ctx.coverage)


def _t_bsum(ctx: Any) -> np.ndarray:
    return cast(np.ndarray, ctx.demand_total)


def _t_bres(ctx: Any) -> np.ndarray:
    return cast(np.ndarray, ctx.residual_total)


def _t_dual(ctx: Any) -> np.ndarray:
    return cast(np.ndarray, ctx.duals)


def _t_xlp(ctx: Any) -> np.ndarray:
    return cast(np.ndarray, ctx.xbar)


_OPERATORS: dict[str, Primitive] = {
    "add": Primitive("add", 2, _add, "+"),
    "sub": Primitive("sub", 2, _sub, "-"),
    "mul": Primitive("mul", 2, _mul, "*"),
    "div": Primitive("div", 2, _protected_div, "%"),
    "mod": Primitive("mod", 2, _protected_mod, "mod"),
}

_TERMINALS: dict[str, Terminal] = {
    "COST": Terminal("COST", _t_cost, "cost of the current item j (c_j)"),
    "QSUM": Terminal("QSUM", _t_qsum, "total service content of bundle j (sum_k q_j^k)"),
    "QMAX": Terminal("QMAX", _t_qmax, "peak service content of bundle j (max_k q_j^k)"),
    "COVER": Terminal("COVER", _t_cover, "useful residual coverage of bundle j"),
    "BSUM": Terminal("BSUM", _t_bsum, "total required services (sum_k b^k)"),
    "BRES": Terminal("BRES", _t_bres, "remaining required services (dynamic)"),
    "DUAL": Terminal("DUAL", _t_dual, "LP dual-weighted coverage (sum_k d_k q_j^k)"),
    "XLP": Terminal("XLP", _t_xlp, "LP-relaxed solution value for bundle j"),
}


def lookup_primitive(name: str) -> Primitive:
    """Registry lookup used by pickling (:meth:`Primitive.__reduce__`)."""
    return _OPERATORS[name]


def lookup_terminal(name: str) -> Terminal:
    """Registry lookup used by pickling (:meth:`Terminal.__reduce__`)."""
    return _TERMINALS[name]


@dataclass(frozen=True)
class PrimitiveSet:
    """The GP language: operators + terminals + ERC settings.

    Parameters
    ----------
    operators / terminals:
        The available nodes.
    erc_probability:
        Chance that a leaf is an ephemeral constant rather than a terminal.
    erc_range:
        Uniform range ERC values are drawn from.
    """

    operators: tuple[Primitive, ...]
    terminals: tuple[Terminal, ...]
    erc_probability: float = 0.1
    erc_range: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        if not self.operators:
            raise ValueError("need at least one operator")
        if not self.terminals:
            raise ValueError("need at least one terminal")
        if not (0.0 <= self.erc_probability <= 1.0):
            raise ValueError(f"erc_probability out of [0,1]: {self.erc_probability}")

    def random_leaf(self, rng: np.random.Generator) -> Terminal | Constant:
        """Draw a terminal or an ERC."""
        if self.erc_probability > 0 and rng.random() < self.erc_probability:
            lo, hi = self.erc_range
            return Constant(rng.uniform(lo, hi))
        return self.terminals[rng.integers(len(self.terminals))]

    def random_operator(self, rng: np.random.Generator) -> Primitive:
        return self.operators[rng.integers(len(self.operators))]

    @property
    def max_arity(self) -> int:
        return max(op.arity for op in self.operators)

    def describe(self) -> list[tuple[str, str]]:
        """(name, description) rows — regenerates the content of Table I."""
        rows = [(op.symbol, f"operator, arity {op.arity}") for op in self.operators]
        rows += [(t.name, t.description) for t in self.terminals]
        if self.erc_probability > 0:
            lo, hi = self.erc_range
            rows.append(("ERC", f"ephemeral constant in [{lo:g}, {hi:g}]"))
        return rows


def paper_operator_set() -> tuple[Primitive, ...]:
    """Table I operators: ``+ - * %(protected) mod(protected)``."""
    return tuple(_OPERATORS[k] for k in ("add", "sub", "mul", "div", "mod"))


def paper_terminal_set() -> tuple[Terminal, ...]:
    """Table I terminals in per-bundle aggregate form (module docstring)."""
    return tuple(
        _TERMINALS[k]
        for k in ("COST", "QSUM", "QMAX", "COVER", "BSUM", "BRES", "DUAL", "XLP")
    )


def paper_primitive_set(
    erc_probability: float = 0.1,
    erc_range: tuple[float, float] = (-1.0, 1.0),
) -> PrimitiveSet:
    """The complete Table I language."""
    return PrimitiveSet(
        operators=paper_operator_set(),
        terminals=paper_terminal_set(),
        erc_probability=erc_probability,
        erc_range=erc_range,
    )

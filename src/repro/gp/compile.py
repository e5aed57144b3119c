"""Bytecode compilation of GP syntax trees (the evaluation hot path).

Every fitness call, served solve, and greedy pass bottoms out in scoring
an instance with a :class:`repro.gp.tree.SyntaxTree`.  The interpreter
walks the node list with per-node ``isinstance`` dispatch and recomputes
duplicated subtrees on every call; this module lowers a tree **once**
into a flat register program (:class:`CompiledProgram`) and then replays
straight-line numpy instructions:

* **Constant folding** — subtrees whose leaves are all ERCs are reduced
  to a single constant at compile time, using the *same* protected
  primitive implementations on ``np.float64`` scalars.  IEEE-754
  elementwise ops are computed per element, so folding a scalar and
  broadcasting the result is bit-identical to broadcasting the operands
  and computing elementwise (non-finite folds included — the greedy
  solver already treats inf/nan as worst-score).
* **Common-subtree elimination** — instructions are keyed by the
  canonical subtree serialization (the exact token stream of
  :meth:`SyntaxTree.serialize`, i.e. the ``stable_hash`` preimage), so a
  duplicated subtree is computed once per evaluation and its register
  reused.  Re-using one deterministic result instead of recomputing it
  is trivially bit-identical.
* **Static/dynamic partition** — terminals are split into *static*
  features (fixed for a whole greedy solve: ``COST QSUM QMAX BSUM DUAL
  XLP``) and *dynamic* ones refreshed at every greedy step (``COVER``,
  ``BRES``).  Instructions depending only on static inputs are hoisted
  into a prefix evaluated once per solve and cached in ``ctx.extras``;
  each greedy step replays only the dynamic suffix.  A program with no
  dynamic input at all (``is_static``) lets the greedy loop hoist the
  *entire* scoring call out of the step loop — the scores are the same
  array at every step, so the selected bundles are unchanged.

The interpreter stays available behind ``ExecutionConfig(compile=False)``
as the differential-testing oracle; the hypothesis suite
(tests/test_gp_compile.py) asserts bit-identity over random trees,
including protected-division edge cases and non-finite folds.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.gp.nodes import Constant, Primitive, Terminal
from repro.gp.tree import SyntaxTree

__all__ = [
    "STATIC_TERMINALS",
    "CompiledProgram",
    "CompileCache",
    "compile_tree",
]

#: Terminals whose value is fixed for one whole greedy solve.  ``COVER``
#: (useful residual coverage) and ``BRES`` (remaining demand) are the two
#: Table-I features :meth:`repro.covering.greedy.GreedyContext.pick`
#: refreshes per step; everything else depends only on (costs, q, demand,
#: relaxation), all constant within a solve.  Unknown terminal names are
#: conservatively treated as dynamic.
STATIC_TERMINALS = frozenset({"COST", "QSUM", "QMAX", "BSUM", "DUAL", "XLP"})

#: ``ctx.extras`` key holding the per-solve static register bank.
_STATE_KEY = "__kernel_static_regs__"

_OP_CONST = 0
_OP_LOAD = 1
_OP_CALL = 2


@dataclass(frozen=True)
class _Instr:
    """One register-machine instruction (write-once destination).

    ``op`` selects the payload: ``_OP_CONST`` broadcasts ``value``,
    ``_OP_LOAD`` reads a terminal feature via ``fn(ctx)``, ``_OP_CALL``
    applies a primitive ``fn`` to the operand registers ``args``.
    """

    op: int
    dest: int
    fn: Callable[..., np.ndarray] | None
    args: tuple[int, ...]
    value: float
    static: bool


@dataclass
class _Desc:
    """Compile-time descriptor of a subtree value.

    ``const`` marks a compile-time constant carried in ``value`` (an ERC
    leaf or a folded subtree); it is materialized into a const-load
    instruction lazily, only when a non-foldable consumer needs a
    register, so constants consumed purely by further folding never hit
    the instruction stream.
    """

    key: str
    static: bool
    const: bool = False
    reg: int = -1
    value: float = 0.0


class CompiledProgram:
    """A syntax tree lowered to straight-line numpy instructions.

    Instances are callable score functions (same contract as
    :class:`SyntaxTree`): ``program(ctx)`` returns the per-bundle score
    vector, bit-identical to ``tree.evaluate(ctx)``.
    """

    __slots__ = (
        "key",
        "source_size",
        "n_regs",
        "root",
        "static_instrs",
        "dynamic_instrs",
        "is_static",
    )

    def __init__(
        self,
        key: str,
        source_size: int,
        n_regs: int,
        root: int,
        static_instrs: tuple[_Instr, ...],
        dynamic_instrs: tuple[_Instr, ...],
    ) -> None:
        self.key = key
        self.source_size = source_size
        self.n_regs = n_regs
        self.root = root
        self.static_instrs = static_instrs
        self.dynamic_instrs = dynamic_instrs
        self.is_static = not dynamic_instrs

    # -- introspection -----------------------------------------------------

    @property
    def n_instructions(self) -> int:
        return len(self.static_instrs) + len(self.dynamic_instrs)

    def __repr__(self) -> str:
        return (
            f"CompiledProgram({self.source_size} nodes -> "
            f"{self.n_instructions} instrs, "
            f"{len(self.static_instrs)} static)"
        )

    # -- execution ---------------------------------------------------------

    @staticmethod
    def _run(
        instrs: tuple[_Instr, ...],
        regs: list[np.ndarray | None],
        ctx: Any,
        shape: tuple[int, ...],
    ) -> None:
        for ins in instrs:
            fn = ins.fn
            if ins.op == _OP_CALL:
                assert fn is not None
                regs[ins.dest] = fn(*(regs[a] for a in ins.args))
            elif ins.op == _OP_LOAD:
                assert fn is not None
                regs[ins.dest] = np.asarray(fn(ctx), dtype=np.float64)
            else:  # _OP_CONST
                regs[ins.dest] = np.full(shape, ins.value)

    def evaluate(self, ctx: Any) -> np.ndarray:
        """Score all bundles of ``ctx`` — bit-identical to the interpreter.

        The scores take the shape of ``ctx.costs``: ``(n,)`` for one
        greedy context, ``(B, n)`` for the
        :class:`repro.covering.greedy.LockstepContext` of B solves, whose
        features are ``(B, n)`` rows or ``(n,)``/``(B, 1)`` arrays that
        broadcast against them.  Every primitive is elementwise IEEE
        arithmetic, so row ``i`` of a lockstep score matrix is
        bit-identical to scoring solve ``i``'s own context.

        When ``ctx`` carries an ``extras`` dict, the static register bank
        is computed on the first call of the solve and replayed on every
        subsequent greedy step; contexts without ``extras`` (e.g. the
        bilinear toy's) simply evaluate everything each call.
        """
        shape: tuple[int, ...] = tuple(ctx.costs.shape)
        n = shape[-1]
        extras = getattr(ctx, "extras", None)
        cacheable = isinstance(extras, dict)
        state: tuple[Any, ...] | None = None
        if cacheable:
            found = extras.get(_STATE_KEY)
            # The bank belongs to exactly one (program, width) pair; a
            # context reused with another tree falls back to a fresh bank.
            if (
                isinstance(found, tuple)
                and found[0] is self
                and found[1] == n
            ):
                state = found
        regs: list[np.ndarray | None]
        with np.errstate(all="ignore"):
            if state is None:
                regs = [None] * self.n_regs
                self._run(self.static_instrs, regs, ctx, shape)
                if cacheable:
                    extras[_STATE_KEY] = (self, n, list(regs))
            else:
                regs = list(state[2])
            self._run(self.dynamic_instrs, regs, ctx, shape)
        result = regs[self.root]
        assert result is not None
        if result.shape != shape:
            result = np.broadcast_to(result, shape).astype(np.float64)
        return result

    __call__ = evaluate


def compile_tree(tree: SyntaxTree) -> CompiledProgram:
    """Lower ``tree`` to a :class:`CompiledProgram` (fold + CSE + split).

    The single pass walks the prefix node list exactly like the
    interpreter (reversed, stack-based) but pushes *descriptors* instead
    of arrays, emitting each unique subtree's instruction once.
    """
    instrs: list[_Instr] = []
    by_key: dict[str, _Desc] = {}
    n_regs = 0

    def _new_reg() -> int:
        nonlocal n_regs
        n_regs += 1
        return n_regs - 1

    def _materialize(desc: _Desc) -> int:
        """Give a folded constant a register (emitted lazily so constants
        consumed only by further folding never hit the instruction
        stream)."""
        if desc.reg < 0:
            desc.reg = _new_reg()
            instrs.append(
                _Instr(_OP_CONST, desc.reg, None, (), desc.value, True)
            )
        return desc.reg

    stack: list[_Desc] = []
    with np.errstate(all="ignore"):
        for node in reversed(tree.nodes):
            if isinstance(node, Primitive):
                if len(stack) < node.arity:
                    raise ValueError(
                        f"malformed tree: {node.name} wants {node.arity} "
                        f"args, stack has {len(stack)}"
                    )
                args = [stack.pop() for _ in range(node.arity)]
                key = f"P:{node.name} " + " ".join(d.key for d in args)
                found = by_key.get(key)
                if found is not None:
                    stack.append(found)  # CSE: reuse the earlier subtree
                    continue
                if all(d.const for d in args):
                    # Constant folding with the exact primitive fns on
                    # float64 scalars — per-element identical to the
                    # broadcast elementwise op the interpreter performs.
                    folded = float(
                        np.asarray(
                            node.fn(*(np.float64(d.value) for d in args))
                        )
                    )
                    desc = _Desc(key=key, static=True, const=True, value=folded)
                else:
                    regs = tuple(_materialize(d) for d in args)
                    static = all(d.static for d in args)
                    dest = _new_reg()
                    instrs.append(
                        _Instr(_OP_CALL, dest, node.fn, regs, 0.0, static)
                    )
                    desc = _Desc(key=key, static=static, reg=dest)
                by_key[key] = desc
                stack.append(desc)
            elif isinstance(node, Constant):
                key = f"C:{float(node.value).hex()}"
                found = by_key.get(key)
                if found is None:
                    found = _Desc(
                        key=key, static=True, const=True, value=float(node.value)
                    )
                    by_key[key] = found
                stack.append(found)
            else:  # Terminal
                assert isinstance(node, Terminal)
                key = f"T:{node.name}"
                found = by_key.get(key)
                if found is None:
                    dest = _new_reg()
                    static = node.name in STATIC_TERMINALS
                    instrs.append(
                        _Instr(_OP_LOAD, dest, node.fn, (), 0.0, static)
                    )
                    found = _Desc(key=key, static=static, reg=dest)
                    by_key[key] = found
                stack.append(found)
    if len(stack) != 1:
        raise ValueError(f"malformed tree left {len(stack)} values on the stack")
    root = _materialize(stack[0])

    # Stable partition: a static instruction only reads static registers,
    # so hoisting the whole static set ahead of the dynamic set (keeping
    # relative order within each) preserves every def-before-use edge.
    static_instrs = tuple(i for i in instrs if i.static)
    dynamic_instrs = tuple(i for i in instrs if not i.static)
    return CompiledProgram(
        key=tree.serialize(),
        source_size=tree.size,
        n_regs=n_regs,
        root=root,
        static_instrs=static_instrs,
        dynamic_instrs=dynamic_instrs,
    )


class CompileCache:
    """LRU cache of :class:`CompiledProgram` objects.

    Keyed on the canonical tree serialization — the same content key the
    evaluation memo embeds (:meth:`LowerLevelEvaluator.heuristic_key`)
    and the preimage of ``stable_hash`` — so structurally equal trees
    share one program across generations, process-pool workers, and
    served registry heuristics.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._store: OrderedDict[str, CompiledProgram] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, tree: SyntaxTree) -> CompiledProgram:
        """The compiled form of ``tree``, compiling at most once per
        structurally distinct tree."""
        key = tree.serialize()
        found = self._store.get(key)
        if found is not None:
            self.hits += 1
            self._store.move_to_end(key)
            return found
        self.misses += 1
        program = compile_tree(tree)
        self._store[key] = program
        if len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            self.evictions += 1
        return program

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

    @property
    def stats(self) -> dict[str, Any]:
        return {
            "entries": len(self._store),
            "capacity": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

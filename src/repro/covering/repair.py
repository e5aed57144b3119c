"""Feasibility repair and redundancy pruning for binary covering vectors.

COBRA's lower-level population is a set of raw binary vectors evolved with
two-point crossover and swap mutation; offspring routinely under-cover the
demand.  The repair operator completes them greedily (Chvátal order) and
prunes redundancy, which is the standard treatment in evolutionary covering
solvers and keeps the baseline competitive in good faith.
"""

from __future__ import annotations

import numpy as np

from repro.covering.instance import CoveringInstance

__all__ = ["repair_cover", "prune_redundant"]


def prune_redundant(instance: CoveringInstance, selected: np.ndarray) -> np.ndarray:
    """Drop selected bundles that are not needed, most expensive first.

    Returns a new boolean vector; the input is not modified.  The result is
    feasible whenever the input is, and minimal in the sense that no single
    remaining bundle can be removed.
    """
    sel = np.asarray(selected, dtype=bool).copy()
    coverage = instance.q[:, sel].sum(axis=1)
    order = np.flatnonzero(sel)
    order = order[np.argsort(-instance.costs[order], kind="stable")]
    demand = instance.demand
    for j in order:
        slack_ok = coverage - instance.q[:, j] >= demand - 1e-9
        if slack_ok.all():
            sel[j] = False
            coverage -= instance.q[:, j]
    return sel


def repair_cover(
    instance: CoveringInstance,
    selected: np.ndarray,
    prune: bool = True,
    order: str = "chvatal",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Make a binary vector feasible (if possible) and optionally minimal.

    Missing coverage is filled by repeatedly adding a useful bundle until
    every requirement is met.  ``order`` picks the completion rule:

    * ``"chvatal"`` — cost per useful unit (strong, heuristic-informed);
    * ``"random"``  — uniformly random useful bundle (needs ``rng``); this
      is the *neutral* repair used for the COBRA baseline so that the
      baseline's solution quality comes from its own evolution, not from a
      hand-written heuristic smuggled in through repair (DESIGN.md §5);
    * ``"cost"``    — cheapest useful bundle first.

    If the instance is uncoverable the all-selected vector is returned
    (still infeasible — callers detect this via
    :meth:`CoveringInstance.is_feasible`).
    """
    sel = np.asarray(selected, dtype=bool).copy()
    if sel.shape != (instance.n_bundles,):
        raise ValueError(
            f"selection shape {sel.shape} != ({instance.n_bundles},)"
        )
    if order == "random" and rng is None:
        raise ValueError("order='random' requires an rng")
    if order not in ("chvatal", "random", "cost"):
        raise ValueError(f"unknown repair order {order!r}")
    residual = np.maximum(instance.demand - instance.q[:, sel].sum(axis=1), 0.0)
    while residual.max(initial=0.0) > 1e-9:
        useful = np.minimum(instance.q, residual[:, None]).sum(axis=0)
        useful[sel] = 0.0
        if useful.max(initial=0.0) <= 1e-12:
            sel[:] = True  # uncoverable: saturate so the caller can tell
            return sel
        if order == "chvatal":
            score = np.where(
                useful > 1e-12, instance.costs / np.maximum(useful, 1e-12), np.inf
            )
            j = int(np.argmin(score))
        elif order == "cost":
            score = np.where(useful > 1e-12, instance.costs, np.inf)
            j = int(np.argmin(score))
        else:  # random
            candidates = np.flatnonzero(useful > 1e-12)
            j = int(candidates[rng.integers(candidates.size)])
        sel[j] = True
        np.subtract(residual, instance.q[:, j], out=residual)
        np.maximum(residual, 0.0, out=residual)
    if prune:
        sel = prune_redundant(instance, sel)
    return sel

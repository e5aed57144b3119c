"""One segment of a training run: a fresh process running CARBON jobs.

Run by ``train.py``; prints one JSON line.  The parent measures set-up
from the moment it launched this process to ``t_ready`` (both
``time.perf_counter``, the system-wide monotonic clock on Linux):
interpreter start, imports, the executor (for ``procs`` the caller's pool
is spawned and its workers have imported and warmed the evaluation
stack), one warm-up lower-level evaluation, the first instance and the
first algorithm.  Then the segment trains the jobs ``--jobs`` names, in
order: job seed ``j`` trains on ``generate_instance(n, m, j)`` with
algorithm seed ``j % ALGORITHM_SEEDS``.  ``train_s`` is ``EngineLoop.run`` up to the
returned ``RunResult``.

    PYTHONPATH=src python3 carbonbench/train_job.py --executor serial --jobs 0,1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from common import WORK_DIR, proc_status

#: Job shapes.  ``full`` is the benchmark workload (the Table-II n250-m10
#: class, populations 20/20, five prices per heuristic, UL:LL budget 1:5 so
#: that each engine step is one GP and one GA generation; 40/200 is the
#: initialisation plus one such step, the step whose cost the algorithm
#: seed fixes best: later steps run on trees the instance has shaped (over
#: five instances, algorithm seed 0's first step took 223-241 ms and its
#: fourth 216-335 ms)); ``tiny`` only exists for the self-tests.
SCALES = {
    "full": {"n": 250, "m": 10, "pop": 20, "sample": 5, "ul": 40, "ll": 200},
    "tiny": {"n": 40, "m": 3, "pop": 20, "sample": 5, "ul": 40, "ll": 200},
}
WORKERS = 2
#: Job ``j`` evolves from algorithm seed ``j % ALGORITHM_SEEDS``, so job
#: ``k`` of every run (job seed ``1000*s + k``) starts from the same seed
#: ``k`` on a new instance.  The evolutionary trajectory the seed draws
#: sets most of a job's cost (jobs on one instance took 0.57-1.05 s across
#: four algorithm seeds, and 0.57-0.59 s across four instances with one
#: seed), so fixing it keeps the spread between runs about the program.
ALGORITHM_SEEDS = 1000


def warm_lower_level() -> float:
    """One lower-level evaluation on a small throwaway instance, so the
    libraries' lazy first-call set-up (LP solver, compiled kernel) is paid
    in set-up rather than inside the first timed job."""
    import numpy as np

    from repro.bcpop.generator import generate_instance
    from repro.gp.generate import ramped_half_and_half
    from repro.gp.primitives import paper_primitive_set

    instance = generate_instance(20, 3, seed=0)
    (tree,) = ramped_half_and_half(paper_primitive_set(), 1, np.random.default_rng(0))
    evaluator = instance.make_evaluator(memo_size=0)
    return evaluator.evaluate_heuristic_fresh(instance.price_bounds[1] / 2, tree).gap


def _warm_worker(task: tuple[str, int]) -> int:
    """Pool warm-up task: import and warm the evaluation stack, then wait
    until every worker has checked in, so that each worker takes exactly
    one task and the map returns once the whole pool is up."""
    rendezvous, workers = task
    warm_lower_level()
    with open(os.path.join(rendezvous, str(os.getpid())), "w"):
        pass
    deadline = time.monotonic() + 60.0
    while len(os.listdir(rendezvous)) < workers and time.monotonic() < deadline:
        time.sleep(0.001)
    return os.getpid()


def fingerprint(result) -> dict:
    """The training result a faster program must reproduce exactly."""
    return {
        "best_gap": float(result.best_gap),
        "best_upper": float(result.best_upper),
        "ul_evaluations": int(result.ul_evaluations_used),
        "ll_evaluations": int(result.ll_evaluations_used),
        "champion": result.extras["champion_tree"].stable_hash(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--executor", choices=("serial", "procs"), required=True)
    parser.add_argument("--jobs", required=True,
                        help="comma-separated job seeds, trained in this order")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    shape = SCALES[args.scale]
    job_seeds = [int(j) for j in args.jobs.split(",")]

    import multiprocessing

    import numpy as np

    from repro.bcpop.generator import generate_instance
    from repro.core.carbon import Carbon
    from repro.core.config import CarbonConfig, UpperLevelConfig
    from repro.core.engine import EngineLoop
    from repro.core.events import Observer
    from repro.parallel.executor import ProcessExecutor, SerialExecutor

    class StepClock(Observer):
        """Initialisation time (from the start of ``EngineLoop.run``) and
        the durations of the engine steps that ran both a GP and a GA
        generation (the last step can be a GP-only remnant of the LL
        budget)."""

        def __init__(self) -> None:
            self.start = time.perf_counter()
            self.init_ms = 0.0
            self.steps_ms: list[float] = []
            self._last: tuple[float, tuple[int, int]] | None = None

        def on_init(self, event) -> None:
            now = time.perf_counter()
            self.init_ms = (now - self.start) * 1e3
            self._last = (now, event.algorithm.budget_used())

        def on_generation_end(self, event) -> None:
            now, used = time.perf_counter(), event.algorithm.budget_used()
            t0, before = self._last
            if used[0] > before[0] and used[1] > before[1]:
                self.steps_ms.append((now - t0) * 1e3)
            self._last = (now, used)

    config = CarbonConfig(
        upper=UpperLevelConfig(
            population_size=shape["pop"], archive_size=shape["pop"],
            fitness_evaluations=shape["ul"],
        ),
        ll_population_size=shape["pop"],
        ll_archive_size=shape["pop"],
        ll_fitness_evaluations=shape["ll"],
        heuristic_eval_sample=shape["sample"],
    )

    def build(s: int) -> Carbon:
        return Carbon(generate_instance(shape["n"], shape["m"], seed=s), config=config,
                      rng=np.random.default_rng(s % ALGORITHM_SEEDS), executor=executor)

    spawn_s = 0.0
    if args.executor == "procs":
        executor = ProcessExecutor(workers=WORKERS)
        t0 = time.perf_counter()
        os.makedirs(WORK_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.abspath(WORK_DIR)) as rdv:
            pids = executor.map(_warm_worker, [(rdv, WORKERS)] * WORKERS)
        spawn_s = time.perf_counter() - t0
        if len(set(pids)) != WORKERS:
            raise RuntimeError(f"pool warm-up reached {len(set(pids))} of {WORKERS} workers")
    else:
        executor = SerialExecutor()
    warm_lower_level()
    algorithm = build(job_seeds[0])
    tracer = None
    if os.environ.get("CARBONBENCH_TRACE_DIR"):
        import cbtrace  # on the path in traced runs only (see hook/)

        tracer = cbtrace.active()
    t_ready = time.perf_counter()

    jobs: list[dict] = []
    for k, seed in enumerate(job_seeds):
        if k:
            algorithm = build(seed)
        loop = EngineLoop(algorithm, observers=[clock := StepClock()])
        t0 = clock.start = time.perf_counter()
        if tracer is not None:
            result = tracer.root("engine.run", loop.run, seed_label=seed)
        else:
            result = loop.run(seed_label=seed)
        train_s = time.perf_counter() - t0
        jobs.append({
            "seed": seed,
            "train_s": train_s,
            "init_ms": clock.init_ms,
            "steps_ms": clock.steps_ms,
            "evaluations": result.ul_evaluations_used + result.ll_evaluations_used,
            "fingerprint": fingerprint(result),
        })

    processes = [proc_status(os.getpid())]
    processes += [proc_status(p.pid) for p in multiprocessing.active_children()]
    executor.close()
    print(json.dumps({
        "t_ready": t_ready,
        "spawn_s": spawn_s,
        "jobs": jobs,
        "processes": processes,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

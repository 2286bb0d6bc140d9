"""Zoo sweep: every sim x algorithm pair through the batched rollout stack.

The Minigo pool (PRs 2-5) demonstrated cross-worker inference batching for
one workload.  The stepwise-driver refactor made that machinery
env-agnostic, and this sweep is its proof obligation: a grid over
**simulators x algorithm families x worker counts x replica counts** in
which every cell routes per-step policy evaluation through the shared
:class:`~repro.rollout.inference.InferenceService`.

Each cell runs twice with identical seeds:

* **batched** — ``FLUSH_MAX_BATCH``: the pool scheduler coalesces the
  pending steps of many workers into shared engine calls;
* **unbatched control** — ``FLUSH_UNBATCHED``: every policy evaluation is
  its own engine call, the serial per-step regime of the classic
  collection loop.

The headline per-cell numbers are the *cross-worker batch share* (fraction
of served batches spanning >1 worker) and the *engine-call reduction*
(unbatched calls / batched calls) — both must exceed their floors for the
batched stack to be doing real work, which ``tests/test_zoosweep.py``
pins.  Cells whose algorithm family cannot act in the sim's action space
(DQN on continuous control, DDPG on discrete) are recorded as skipped
rather than silently dropped.

Everything is a pure function of ``seed``: the report is byte-identical
across runs of the same configuration.
"""

from __future__ import annotations

import os
from types import SimpleNamespace
from typing import Sequence

from ..rl.zoo import ZOO_ALGORITHMS, make_zoo_pool
from ..rollout.inference import FLUSH_MAX_BATCH, FLUSH_UNBATCHED
from ..sim import registry
from ..system import System
from .sweep import Sweep, SweepResult

#: Simulators the default sweep grids over (>= 3 non-Go per the roadmap;
#: Go rides along as the discrete board-game workload, exercised by DQN/PPO
#: and skipped by continuous-control families).
DEFAULT_ZOO_SIMS = ("Pong", "Hopper", "Walker2D", "HalfCheetah", "Go")
#: Algorithm families swept (keys of ``repro.rl.zoo.ZOO_ALGORITHMS``).
DEFAULT_ZOO_ALGOS = ("DQN", "PPO", "DDPG")
DEFAULT_ZOO_WORKERS = (4, 8)
DEFAULT_ZOO_REPLICAS = (1, 2)
DEFAULT_ZOO_STEPS = 8


def _row(result, point):
    yield (f"{point.sim:>12} {point.algorithm:>5} {point.num_workers:>4d} "
           f"{point.num_replicas:>4d} {point.steps:>6d} {point.engine_calls:>6d} "
           f"{point.unbatched_engine_calls:>6d} {point.engine_call_reduction:>8.1f}x "
           f"{100.0 * point.cross_worker_share:>7.1f}% {point.mean_batch:>6.1f} "
           f"{point.collection_span_us:>10.1f} {point.span_speedup:>6.2f}x")


ZOO_SWEEP = Sweep(
    "zoo sweep", key=("sim", "algorithm", "num_workers", "num_replicas"),
    defaults=dict(algorithms=DEFAULT_ZOO_ALGOS, worker_counts=DEFAULT_ZOO_WORKERS,
                  replica_counts=DEFAULT_ZOO_REPLICAS, steps_per_worker=DEFAULT_ZOO_STEPS,
                  seed=0, trace_dir=None),
    title=lambda result: [
        f"Zoo sweep: {len(result.points)} cells over "
        f"{len(result.sims)} sims x {len(result.algorithms)} algorithm families, "
        f"workers={list(result.worker_counts)}, replicas={list(result.replica_counts)}, "
        f"{result.steps_per_worker} steps/worker (seed {result.seed})",
        "every cell routes per-step policy evaluation through the shared "
        "batched InferenceService; 'serial' is the unbatched control "
        "(one engine call per evaluation), 'reduction' = serial / calls"],
    header=(f"{'sim':>12} {'algo':>5} {'wrk':>4} {'repl':>4} {'steps':>6} "
            f"{'calls':>6} {'serial':>6} {'reduction':>9} {'xworker%':>8} "
            f"{'batch':>6} {'span us':>10} {'speedup':>7}"),
    row=_row,
    notes=lambda result: [f"{sim:>12} {algorithm:>5} {'skipped':>51} ({reason})"
                          for sim, algorithm, reason in result.skipped])


def _cell(options, sim: str, algorithm: str, num_workers: int,
          num_replicas: int) -> SimpleNamespace:
    """One cell: the batched run (traced under ``trace_dir``) and its unbatched control."""
    def collect(flush_policy: str, trace_dir=None):
        pool = make_zoo_pool(sim, algorithm, num_workers,
                             steps_per_worker=options.steps_per_worker,
                             num_replicas=num_replicas, flush_policy=flush_policy,
                             seed=options.seed, profile=trace_dir is not None,
                             trace_dir=trace_dir)
        pool.run()
        return pool

    cell_trace = None
    if options.trace_dir is not None:
        cell_trace = os.path.join(options.trace_dir,
                                  f"{sim}_{algorithm}_w{num_workers}_r{num_replicas}")
    batched = collect(FLUSH_MAX_BATCH, cell_trace)
    control = collect(FLUSH_UNBATCHED)
    stats = batched.inference_service.stats
    unbatched_calls = control.inference_service.stats.engine_calls
    span_us, unbatched_span_us = batched.collection_span_us(), control.collection_span_us()
    return SimpleNamespace(
        sim=sim, algorithm=algorithm, num_workers=num_workers, num_replicas=num_replicas,
        steps=batched.total_steps(), engine_calls=stats.engine_calls, rows=stats.rows,
        cross_worker_share=stats.cross_worker_share,
        unbatched_engine_calls=unbatched_calls,
        collection_span_us=span_us, unbatched_span_us=unbatched_span_us,
        mean_batch=stats.rows / stats.engine_calls if stats.engine_calls else 0.0,
        # How many serial engine calls one batched call replaces.
        engine_call_reduction=(unbatched_calls / stats.engine_calls
                               if stats.engine_calls else 0.0),
        span_speedup=unbatched_span_us / span_us if span_us else 0.0)


def run_zoo_sweep(sims: Sequence[str] = DEFAULT_ZOO_SIMS, **overrides) -> SweepResult:
    """Run the workload zoo over the (sim, algorithm, workers, replicas) grid.

    ``overrides`` replace entries of ``ZOO_SWEEP.defaults``.  With
    ``trace_dir`` set, every batched cell streams its full profiler trace
    into ``trace_dir/<sim>_<algo>_w<workers>_r<replicas>`` (a
    :class:`~repro.tracedb.store.TraceDB` per cell).
    """
    options = ZOO_SWEEP.options(overrides)
    if not sims:
        raise ValueError("sims must be non-empty")
    unknown = [a for a in options.algorithms if a not in ZOO_ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown zoo algorithms {unknown}; "
                         f"available: {sorted(ZOO_ALGORITHMS)}")
    if (any(w <= 0 for w in options.worker_counts)
            or any(r <= 0 for r in options.replica_counts)):
        raise ValueError("worker and replica counts must be positive")

    discrete = {
        sim: registry.make(sim, System.create(seed=0), seed=0).is_discrete
        for sim in sims
    }
    points, skipped = [], []
    for sim in sims:
        for algorithm in options.algorithms:
            spec = ZOO_ALGORITHMS[algorithm]
            if not (spec.supports_discrete if discrete[sim] else spec.supports_continuous):
                space = "discrete" if discrete[sim] else "continuous"
                skipped.append((sim, algorithm,
                                f"{algorithm} does not act in {space} action spaces"))
                continue
            points.extend(_cell(options, sim, algorithm, num_workers, num_replicas)
                          for num_workers in options.worker_counts
                          for num_replicas in options.replica_counts)
    return ZOO_SWEEP.result(points, sims=tuple(sims), skipped=skipped, **vars(options))

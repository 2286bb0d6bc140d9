"""Scheduler sweep: sequential vs event-driven pool at each leaf batch size.

PR 2's batched :class:`InferenceService` capped its win at one worker's
``leaf_batch``: the sequential pool simulates workers one after another on
overlapping virtual timelines, so a flush almost always serves a single
worker's wave.  The event-driven :class:`~repro.minigo.workers.PoolScheduler`
interleaves all workers at wave granularity and only serves the queue when
every runnable worker is blocked on inference — one engine call then batches
leaves from many workers at the same virtual instant, the way a real
inference server batches across client processes.

This sweep runs the pool under both schedulers for each ``leaf_batch`` and
reports, per point, the engine calls issued, the share of batches serving
more than one worker, batch occupancy, and the queueing delay the
event-driven model charges (the sequential model hides replica contention
entirely, which is why its collection span can look *shorter* while issuing
many times more engine calls).
"""

from __future__ import annotations

from typing import Sequence

from ..minigo.workers import SCHEDULER_EVENT, SCHEDULER_SEQUENTIAL
from ..rollout.inference import FLUSH_MAX_BATCH, ROUTING_ROUND_ROBIN
from .batchsweep import BATCH_SWEEP
from .sweep import Sweep, SweepResult, selfplay_cell

#: The sweep the paper-style report covers.
DEFAULT_SCHED_LEAF_BATCHES = (1, 4, 8)
DEFAULT_SCHED_WORKERS = 8


def _calls_per_row(point) -> float:
    return point.engine_calls / point.rows if point.rows else 0.0


def call_reduction(result, leaf_batch: int) -> float:
    """Engine calls per evaluated row: sequential over event-driven.

    Normalised per row because cross-worker coalescing perturbs network
    outputs at the ulp level, so trajectories (and row counts) can
    differ slightly between the two schedulers."""
    event = _calls_per_row(result.point(SCHEDULER_EVENT, leaf_batch))
    return _calls_per_row(result.point(SCHEDULER_SEQUENTIAL, leaf_batch)) / event if event else 0.0


def raw_call_reduction(result, leaf_batch: int) -> float:
    sequential = result.point(SCHEDULER_SEQUENTIAL, leaf_batch)
    event = result.point(SCHEDULER_EVENT, leaf_batch)
    return sequential.engine_calls / event.engine_calls if event.engine_calls else 0.0


def _title(result):
    policy = result.flush_policy
    if result.flush_timeout_us is not None:
        policy += f" (timeout {result.flush_timeout_us:.0f}us)"
    replicas = ("one shared inference replica" if result.num_replicas == 1 else
                f"{result.num_replicas} inference replicas ({result.routing} routing)")
    return [f"Scheduler sweep: {result.num_workers} self-play workers, "
            f"{replicas}, flush policy {policy}"]


def _row(result, point):
    delay = (f"{point.mean_queue_delay_us:>9.1f}us"
             if point.scheduler == SCHEDULER_EVENT else f"{'-':>11}")
    yield (f"{point.scheduler:>10} {point.leaf_batch:>10d} {point.engine_calls:>12d} "
           f"{point.mean_batch_rows:>10.2f} {point.mean_occupancy:>9.1%} "
           f"{100.0 * point.cross_worker_share:>9.1f}% "
           f"{delay} {point.span_us / 1e6:>9.3f} {point.moves:>6d}")
    if result.num_replicas > 1:
        # Per-replica utilisation / routed-batch counts so routing
        # imbalance is visible at a glance.
        per_replica = zip(point.routing_decisions, point.replica_calls,
                          point.replica_utilisation)
        for index, (routed, calls, util) in enumerate(per_replica):
            yield (f"{'':>21} replica_{index}: routed={routed:<4d} "
                   f"calls={calls:<4d} utilisation={util:.1%}")


def _notes(result):
    best = max(point.leaf_batch for point in result.points)
    event = result.point(SCHEDULER_EVENT, best)
    return [
        f"event-driven at leaf_batch={best}: {call_reduction(result, best):.1f}x fewer engine "
        f"calls per row than the sequential scheduler "
        f"({raw_call_reduction(result, best):.1f}x fewer total), "
        f"{100.0 * event.cross_worker_share:.1f}% of batches cross-worker, "
        f"mean occupancy {event.mean_occupancy:.1%}",
        "note: the event-driven span includes replica queueing delay the "
        "sequential model does not charge (its workers never contend for "
        "the shared replica)",
    ]


SCHED_SWEEP = Sweep(
    "scheduler sweep", key=("scheduler", "leaf_batch"),
    defaults=dict(BATCH_SWEEP.defaults, num_workers=DEFAULT_SCHED_WORKERS, num_replicas=1,
                  routing=ROUTING_ROUND_ROBIN, flush_policy=FLUSH_MAX_BATCH,
                  flush_timeout_us=None),
    title=_title,
    header=(f"{'scheduler':>10} {'leaf_batch':>10} {'engine calls':>12} "
            f"{'mean batch':>10} {'occupancy':>9} {'x-worker %':>10} "
            f"{'queue delay':>11} {'span (s)':>9} {'moves':>6}"),
    row=_row, notes=_notes,
    methods=dict(call_reduction=call_reduction, raw_call_reduction=raw_call_reduction))


def run_sched_sweep(leaf_batches: Sequence[int] = DEFAULT_SCHED_LEAF_BATCHES,
                    **overrides) -> SweepResult:
    """Run the pool under both schedulers for every leaf_batch value.

    ``overrides`` replace the pool settings in ``SCHED_SWEEP.defaults``.
    """
    options = SCHED_SWEEP.options(overrides)
    if not leaf_batches:
        raise ValueError("leaf_batches must not be empty")
    return SCHED_SWEEP.result(
        (selfplay_cell(leaf_batch=leaf_batch, scheduler=scheduler, **vars(options))
         for leaf_batch in leaf_batches
         for scheduler in (SCHEDULER_SEQUENTIAL, SCHEDULER_EVENT)),
        **vars(options))

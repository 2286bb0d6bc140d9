"""Replica sweep: sharded inference scaling over replicas × workers × routing.

PR 3's event-driven pool batched leaf evaluations across workers, but every
batch still serialized through a single model replica's ``free_us`` horizon —
the virtual-time model's picture of one inference GPU saturating.  The
sharded :class:`~repro.rollout.inference.InferenceService` fans batches out
across ``num_replicas`` replicas (each pinned to its own device/system)
under a pluggable routing policy, and the replica-aware
:class:`~repro.minigo.workers.PoolScheduler` serves full batches eagerly so
free replicas overlap in-flight work with still-running workers.

This sweep measures that scale-out on an **inference-bound** configuration
(tree-search Python work priced near zero, so the replica horizon is the
bottleneck — the regime where a real deployment adds GPUs): for each
(workers, replicas, routing) point it reports the virtual collection span,
the speedup over the single-replica baseline with the same worker count,
and the per-replica utilisation / routed-batch counts that make routing
imbalance visible at a glance.
"""

from __future__ import annotations

from typing import Sequence

from ..hw.costmodel import CostModelConfig
from ..minigo.workers import SCHEDULER_EVENT
from ..rollout.inference import FLUSH_TIMEOUT, ROUTING_ROUND_ROBIN
from .sweep import Sweep, SweepResult, selfplay_cell

#: The grid the paper-style report covers.
DEFAULT_REPLICA_COUNTS = (1, 2, 4)
DEFAULT_REPLICA_ROUTINGS = ("round-robin", "least-loaded", "sticky")
DEFAULT_REPLICA_WORKERS = (4, 8)

#: Pool shape of the default sweep (and of ``benchmarks/test_bench_replicas.py``).
DEFAULT_REPLICA_POOL_KWARGS = dict(
    board_size=5,
    num_simulations=32,
    games_per_worker=1,
    max_moves=8,
    hidden=(64, 64),
    leaf_batch=8,
    inference_max_batch=8,
    flush_policy=FLUSH_TIMEOUT,
    flush_timeout_us=50.0,
)


def inference_bound_cost_config() -> CostModelConfig:
    """Cost model that makes self-play inference-bound.

    Interpreted-Python tree-search work is priced at (virtually) zero while
    backend dispatch, CUDA API and kernel costs keep their defaults, so the
    collection span is dominated by the inference service's replica
    horizons — the regime in which sharding the model across GPUs pays off.
    """
    return CostModelConfig(python_op_us=0.001)


def speedup(result, num_workers: int, num_replicas: int, routing: str) -> float:
    """Collection-span improvement over the 1-replica baseline (same workers)."""
    baseline = result.point(num_workers, 1, ROUTING_ROUND_ROBIN)
    point = result.point(num_workers, num_replicas, routing)
    return baseline.span_us / point.span_us if point.span_us else 0.0


def _title(result):
    policy = result.flush_policy
    if result.flush_timeout_us is not None:
        policy += f" (timeout {result.flush_timeout_us:.0f}us)"
    return [f"Replica sweep: sharded inference service, leaf_batch={result.leaf_batch}, "
            f"max_batch={result.inference_max_batch}, flush policy {policy}, "
            f"inference-bound cost model"]


def _row(result, point):
    yield (f"{point.num_workers:>7d} {point.num_replicas:>8d} {point.routing:>12} "
           f"{point.engine_calls:>6d} {point.mean_batch_rows:>10.2f} "
           f"{point.mean_occupancy:>9.1%} {100.0 * point.cross_worker_share:>9.1f}% "
           f"{point.mean_queue_delay_us:>9.1f}us {point.span_us / 1e3:>9.3f} "
           f"{speedup(result, point.num_workers, point.num_replicas, point.routing):>6.2f}x")
    # Per-replica utilisation and routing decisions: imbalance shows up as
    # skewed routed/util columns.
    for index in range(point.num_replicas):
        yield (f"{'':>16} replica_{index}: routed={point.routing_decisions[index]:<4d} "
               f"calls={point.replica_calls[index]:<4d} rows={point.replica_rows[index]:<5d} "
               f"occupancy={point.replica_occupancy[index]:.1%} "
               f"utilisation={point.replica_utilisation[index]:.1%}")


def _notes(result):
    best_workers = max(point.num_workers for point in result.points)
    best = max((p for p in result.points if p.num_workers == best_workers),
               key=lambda p: speedup(result, p.num_workers, p.num_replicas, p.routing))
    return [
        f"best at {best_workers} workers: {best.num_replicas} replicas / {best.routing} — "
        f"{speedup(result, best.num_workers, best.num_replicas, best.routing):.2f}x shorter "
        f"collection span than one replica, mean per-replica utilisation "
        f"{sum(best.replica_utilisation) / len(best.replica_utilisation):.1%}",
        "note: spans include the queueing delay batches pay on their routed "
        "replica's horizon; eager full-batch serves let free replicas start "
        "while other workers still run",
    ]


REPLICA_SWEEP = Sweep(
    "replica sweep", key=("num_workers", "num_replicas", "routing"),
    defaults=dict(DEFAULT_REPLICA_POOL_KWARGS, worker_counts=DEFAULT_REPLICA_WORKERS,
                  routings=DEFAULT_REPLICA_ROUTINGS, cost_config=None, seed=0),
    title=_title,
    header=(f"{'workers':>7} {'replicas':>8} {'routing':>12} {'calls':>6} "
            f"{'mean batch':>10} {'occupancy':>9} {'x-worker %':>10} "
            f"{'queue delay':>11} {'span (ms)':>9} {'speedup':>7}"),
    row=_row, notes=_notes, methods=dict(speedup=speedup))


def run_replica_sweep(replica_counts: Sequence[int] = DEFAULT_REPLICA_COUNTS,
                      **overrides) -> SweepResult:
    """Run the event-driven pool over the (workers, replicas, routing) grid.

    Every point with more than one replica is run under every routing
    policy; the single-replica baseline is run once per worker count (all
    routing policies degenerate to replica 0 there, bit-for-bit).
    ``overrides`` replace entries of ``REPLICA_SWEEP.defaults``.
    """
    options = REPLICA_SWEEP.options(overrides)
    if not replica_counts:
        raise ValueError("replica_counts must not be empty")
    if 1 not in replica_counts:
        replica_counts = (1, *replica_counts)
    if not options.worker_counts or not options.routings:
        raise ValueError("worker_counts and routings must not be empty")
    if options.cost_config is None:
        options.cost_config = inference_bound_cost_config()
    pool_kwargs = {name: getattr(options, name) for name in DEFAULT_REPLICA_POOL_KWARGS}
    return REPLICA_SWEEP.result(
        (selfplay_cell(num_workers, num_replicas=num_replicas, routing=routing,
                       scheduler=SCHEDULER_EVENT, cost_config=options.cost_config,
                       seed=options.seed, **pool_kwargs)
         for num_workers in options.worker_counts
         for num_replicas in sorted(set(replica_counts))
         for routing in ((ROUTING_ROUND_ROBIN,) if num_replicas == 1 else tuple(options.routings))),
        **vars(options))

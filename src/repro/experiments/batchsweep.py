"""Batch-size sweep: batched cross-worker inference vs per-leaf evaluation.

Runs the Minigo parallel self-play pool once per ``leaf_batch`` value with
leaf evaluation routed through the shared :class:`InferenceService`, and
reports, for each point, the number of batched engine calls, self-play
throughput, and the CPU/GPU overlap profile of the collection phase.  At
``leaf_batch=1`` the batched service reproduces the legacy per-leaf game
records exactly, so that point doubles as the baseline: every reduction in
engine calls at larger batches is attributable to coalescing alone.
"""

from __future__ import annotations

from typing import Sequence

from .sweep import Sweep, SweepResult, selfplay_cell

#: The sweep the paper-style report covers.
DEFAULT_LEAF_BATCHES = (1, 4, 16, 64)


def _baseline(result):
    """The smallest-batch point of the sweep (leaf_batch=1 = per-leaf)."""
    return min(result.points, key=lambda point: point.leaf_batch)


def call_reduction(result, leaf_batch: int) -> float:
    """How many times fewer engine calls than the per-leaf baseline,
    normalised per evaluated row (trajectories differ across batches)."""
    base = _baseline(result)
    point = result.point(leaf_batch)
    base_calls_per_row = base.engine_calls / max(base.rows, 1)
    point_calls_per_row = point.engine_calls / max(point.rows, 1)
    return base_calls_per_row / point_calls_per_row if point_calls_per_row else 0.0


def speedup(result, leaf_batch: int) -> float:
    span_us = result.point(leaf_batch).span_us
    return _baseline(result).span_us / span_us if span_us else 0.0


def _row(result, point):
    total = point.cpu_only_us + point.gpu_only_us + point.cpu_gpu_us
    pct = (lambda v: 100.0 * v / total if total > 0 else 0.0)
    yield (f"{point.leaf_batch:>10d} {point.engine_calls:>12d} {point.mean_batch_rows:>10.2f} "
           f"{call_reduction(result, point.leaf_batch):>10.1f}x {point.span_us / 1e6:>9.3f} "
           f"{point.moves_per_sec:>8.1f} {pct(point.cpu_only_us):>10.1f} "
           f"{pct(point.cpu_gpu_us):>9.1f} {pct(point.gpu_only_us):>10.1f}")


def _notes(result):
    best = max(result.points, key=lambda point: point.leaf_batch)
    base = _baseline(result)
    base_label = ("per-leaf evaluation" if base.leaf_batch == 1
                  else f"the leaf_batch={base.leaf_batch} baseline")
    return [f"largest batch ({best.leaf_batch}): {call_reduction(result, best.leaf_batch):.1f}x "
            f"fewer engine calls per row, {speedup(result, best.leaf_batch):.2f}x collection "
            f"speedup vs {base_label}"]


BATCH_SWEEP = Sweep(
    "batch sweep", key=("leaf_batch",),
    defaults=dict(num_workers=4, board_size=5, num_simulations=16, games_per_worker=1,
                  max_moves=10, hidden=(32, 32), inference_max_batch=64, seed=0),
    title=lambda result: ["Batch-size sweep: batched cross-worker inference (shared engine)"],
    header=(f"{'leaf_batch':>10} {'engine calls':>12} {'mean batch':>10} "
            f"{'calls/row x':>11} {'span (s)':>9} {'moves/s':>8} "
            f"{'CPU-only %':>10} {'CPU+GPU %':>9} {'GPU-only %':>10}"),
    row=_row, notes=_notes,
    methods=dict(call_reduction=call_reduction, speedup=speedup))


def run_batch_sweep(leaf_batches: Sequence[int] = DEFAULT_LEAF_BATCHES,
                    **overrides) -> SweepResult:
    """Run the pool once per leaf_batch value and collect the sweep table.

    ``overrides`` replace the pool shape in ``BATCH_SWEEP.defaults``.
    """
    options = BATCH_SWEEP.options(overrides)
    if not leaf_batches:
        raise ValueError("leaf_batches must not be empty")
    return BATCH_SWEEP.result(selfplay_cell(leaf_batch=leaf_batch, profile=True, **vars(options))
                              for leaf_batch in leaf_batches)

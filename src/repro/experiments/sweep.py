"""Grid harness shared by the seven sweeps.

A sweep is declared once, as a :class:`Sweep` spec: its name, the cell
attributes that key a point, every option its ``run_*_sweep`` accepts (with
the default), and the report's title / header / row / notes renderers.  The
spec generates the sweep's result type — one ``point(*key)`` lookup and one
report assembly, on :class:`SweepResult` — and checks overrides, so no
sweep re-lists its defaults in a signature.  Cells are plain namespaces;
:func:`selfplay_cell` and :func:`serving_cell` measure the two cell shapes
that more than one sweep runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Iterable, List, Mapping, Tuple

import numpy as np

from ..minigo.selfplay import PolicyValueNet
from ..minigo.workers import SelfPlayPool
from ..profiler.events import merge_traces
from ..profiler.overlap import RESOURCE_CPU, RESOURCE_CPU_GPU, RESOURCE_GPU, compute_overlap
from ..serving import (
    InferenceServer,
    LoadGenerator,
    SLOReport,
    build_slo_report,
    estimate_capacity_rows_per_sec,
    run_serving,
)


class SweepResult(SimpleNamespace):
    """A finished sweep: ``points`` (one namespace per cell) plus the options it ran with."""

    sweep: "Sweep"

    def point(self, *key):
        """The cell whose ``sweep.key`` attributes equal ``key``, in order."""
        for cell in self.points:
            if tuple(getattr(cell, name) for name in self.sweep.key) == key:
                return cell
        raise KeyError(f"{self.sweep.name}: no point for " + ", ".join(
            f"{name}={value!r}" for name, value in zip(self.sweep.key, key)))

    def report(self) -> str:
        spec = self.sweep
        rows = [line for cell in self.points for line in spec.row(self, cell)]
        return "\n".join([*spec.title(self), spec.header, *rows, *spec.notes(self)])


@dataclass(frozen=True, eq=False)
class Sweep:
    """One sweep's declaration; ``result_type`` is generated from it."""

    name: str                     #: names the sweep in errors ("batch sweep")
    key: Tuple[str, ...]          #: cell attributes that identify a point
    defaults: Mapping[str, Any]   #: every override ``run_*_sweep`` accepts
    header: str
    title: Callable[[SweepResult], List[str]]
    row: Callable[[SweepResult, Any], Iterable[str]]
    notes: Callable[[SweepResult], List[str]]
    methods: Mapping[str, Any] = field(default_factory=dict)  #: extra result methods

    def __post_init__(self) -> None:
        type_name = "".join(word.capitalize() for word in self.name.split()) + "Result"
        object.__setattr__(self, "result_type",
                           type(type_name, (SweepResult,), {"sweep": self, **self.methods}))

    def options(self, overrides: Mapping[str, Any]) -> SimpleNamespace:
        """The defaults with ``overrides`` applied; unknown keys raise ``TypeError``."""
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise TypeError(f"{self.name}: unexpected options {unknown}; "
                            f"accepted: {sorted(self.defaults)}")
        return SimpleNamespace(**{**self.defaults, **overrides})

    def result(self, points: Iterable[Any], **info: Any) -> SweepResult:
        return self.result_type(points=list(points), **info)


def selfplay_cell(num_workers: int, *, profile: bool = False, **pool_kwargs) -> SimpleNamespace:
    """Run one batched :class:`SelfPlayPool` and measure it as a sweep cell.

    The cell carries the pool's settings, the shared inference service's
    totals and per-replica roll-ups, and — with ``profile`` — the CPU/GPU
    overlap of the collection phase.
    """
    pool = SelfPlayPool(num_workers, profile=profile, batched_inference=True, **pool_kwargs)
    pool.run()
    service = pool.inference_service
    stats = service.stats
    span_us = pool.collection_span_us()
    moves = sum(run.result.moves for run in pool.runs)
    cell = SimpleNamespace(
        num_workers=num_workers, leaf_batch=pool.leaf_batch, scheduler=pool.scheduler,
        num_replicas=pool.num_replicas, routing=pool.routing,
        engine_calls=stats.engine_calls, rows=stats.rows,
        mean_batch_rows=stats.mean_batch_rows, mean_occupancy=stats.mean_occupancy,
        cross_worker_share=stats.cross_worker_share,
        mean_queue_delay_us=stats.mean_queue_delay_us,
        moves=moves, span_us=span_us,
        moves_per_sec=moves / (span_us / 1e6) if span_us > 0 else 0.0,
        eager_serves=(pool.pool_scheduler.stats.eager_serves
                      if pool.pool_scheduler is not None else 0),
        replica_calls=[r.stats.engine_calls for r in service.replicas],
        replica_rows=[r.stats.rows for r in service.replicas],
        replica_occupancy=[r.stats.mean_occupancy for r in service.replicas],
        replica_utilisation=service.replica_utilisation(span_us),
        routing_decisions=service.routing_decisions())
    if profile:
        overlap = compute_overlap(merge_traces(run.trace for run in pool.runs))
        cell.cpu_only_us, cell.gpu_only_us, cell.cpu_gpu_us = (
            overlap.resource_time_us(resource, include_untracked=False)
            for resource in (RESOURCE_CPU, RESOURCE_GPU, RESOURCE_CPU_GPU))
    return cell


def _network(options: SimpleNamespace) -> PolicyValueNet:
    return PolicyValueNet(options.board_size, hidden=options.hidden,
                          rng=np.random.default_rng(options.seed))


def serving_capacity(options: SimpleNamespace) -> float:
    """Measured single-replica capacity (rows/s) of a serving sweep's network."""
    return estimate_capacity_rows_per_sec(
        lambda: _network(options), feature_dim=3 * options.board_size ** 2,
        max_batch=options.max_batch, seed=options.seed)


def serving_cell(options: SimpleNamespace, process, *, num_replicas: int, name: str,
                 label: str, key_space=None, **server_kwargs) -> SLOReport:
    """Serve ``process``'s open-loop arrivals for one horizon; return the SLO report.

    ``options`` carries the server and traffic shape a serving sweep shares
    (board, batch, flush timeout, clients, deadline, retry, horizon, seed);
    ``server_kwargs`` add the cell's admission settings.
    """
    server = InferenceServer(
        _network(options), max_batch=options.max_batch, rate_limit_per_sec=None,
        rate_burst=options.rate_burst, flush_policy="timeout",
        flush_timeout_us=options.flush_timeout_us, num_replicas=num_replicas,
        seed=options.seed, name=name, keep_decision_log=False, **server_kwargs)
    loadgen = LoadGenerator(process, options.num_clients,
                            feature_dim=3 * options.board_size ** 2, retry=options.retry,
                            request_deadline_us=options.request_deadline_us,
                            key_space=key_space, seed=options.seed)
    return build_slo_report(run_serving(server, loadgen, options.horizon_us), label=label)

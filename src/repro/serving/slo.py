"""SLO accounting for serving runs.

Turns the three stats sources of a run — per-client
:class:`~repro.serving.client.ClientStats` (end-to-end latency, retries,
timeout misses), the server's
:class:`~repro.serving.server.ServerStats` (admission decisions), and the
underlying service's :class:`~repro.rollout.inference.InferenceStats`
(reservoir-sampled queue delays, batch shapes) — into the numbers an SLO
states: p50/p95/p99 latency and queue delay, shed/timeout/retry rates, and
goodput (requests completed *within their deadline* per virtual second).

The text rendering is deliberately stable — fixed field order, fixed
``%.1f``/``%.4f`` formatting — because the determinism bar compares report
files byte-for-byte across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .simulation import ServingRunResult

DEFAULT_PERCENTILES = (50.0, 95.0, 99.0)


def percentiles(values: Sequence[float],
                points: Sequence[float] = DEFAULT_PERCENTILES
                ) -> Optional[Dict[float, float]]:
    """``{p: value}`` over ``values``; None when there are no samples."""
    if len(values) == 0:
        return None
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    return {float(p): float(np.percentile(ordered, p)) for p in points}


def _format_percentiles(stats: Optional[Dict[float, float]]) -> str:
    if stats is None:
        return "n/a"
    return " ".join(f"p{p:g}={stats[p]:.1f}" for p in sorted(stats))


@dataclass
class SLOReport:
    """Aggregated SLO view of one serving run."""

    label: str
    horizon_us: float
    end_us: float
    events: int
    # offered load (client side)
    requests: int = 0
    sends: int = 0
    completed: int = 0
    on_time: int = 0
    late: int = 0
    retries: int = 0
    gave_up: int = 0
    # defences (server side)
    arrivals: int = 0
    admitted: int = 0
    shed_rate: int = 0
    shed_queue: int = 0
    shed_deadline: int = 0
    blocked: int = 0
    block_time_us: float = 0.0
    serve_calls: int = 0
    timeout_serves: int = 0
    peak_queue_tickets: int = 0
    rows_served: int = 0
    cache_hits: int = 0
    cache_rows: int = 0
    cache_evictions: int = 0
    # faults (injected) and recovery
    corrupt_frames: int = 0
    replica_crashes: int = 0
    replica_recoveries: int = 0
    redispatches: int = 0
    redispatched_rows: int = 0
    degraded_entries: int = 0
    availability: float = 1.0  #: fraction of replica capacity up over the horizon
    # distributions (µs)
    latency_us: Optional[Dict[float, float]] = None
    client_queue_delay_us: Optional[Dict[float, float]] = None
    service_queue_delay_us: Optional[Dict[float, float]] = None
    mean_batch_rows: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------- derived
    @property
    def shed(self) -> int:
        return self.shed_rate + self.shed_queue + self.shed_deadline

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.arrivals if self.arrivals else 0.0

    @property
    def timeout_fraction(self) -> float:
        """OK-but-late replies as a fraction of completed requests."""
        return self.late / self.completed if self.completed else 0.0

    @property
    def retry_fraction(self) -> float:
        return self.retries / self.requests if self.requests else 0.0

    @property
    def cache_hit_fraction(self) -> float:
        """Arrivals answered at admission from the evaluation cache."""
        return self.cache_hits / self.arrivals if self.arrivals else 0.0

    @property
    def offered_rate_per_sec(self) -> float:
        return self.requests * 1e6 / self.horizon_us if self.horizon_us else 0.0

    @property
    def goodput_per_sec(self) -> float:
        """Requests completed within deadline, per virtual second of trace."""
        return self.on_time * 1e6 / self.horizon_us if self.horizon_us else 0.0

    # ----------------------------------------------------------- rendering
    def lines(self) -> List[str]:
        return [
            f"[{self.label}] horizon={self.horizon_us / 1e6:.4f}s "
            f"end={self.end_us / 1e6:.4f}s events={self.events}",
            f"  offered   {self.requests} req ({self.offered_rate_per_sec:.1f}/s) "
            f"sends={self.sends} retries={self.retries} "
            f"(retry rate {self.retry_fraction:.4f})",
            f"  outcome   completed={self.completed} on_time={self.on_time} "
            f"late={self.late} (timeout rate {self.timeout_fraction:.4f}) "
            f"gave_up={self.gave_up}",
            f"  goodput   {self.goodput_per_sec:.1f} req/s "
            f"rows_served={self.rows_served} mean_batch={self.mean_batch_rows:.2f}",
            f"  shedding  rate={self.shed_rate} queue={self.shed_queue} "
            f"deadline={self.shed_deadline} "
            f"(shed rate {self.shed_fraction:.4f} of {self.arrivals} arrivals)",
            f"  backpressure blocked={self.blocked} "
            f"block_time_us={self.block_time_us:.1f} "
            f"peak_queue={self.peak_queue_tickets}",
            f"  serves    calls={self.serve_calls} timeout_serves={self.timeout_serves}",
            f"  cache     hits={self.cache_hits} rows={self.cache_rows} "
            f"evictions={self.cache_evictions} "
            f"(hit rate {self.cache_hit_fraction:.4f} of arrivals)",
            f"  faults    crashes={self.replica_crashes} "
            f"recoveries={self.replica_recoveries} "
            f"redispatched_rows={self.redispatched_rows} "
            f"corrupt_frames={self.corrupt_frames} "
            f"degraded={self.degraded_entries} "
            f"availability={self.availability:.4f}",
            f"  latency_us        {_format_percentiles(self.latency_us)}",
            f"  queue_delay_us    {_format_percentiles(self.client_queue_delay_us)} (client)",
            f"  service_delay_us  {_format_percentiles(self.service_queue_delay_us)} (reservoir)",
        ]

    def format(self) -> str:
        return "\n".join(self.lines())


def build_slo_report(result: ServingRunResult, *, label: str = "run",
                     points: Sequence[float] = DEFAULT_PERCENTILES) -> SLOReport:
    """Aggregate one finished run into an :class:`SLOReport`."""
    server = result.server
    stats = server.stats
    latency: List[float] = []
    queue_delay: List[float] = []
    report = SLOReport(label=label, horizon_us=result.horizon_us,
                       end_us=result.end_us, events=result.events)
    for client in result.loadgen.clients:
        cs = client.stats
        report.requests += cs.requests
        report.sends += cs.sends
        report.completed += cs.completed
        report.on_time += cs.on_time
        report.late += cs.late
        report.retries += cs.retries
        report.gave_up += cs.gave_up
        latency.extend(cs.latency_us)
        queue_delay.extend(cs.queue_delay_us)
    report.arrivals = stats.arrivals
    report.admitted = stats.admitted
    report.shed_rate = stats.shed_rate
    report.shed_queue = stats.shed_queue
    report.shed_deadline = stats.shed_deadline
    report.blocked = stats.blocked
    report.block_time_us = stats.block_time_us
    report.serve_calls = stats.serve_calls
    report.timeout_serves = stats.timeout_serves
    report.peak_queue_tickets = stats.peak_queue_tickets
    report.rows_served = stats.rows_served
    report.cache_hits = stats.cache_hits
    report.cache_rows = stats.cache_rows
    report.cache_evictions = stats.cache_evictions
    report.corrupt_frames = stats.corrupt_frames
    report.degraded_entries = stats.degraded_entries
    service_stats = server.service.stats
    report.replica_crashes = service_stats.replica_crashes
    report.replica_recoveries = service_stats.replica_recoveries
    report.redispatches = service_stats.redispatches
    report.redispatched_rows = service_stats.redispatched_rows
    report.availability = server.service.availability(result.horizon_us)
    report.latency_us = percentiles(latency, points)
    report.client_queue_delay_us = percentiles(queue_delay, points)
    report.service_queue_delay_us = server.service.stats.queue_delay_percentiles(points)
    report.mean_batch_rows = server.service.stats.mean_batch_rows
    return report

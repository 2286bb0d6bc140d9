"""Serve sweep: the networked inference tier under open-loop overload.

PRs 2–5 measured the *closed-loop* harness: lock-step self-play workers that
submit a leaf only after the previous one returns, so offered load can never
exceed service capacity.  The :mod:`repro.serving` tier faces the opposite
regime — open-loop arrivals that keep coming however far behind the server
falls — and this sweep measures its defences over **arrival rate (as a
multiple of measured capacity) × overload policy × replica count**.

For every grid point it runs thousands of Poisson (or bursty) arrivals from
``num_clients`` synthetic clients against an
:class:`~repro.serving.server.InferenceServer` and reports the SLO picture:
goodput, shed/retry/timeout rates, and p50/p95/p99 queue delay and
end-to-end latency.  The ``none`` policy point (admission off, window
unbounded) is the control: its tail delay grows with the backlog, which is
exactly the divergence `benchmarks/test_bench_serving.py` pins against the
bounded policies.

Arrival rates are expressed as capacity multiples so the sweep stays
meaningful if the cost model's constants change: capacity is measured first
with a deterministic probe (:func:`estimate_capacity_rows_per_sec`), then
``rate = multiplier x capacity x replicas``.

Everything — arrivals, client choice, feature rows, batch durations — is a
pure function of ``seed``, so the rendered report is byte-identical across
runs of the same configuration.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

from ..serving import OVERLOAD_POLICIES, BurstyProcess, PoissonProcess, RetryPolicy
from .sweep import Sweep, SweepResult, serving_capacity, serving_cell

#: Arrival rates as multiples of measured single-replica serving capacity.
DEFAULT_SERVE_MULTIPLIERS = (0.5, 1.0, 2.0)
#: Overload policies swept; ``none`` is the no-admission control (unbounded
#: window, everything admitted) the bounded policies are compared against.
DEFAULT_SERVE_OVERLOADS = ("none", *OVERLOAD_POLICIES)
DEFAULT_SERVE_REPLICAS = (1, 2)
DEFAULT_SERVE_ARRIVAL = "poisson"
SERVE_ARRIVALS = ("poisson", "bursty")

#: Server + traffic shape of the default sweep (and of the serving bench).
DEFAULT_SERVE_KWARGS = dict(
    board_size=5,
    hidden=(16,),
    max_batch=8,
    queue_capacity=16,
    flush_timeout_us=300.0,
    rate_burst=4.0,
    num_clients=256,
    request_deadline_us=3_000.0,
    horizon_us=30_000.0,
)


def _title(result):
    cache_txt = ("cache off" if result.cache_capacity is None
                 else f"cache={result.cache_capacity}")
    keys_txt = ("keyless rows" if result.key_space is None
                else f"key_space={result.key_space}")
    return [
        f"Serve sweep: {result.arrival} arrivals from {result.num_clients} clients, "
        f"board={result.board_size}, max_batch={result.max_batch}, "
        f"window={result.queue_capacity}, flush timeout {result.flush_timeout_us:.0f}us, "
        f"deadline {result.request_deadline_us:.0f}us, "
        f"horizon {result.horizon_us / 1e6:.4f}s, {cache_txt}, {keys_txt}",
        f"measured capacity: {result.capacity_rows_per_sec:.0f} rows/s per replica "
        f"(rates below are multiples of capacity x replicas)",
    ]


def _row(result, point):
    slo = point.slo
    delay = slo.client_queue_delay_us
    latency = slo.latency_us
    delay_txt = ("n/a" if delay is None else
                 "/".join(f"{delay[p]:.0f}" for p in (50.0, 95.0, 99.0)))
    latency_txt = "n/a" if latency is None else f"{latency[99.0]:.0f}"
    yield (f"{point.multiplier:>5.2f} {point.num_replicas:>4d} {point.overload:>13} "
           f"{slo.offered_rate_per_sec:>10.1f} {slo.goodput_per_sec:>10.1f} "
           f"{100.0 * slo.shed_fraction:>5.1f}% "
           f"{100.0 * slo.cache_hit_fraction:>5.1f}% "
           f"{100.0 * slo.retry_fraction:>5.1f}% "
           f"{100.0 * slo.timeout_fraction:>5.1f}% "
           f"{100.0 * slo.availability:>6.2f}% "
           f"{slo.redispatched_rows:>6d} {slo.blocked:>7d} "
           f"{delay_txt:>22} {latency_txt:>14}")


SERVE_SWEEP = Sweep(
    "serve sweep", key=("multiplier", "overload", "num_replicas"),
    defaults=dict(DEFAULT_SERVE_KWARGS, overloads=DEFAULT_SERVE_OVERLOADS,
                  replica_counts=DEFAULT_SERVE_REPLICAS, arrival=DEFAULT_SERVE_ARRIVAL,
                  retry=None, cache_capacity=None, key_space=None, seed=0),
    title=_title,
    header=(f"{'xcap':>5} {'repl':>4} {'overload':>13} {'offered/s':>10} "
            f"{'goodput/s':>10} {'shed%':>6} {'hit%':>6} {'retry%':>6} "
            f"{'late%':>6} {'avail%':>7} {'redisp':>6} {'blocked':>7} "
            f"{'qdelay p50/p95/p99 us':>22} {'latency p99 us':>14}"),
    row=_row,
    notes=lambda result: [
        "note: 'none' admits everything into an unbounded window — its tail "
        "queue delay grows with the backlog; bounded policies shed or block "
        "instead, keeping admitted requests' delay within the window"])


def run_serve_sweep(multipliers: Sequence[float] = DEFAULT_SERVE_MULTIPLIERS,
                    **overrides) -> SweepResult:
    """Run the serving tier over the (rate, overload, replicas) grid.

    ``overrides`` replace entries of ``SERVE_SWEEP.defaults``.
    ``key_space`` switches every client to the keyed workload (features a
    pure function of a per-request state key; see
    :func:`~repro.serving.client.key_features`) and ``cache_capacity``
    arms the server's admission cache on that key — ``key_space`` alone
    keeps the traffic identical while the server stays cacheless, which is
    the apples-to-apples control the cache sweep compares against.
    """
    options = SERVE_SWEEP.options(overrides)
    if not multipliers or any(m <= 0 for m in multipliers):
        raise ValueError("multipliers must be positive")
    if options.arrival not in SERVE_ARRIVALS:
        raise ValueError(f"unknown arrival process {options.arrival!r}; "
                         f"expected one of {SERVE_ARRIVALS}")
    unknown = [o for o in options.overloads if o not in DEFAULT_SERVE_OVERLOADS]
    if unknown:
        raise ValueError(f"unknown overload policies {unknown}")
    if options.retry is None:
        options.retry = RetryPolicy()
    capacity = serving_capacity(options)
    points = []
    for multiplier in multipliers:
        for num_replicas in options.replica_counts:
            rate = multiplier * capacity * num_replicas
            for overload in options.overloads:
                if options.arrival == "poisson":
                    process = PoissonProcess(rate)
                else:
                    # Same mean rate, modulated: calm at half, bursts at 3x.
                    process = BurstyProcess(0.5 * rate, 3.0 * rate,
                                            mean_calm_us=options.horizon_us / 6.0,
                                            mean_burst_us=options.horizon_us / 12.0)
                admission_off = overload == "none"
                slo = serving_cell(
                    options, process, num_replicas=num_replicas, name=f"serve_{overload}",
                    label=f"x{multiplier:g}/{overload}/r{num_replicas}",
                    key_space=options.key_space,
                    queue_capacity=None if admission_off else options.queue_capacity,
                    overload="shed-newest" if admission_off else overload,
                    cache_capacity=options.cache_capacity)
                points.append(SimpleNamespace(multiplier=multiplier, rate_per_sec=rate,
                                              num_replicas=num_replicas, overload=overload,
                                              slo=slo))
    return SERVE_SWEEP.result(points, capacity_rows_per_sec=capacity, **vars(options))

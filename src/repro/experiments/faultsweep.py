"""Fault sweep: the serving tier under injected replica faults.

The serve sweep (PR 6) measured the admission defences against *load*; this
sweep measures the recovery machinery (PR 10) against *failures*.  Over a
**fault rate × admission policy × replica count** grid it runs the same
open-loop Poisson traffic while a seeded :class:`~repro.faults.plan.FaultPlan`
crashes replicas (with later recovery), slows them down, and drops or
corrupts wire frames — then reports what the fleet kept: goodput,
availability (fraction of replica capacity that stayed up), rows
re-dispatched off dead horizons, and corrupt frames survived.

The two policy arms isolate degraded-mode admission:

* ``degrade`` — capacity loss tightens the ingress window and every token
  bucket proportionally to surviving capacity, so overload surfaces as
  cheap early sheds instead of deadline misses on the survivors.
* ``full`` — the no-degrade control: admission stays at full-fleet
  capacity while replicas are down, queueing the backlog onto the
  survivors.

At fault rate 0 the plan is empty, the injector is never built, and every
run is bit-for-bit the fault-free serving tier — the identity the bench
(`benchmarks/test_bench_faults.py`) pins.  Every fault, recovery and
re-dispatch is an event in the server's decision log, so a fixed seed
replays the whole history line-identically.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

from ..faults.plan import FaultPlan
from ..serving import PoissonProcess, RetryPolicy
from .sweep import Sweep, SweepResult, serving_capacity, serving_cell

#: Replica crash rates swept (crashes per virtual second of trace); 0 is the
#: fault-free control every other point is compared against.
DEFAULT_FAULT_RATES = (0.0, 50.0, 150.0)
DEFAULT_FAULT_POLICIES = ("degrade", "full")
DEFAULT_FAULT_REPLICAS = (2, 4)

#: Server + traffic shape of the default sweep (mirrors the serve sweep).
DEFAULT_FAULT_KWARGS = dict(
    board_size=5,
    hidden=(16,),
    max_batch=8,
    # Deeper window + tighter deadline than the serve sweep: the degrade/full
    # contrast needs a backlog deep enough that queueing onto crash survivors
    # can cross the deadline — at window 16 nothing is ever late and degraded
    # admission has nothing to win.
    queue_capacity=192,
    flush_timeout_us=300.0,
    rate_burst=4.0,
    num_clients=128,
    request_deadline_us=2_000.0,
    horizon_us=30_000.0,
    load_multiplier=1.2,      #: offered rate as a multiple of fleet capacity
    mean_downtime_us=8_000.0,
    frame_loss_per_sec=20.0,
    frame_corrupt_per_sec=20.0,
)


def _title(result):
    return [
        f"Fault sweep: poisson arrivals from {result.num_clients} clients at "
        f"{result.load_multiplier:g}x fleet capacity, board={result.board_size}, "
        f"max_batch={result.max_batch}, window={result.queue_capacity}, "
        f"deadline {result.request_deadline_us:.0f}us, "
        f"horizon {result.horizon_us / 1e6:.4f}s",
        f"measured capacity: {result.capacity_rows_per_sec:.0f} rows/s per "
        f"replica; crash rate is injected replica crashes per virtual "
        f"second (with seeded recovery), plus frame loss/corruption",
    ]


def _row(result, point):
    slo = point.slo
    latency = slo.latency_us
    latency_txt = "n/a" if latency is None else f"{latency[99.0]:.0f}"
    yield (f"{point.crash_rate_per_sec:>8.1f} {point.policy:>8} "
           f"{point.num_replicas:>4d} {point.plan_events:>6d} "
           f"{slo.offered_rate_per_sec:>10.1f} {slo.goodput_per_sec:>10.1f} "
           f"{100.0 * slo.shed_fraction:>5.1f}% "
           f"{100.0 * slo.timeout_fraction:>5.1f}% "
           f"{100.0 * slo.availability:>6.2f}% "
           f"{slo.replica_crashes:>5d} {slo.redispatched_rows:>6d} "
           f"{slo.corrupt_frames:>7d} {latency_txt:>14}")


FAULT_SWEEP = Sweep(
    "fault sweep", key=("crash_rate_per_sec", "policy", "num_replicas"),
    defaults=dict(DEFAULT_FAULT_KWARGS, policies=DEFAULT_FAULT_POLICIES,
                  replica_counts=DEFAULT_FAULT_REPLICAS, retry=None, seed=0),
    title=_title,
    header=(f"{'faults/s':>8} {'policy':>8} {'repl':>4} {'events':>6} "
            f"{'offered/s':>10} {'goodput/s':>10} {'shed%':>6} "
            f"{'late%':>6} {'avail%':>7} {'crash':>5} {'redisp':>6} "
            f"{'corrupt':>7} {'latency p99 us':>14}"),
    row=_row,
    notes=lambda result: [
        "note: 'full' keeps full-capacity admission while replicas are "
        "down (the no-degrade control); 'degrade' tightens the ingress "
        "window and token buckets to surviving capacity, trading early "
        "sheds for fewer deadline misses on the survivors"])


def run_fault_sweep(crash_rates: Sequence[float] = DEFAULT_FAULT_RATES,
                    **overrides) -> SweepResult:
    """Run the serving tier over the (fault rate, policy, replicas) grid.

    ``overrides`` replace entries of ``FAULT_SWEEP.defaults``.  At each
    non-zero crash rate the plan is seeded from ``(seed, rate,
    policy-independent)`` — the *same* plan hits both policy arms, so the
    degrade/full comparison isolates the admission response, not the luck
    of the fault draw.
    """
    options = FAULT_SWEEP.options(overrides)
    if not crash_rates or any(rate < 0 for rate in crash_rates):
        raise ValueError("crash_rates must be non-negative")
    unknown = [p for p in options.policies if p not in DEFAULT_FAULT_POLICIES]
    if unknown:
        raise ValueError(f"unknown fault policies {unknown}")
    if options.retry is None:
        options.retry = RetryPolicy(jitter="decorrelated")
    capacity = serving_capacity(options)
    points = []
    for crash_rate in crash_rates:
        for num_replicas in options.replica_counts:
            rate = options.load_multiplier * capacity * num_replicas
            plan = None
            if crash_rate > 0.0:
                # Mix rate into the plan seed with a large odd stride so
                # neighbouring (seed, rate) cells get decorrelated draws.
                plan = FaultPlan.seeded(
                    (options.seed + 1) * 100_003 + int(round(crash_rate)),
                    horizon_us=options.horizon_us,
                    num_replicas=num_replicas,
                    crash_rate_per_sec=crash_rate,
                    mean_downtime_us=options.mean_downtime_us,
                    frame_loss_per_sec=options.frame_loss_per_sec,
                    frame_corrupt_per_sec=options.frame_corrupt_per_sec)
            for policy in options.policies:
                slo = serving_cell(
                    options, PoissonProcess(rate), num_replicas=num_replicas,
                    name=f"fault_{policy}", label=f"f{crash_rate:g}/{policy}/r{num_replicas}",
                    queue_capacity=options.queue_capacity, overload="shed-newest",
                    fault_plan=plan, degraded_admission=policy == "degrade")
                points.append(SimpleNamespace(
                    crash_rate_per_sec=crash_rate, policy=policy, num_replicas=num_replicas,
                    rate_per_sec=rate, plan_events=0 if plan is None else len(plan.events),
                    slo=slo))
    return FAULT_SWEEP.result(points, capacity_rows_per_sec=capacity, **vars(options))

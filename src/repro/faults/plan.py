"""Deterministic fault injection: seeded plans, virtual-time scheduling.

Every layer of the stack assumes a perfect substrate — replicas never die,
shard processes never crash, frames never corrupt.  This module supplies the
*adversary*: a :class:`FaultPlan` is an explicit (or seeded) schedule of
faults in **virtual time**, and a :class:`FaultInjector` walks that schedule
at runtime, applying each fault to the live system and logging it as a
replayable decision.

The discipline matches the rest of the repo: a plan is a pure function of
its seed, the injector's log is a pure function of (plan, workload), and an
**empty plan is bit-for-bit free** — every integration point early-outs
before touching RNG streams, clocks, or queues, so records, stats, and
decision logs are byte-identical to a build without the injector.

Fault kinds
-----------

===================  ======================================================
``replica-crash``    a :class:`~repro.rollout.inference.ModelReplica` dies
                     fail-stop at a batch boundary; queued and in-flight
                     rows re-dispatch onto survivors in arrival order
``replica-recover``  a dead replica rejoins; current weights re-broadcast
                     onto its horizon before it takes traffic
``replica-slow``     a replica degrades (``param`` = slowdown factor) for
                     ``duration_us`` of virtual time
``shard-crash``      a shard OS process exits mid-run (``target`` = shard,
                     ``param`` = crash after that many served segments)
``frame-drop``       the next wire frame at/after ``time_us`` is lost
``frame-corrupt``    the next wire frame at/after ``time_us`` is corrupted
                     (exercises the stream's magic-byte resync)
``broadcast-fail``   a replica's next weight copy at/after ``time_us``
                     fails once and is retried (charged twice)
===================  ======================================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

REPLICA_CRASH = "replica-crash"
REPLICA_RECOVER = "replica-recover"
REPLICA_SLOW = "replica-slow"
SHARD_CRASH = "shard-crash"
FRAME_DROP = "frame-drop"
FRAME_CORRUPT = "frame-corrupt"
BROADCAST_FAIL = "broadcast-fail"

FAULT_KINDS = (REPLICA_CRASH, REPLICA_RECOVER, REPLICA_SLOW, SHARD_CRASH,
               FRAME_DROP, FRAME_CORRUPT, BROADCAST_FAIL)

#: Kinds applied to the replica pool by virtual time.
_REPLICA_KINDS = (REPLICA_CRASH, REPLICA_RECOVER, REPLICA_SLOW)
#: Kinds applied per wire frame.
_FRAME_KINDS = (FRAME_DROP, FRAME_CORRUPT)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.  ``target`` is a replica or shard index."""

    time_us: float
    kind: str
    target: int = -1
    param: float = 0.0        #: slowdown factor / shard segment count
    duration_us: float = 0.0  #: span of replica-slow faults

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.time_us < 0.0:
            raise ValueError("fault time_us must be non-negative")
        if self.kind == REPLICA_SLOW and self.param <= 1.0:
            raise ValueError("replica-slow param is a slowdown factor > 1")

    def render(self) -> str:
        """Stable one-line rendering used by the replayable fault log."""
        parts = [f"{self.time_us:.3f}", self.kind]
        if self.target >= 0:
            parts.append(f"target={self.target}")
        if self.kind == REPLICA_SLOW:
            parts.append(f"factor={self.param:g}")
            parts.append(f"duration={self.duration_us:.3f}")
        if self.kind == SHARD_CRASH:
            parts.append(f"after_segments={int(self.param)}")
        return " ".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """A virtual-time fault schedule; sorted, explicit, and replayable.

    ``EMPTY`` (no events) is the fast path: every consumer checks
    :attr:`empty` first and skips fault bookkeeping entirely, keeping the
    fault-free run bit-identical to a build without fault support.
    """

    events: Tuple[FaultEvent, ...] = ()
    redispatch_latency_us: float = 25.0  #: charged per re-dispatched batch
    seed: Optional[int] = None           #: seed when built by :meth:`seeded`

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events,
                               key=lambda e: (e.time_us, FAULT_KINDS.index(e.kind),
                                              e.target)))
        object.__setattr__(self, "events", ordered)
        if self.redispatch_latency_us < 0.0:
            raise ValueError("redispatch_latency_us must be non-negative")

    @property
    def empty(self) -> bool:
        return not self.events

    def of_kind(self, *kinds: str) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind in kinds)

    def replica_event_times(self) -> Tuple[float, ...]:
        """Times the serving loop must wake at so faults apply promptly."""
        return tuple(e.time_us for e in self.of_kind(*_REPLICA_KINDS))

    def shard_crashes(self) -> Dict[int, int]:
        """``{shard_index: crash after this many served segments}``."""
        crashes: Dict[int, int] = {}
        for event in self.of_kind(SHARD_CRASH):
            crashes[event.target] = int(event.param)
        return crashes

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        horizon_us: float,
        num_replicas: int,
        crash_rate_per_sec: float = 0.0,
        mean_downtime_us: float = 5_000.0,
        slow_rate_per_sec: float = 0.0,
        slow_factor: float = 2.0,
        mean_slow_us: float = 2_000.0,
        frame_loss_per_sec: float = 0.0,
        frame_corrupt_per_sec: float = 0.0,
        broadcast_fail_per_sec: float = 0.0,
        redispatch_latency_us: float = 25.0,
    ) -> "FaultPlan":
        """Generate a plan as a pure function of ``seed``.

        Rates are events per second of virtual time; counts are drawn
        Poisson, times uniform over the horizon, targets uniform over the
        replicas, downtimes/slow spans exponential.  A crash whose recovery
        would land past the horizon simply never recovers (availability
        accounting closes the span at the horizon).
        """
        if horizon_us <= 0.0:
            raise ValueError("horizon_us must be positive")
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        rng = np.random.default_rng(seed)
        seconds = horizon_us / 1e6
        events: List[FaultEvent] = []

        def draw_times(rate: float) -> np.ndarray:
            count = int(rng.poisson(rate * seconds)) if rate > 0.0 else 0
            return np.sort(rng.uniform(0.0, horizon_us, size=count))

        for time_us in draw_times(crash_rate_per_sec):
            target = int(rng.integers(num_replicas))
            events.append(FaultEvent(float(time_us), REPLICA_CRASH, target))
            downtime = float(rng.exponential(mean_downtime_us))
            recover_us = time_us + max(downtime, 1.0)
            if recover_us < horizon_us:
                events.append(FaultEvent(float(recover_us), REPLICA_RECOVER, target))
        for time_us in draw_times(slow_rate_per_sec):
            target = int(rng.integers(num_replicas))
            span = max(float(rng.exponential(mean_slow_us)), 1.0)
            events.append(FaultEvent(float(time_us), REPLICA_SLOW, target,
                                     param=slow_factor, duration_us=span))
        for time_us in draw_times(frame_loss_per_sec):
            events.append(FaultEvent(float(time_us), FRAME_DROP))
        for time_us in draw_times(frame_corrupt_per_sec):
            events.append(FaultEvent(float(time_us), FRAME_CORRUPT))
        for time_us in draw_times(broadcast_fail_per_sec):
            target = int(rng.integers(num_replicas))
            events.append(FaultEvent(float(time_us), BROADCAST_FAIL, target))
        return cls(events=tuple(events),
                   redispatch_latency_us=redispatch_latency_us, seed=seed)


#: The canonical no-fault plan (the bit-identical fast path).
EMPTY_PLAN = FaultPlan()


class FaultInjector:
    """Walks a :class:`FaultPlan` at runtime and logs every applied fault.

    The injector partitions the plan into independent queues per consumer
    (replica-pool events, wire-frame events, broadcast failures) so the
    serving tier popping its due events never swallows the frame faults the
    simulation loop owns, and vice versa.  ``log`` accumulates one stable
    line per applied fault / recovery / re-dispatch — the replay bar
    compares these lines across runs of the same (plan, workload).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._replica_events: Deque[FaultEvent] = deque(
            e for e in plan.events if e.kind in _REPLICA_KINDS)
        self._frame_events: Deque[FaultEvent] = deque(
            e for e in plan.events if e.kind in _FRAME_KINDS)
        self._broadcast_events: List[FaultEvent] = [
            e for e in plan.events if e.kind == BROADCAST_FAIL]
        self.log: List[str] = []

    # --------------------------------------------------------------- basics
    @property
    def armed(self) -> bool:
        return not self.plan.empty

    def record(self, time_us: float, kind: str, target: int = -1,
               detail: str = "") -> None:
        parts = [f"{time_us:.3f}", kind]
        if target >= 0:
            parts.append(f"target={target}")
        if detail:
            parts.append(detail)
        self.log.append(" ".join(parts))

    # ------------------------------------------------------- replica events
    def due_replica_events(self, now_us: float) -> List[FaultEvent]:
        """Pop every replica-pool event scheduled at or before ``now_us``."""
        due: List[FaultEvent] = []
        while self._replica_events and self._replica_events[0].time_us <= now_us:
            due.append(self._replica_events.popleft())
        return due

    def peek_crash(self, replica_index: int,
                   before_us: float) -> Optional[FaultEvent]:
        """The pending crash of ``replica_index`` landing at/before
        ``before_us``, if it is the replica's next scheduled event.

        Used at batch-planning time: a batch whose start on a replica's
        horizon lies beyond that replica's crash must re-dispatch — its
        rows are exactly the "queued and in-flight" work the dead replica
        can no longer serve.
        """
        for event in self._replica_events:
            if event.target != replica_index:
                continue
            if event.kind == REPLICA_CRASH:
                return event if event.time_us <= before_us else None
            return None  # recover/slow scheduled first: no pending crash
        return None

    def consume(self, event: FaultEvent) -> None:
        """Remove an event claimed by a planner ahead of its due time."""
        self._replica_events.remove(event)

    # --------------------------------------------------------- frame events
    def next_frame_fault(self, now_us: float) -> Optional[FaultEvent]:
        """Pop the frame fault due for a frame sent at ``now_us``, if any."""
        if self._frame_events and self._frame_events[0].time_us <= now_us:
            return self._frame_events.popleft()
        return None

    # ----------------------------------------------------- broadcast events
    def take_broadcast_failures(self, replica_index: int,
                                before_us: float) -> List[FaultEvent]:
        """Pop broadcast failures due for ``replica_index`` at/before
        ``before_us`` (consumed by ``update_weights``)."""
        taken = [e for e in self._broadcast_events
                 if e.target == replica_index and e.time_us <= before_us]
        for event in taken:
            self._broadcast_events.remove(event)
        return taken

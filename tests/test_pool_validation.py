"""One validator for both pools: every invalid shared option raises at construction.

``SelfPlayPool`` and ``EnvRolloutPool`` share their constructor validation
(``repro.rollout.pool.DriverPool._validate``), so each invalid input below
must raise ``ValueError`` from both pools with the very same message.
Options only one pool has stay in that pool's own tests.

Three cases pin checks that used to be missing or late:

* ``EnvRolloutPool`` rejects an unknown ``routing`` at construction, not at
  ``run()``;
* ``EnvRolloutPool`` rejects an unknown ``cache_scope`` even without a cache;
* ``SelfPlayPool`` rejects an unknown flush policy under the (default)
  sequential scheduler too.
"""

from functools import partial

import pytest

from repro.faults import FaultEvent, FaultPlan
from repro.faults.plan import REPLICA_CRASH, SHARD_CRASH
from repro.minigo import SelfPlayPool
from repro.rollout import EnvRolloutPool
from repro.tracedb.writer import StreamingTraceWriter

REPLICA_CRASH_PLAN = FaultPlan(events=(FaultEvent(0.0, REPLICA_CRASH, 0),))
SHARD_CRASH_PLAN = FaultPlan(events=(FaultEvent(0.0, SHARD_CRASH, 0, param=1.0),))
LIVE_STORE = object()  #: placeholder for a live StreamingTraceWriter


def make_selfplay(num_workers=2, **kwargs):
    return SelfPlayPool(num_workers, board_size=5, num_simulations=2, profile=False,
                        **kwargs)


def make_envrollout(num_workers=2, **kwargs):
    return EnvRolloutPool("Pong", num_workers, steps_per_worker=2, **kwargs)


#: Both pools, configured so that any valid multiprocess option is accepted.
POOLS = [pytest.param(partial(make_selfplay, batched_inference=True, scheduler="event"),
                      id="selfplay"),
         pytest.param(make_envrollout, id="envrollout")]

IGNORED_PLAN = "a non-empty fault_plan requires num_processes"

INVALID = [
    ("no-workers", dict(num_workers=0), "num_workers must be positive"),
    ("no-replicas", dict(num_replicas=0), "num_replicas must be positive"),
    ("unknown-routing", dict(routing="bogus"), "unknown routing policy 'bogus'"),
    ("unknown-flush-policy", dict(flush_policy="bogus"), "unknown flush policy 'bogus'"),
    ("unknown-cache-scope", dict(cache_scope="bogus"), "unknown cache scope 'bogus'"),
    ("timeout-without-deadline", dict(flush_policy="timeout"),
     "the timeout flush policy requires a non-negative flush_timeout_us"),
    ("cache-with-processes",
     dict(cache_capacity=16, num_processes=2, process_backend="inline"),
     "cannot be combined with the service evaluation cache"),
    ("no-processes", dict(num_processes=0), "num_processes must be positive"),
    ("unknown-backend", dict(num_processes=2, process_backend="threads"),
     "unknown process backend 'threads'"),
    ("live-store-with-processes", dict(num_processes=2, store=LIVE_STORE),
     "cannot share a live store object across processes"),
    ("faults-single-process", dict(fault_plan=REPLICA_CRASH_PLAN), IGNORED_PLAN),
    ("shard-crash-single-process", dict(fault_plan=SHARD_CRASH_PLAN), IGNORED_PLAN),
    ("faults-inline-backend",
     dict(num_processes=2, process_backend="inline", fault_plan=SHARD_CRASH_PLAN),
     IGNORED_PLAN),
    ("faults-other-than-shard-crash", dict(num_processes=2, fault_plan=REPLICA_CRASH_PLAN),
     "fault_plan kinds ['replica-crash'] would be ignored"),
]


@pytest.mark.parametrize("kwargs, message",
                         [pytest.param(kwargs, message, id=name)
                          for name, kwargs, message in INVALID])
def test_invalid_option_raises_one_message_from_both_pools(kwargs, message, tmp_path):
    if kwargs.get("store") is LIVE_STORE:
        kwargs = dict(kwargs, store=StreamingTraceWriter(str(tmp_path / "store")))
    errors = []
    for make in (make_selfplay, make_envrollout):
        with pytest.raises(ValueError) as info:
            make(**kwargs)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert message in errors[0]


@pytest.mark.parametrize("make", POOLS)
@pytest.mark.parametrize("kwargs", [
    dict(),
    dict(num_processes=2, process_backend="inline"),
    dict(num_processes=2, process_backend="process"),
], ids=["single-process", "inline", "process"])
def test_empty_fault_plan_is_accepted_everywhere(make, kwargs):
    pool = make(**kwargs, fault_plan=FaultPlan())
    assert pool.fault_plan.empty


@pytest.mark.parametrize("make", POOLS)
def test_shard_crash_plan_is_accepted_on_the_process_backend(make):
    pool = make(num_processes=2, process_backend="process", fault_plan=SHARD_CRASH_PLAN)
    assert pool.fault_plan is SHARD_CRASH_PLAN

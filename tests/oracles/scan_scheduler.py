"""The original linear-scan :class:`PoolScheduler` event loop.

:func:`run_scan` is the scheduler's ``run`` from before the lazy-heap rewrite,
kept verbatim.  It rebuilds the runnable list per event, O(workers) per
event, and never touches the heap counters.  Tests swap it in for
``PoolScheduler.run`` (or call it on a scheduler directly) to assert that the
heap loop makes identical scheduling decisions.
"""

from __future__ import annotations

from repro.rollout.scheduler import PoolScheduler, SchedulerStats


def run_scan(scheduler: PoolScheduler) -> SchedulerStats:
    """Original linear-scan loop: rebuilds the runnable list per event."""
    while True:
        runnable = [driver for driver in scheduler.drivers if driver.runnable]
        if not runnable:
            if scheduler.service.pending_tickets:
                scheduler._serve()
                continue
            if all(driver.finished for driver in scheduler.drivers):
                return scheduler.stats
            raise RuntimeError("scheduler deadlock: unfinished workers but "
                               "nothing runnable and nothing pending")
        nxt = min(runnable, key=lambda driver: driver.now_us)
        if scheduler._try_eager_serve(nxt.now_us):
            continue
        deadline = scheduler._pending_deadline_us()
        if deadline is not None and nxt.now_us >= deadline:
            scheduler.stats.timeout_serves += 1
            scheduler._serve(arrival_cutoff_us=deadline)
            continue
        scheduler._step(nxt)

"""Overhead correction: subtract calibrated book-keeping time from the trace.

The profiler leaves an :class:`~repro.profiler.events.OverheadMarker` at every
point where its book-keeping code ran.  Correction looks up the calibrated
average duration of that book-keeping, finds the operation that was active at
that moment, and subtracts the estimate from the stack category the
book-keeping time landed in (Python for interception wrappers and
annotations, CUDA API for the librlscope hook and CUPTI inflation) — i.e. the
time is removed "at the precise point when it occurs" (Section 3.4).
"""

from __future__ import annotations

import bisect
import heapq
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from .calibration import CalibrationResult
from .events import OVERHEAD_CATEGORY, Event, EventTrace
from .overlap import UNTRACKED


class OperationLocator:
    """Finds the innermost operation active at a given time for one worker.

    The innermost operation at time ``t`` is the one with the latest start
    among all operations with ``start_us <= t <= end_us`` (ties broken toward
    the later entry in start-sorted order).  A linear scan per query makes
    overhead correction O(markers x operations); instead we sweep the
    interval boundaries once and precompute the answer for every elementary
    segment, so each query is a single binary search.

    Because an operation is active on the *closed* interval
    ``[start_us, end_us]``, the answer exactly at a boundary point can differ
    from the answer in the open segment that follows it; both are stored.
    """

    def __init__(self, operations: List[Event]) -> None:
        ops = sorted(operations, key=lambda op: op.start_us)
        points: List[float] = sorted({p for op in ops for p in (op.start_us, op.end_us)})
        self._points = points
        self._at_point: List[str] = []
        self._after_point: List[str] = []
        if not points:
            return

        starts_at: Dict[float, List[int]] = defaultdict(list)
        for index, op in enumerate(ops):
            starts_at[op.start_us].append(index)

        # Max-heap over (start, sorted-index) with lazy deletion: the top
        # entry still active is the innermost operation.  Each op is pushed
        # and popped at most once, so the whole sweep is O(n log n).
        heap: List[Tuple[float, int]] = []

        def innermost(active_threshold: float) -> str:
            """Name of the top op whose end_us >= active_threshold."""
            while heap and ops[-heap[0][1]].end_us < active_threshold:
                heapq.heappop(heap)
            return ops[-heap[0][1]].name if heap else UNTRACKED

        for i, point in enumerate(points):
            for index in starts_at.get(point, ()):
                heapq.heappush(heap, (-ops[index].start_us, -index))
            # Queries exactly at `point` see ops with end_us >= point ...
            self._at_point.append(innermost(point))
            # ... while queries strictly between this point and the next see
            # only ops that survive past `point`.
            if i + 1 < len(points):
                self._after_point.append(innermost(points[i + 1]))

    def locate(self, time_us: float) -> str:
        points = self._points
        index = bisect.bisect_right(points, time_us) - 1
        if index < 0:
            return UNTRACKED
        if points[index] == time_us:
            return self._at_point[index]
        if index >= len(self._after_point):
            return UNTRACKED
        return self._after_point[index]


def overhead_by_operation_category(
    trace: EventTrace,
    calibration: CalibrationResult,
) -> Dict[Tuple[str, str], float]:
    """Estimated book-keeping time per (operation, category) bucket."""
    locators = {
        worker: OperationLocator([op for op in trace.operations if op.worker == worker])
        for worker in trace.workers()
    }
    totals: Dict[Tuple[str, str], float] = defaultdict(float)
    for marker in trace.markers:
        duration = calibration.overhead_for_marker(marker)
        if duration <= 0:
            continue
        locator = locators.get(marker.worker)
        operation = locator.locate(marker.time_us) if locator is not None else UNTRACKED
        category = OVERHEAD_CATEGORY[marker.kind]
        totals[(operation, category)] += duration
    return dict(totals)


def corrected_category_breakdown(
    breakdown: Dict[str, Dict[str, float]],
    overheads: Dict[Tuple[str, str], float],
) -> Dict[str, Dict[str, float]]:
    """Subtract per-(operation, category) overhead estimates from a breakdown.

    Values are clamped at zero: calibration noise must never produce negative
    critical-path time.
    """
    corrected: Dict[str, Dict[str, float]] = {
        op: dict(categories) for op, categories in breakdown.items()
    }
    for (operation, category), overhead in overheads.items():
        if operation not in corrected:
            continue
        categories = corrected[operation]
        if category in categories:
            categories[category] = max(categories[category] - overhead, 0.0)
        else:
            # The overhead landed in a category with no measured time (e.g.
            # all of that category's time *was* overhead); nothing to subtract.
            continue
    return corrected


def corrected_total_us(trace: EventTrace, calibration: CalibrationResult, *, total_us: Optional[float] = None) -> float:
    """Corrected total training time: instrumented total minus estimated overhead."""
    if total_us is None:
        total_us = float(trace.metadata.get("total_time_us", trace.span_us()))
    return max(total_us - calibration.total_overhead_us(trace), 0.0)

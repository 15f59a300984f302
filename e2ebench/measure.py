"""Measurement helpers: percentiles, busy time, self time, RSS, host speed.

Everything here is pure and deterministic except :func:`peak_rss_mb`,
:func:`host_probe_ms` and :func:`host_slowdown`, which read the process
and the clock.
"""

from __future__ import annotations

import bisect
import math
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is only reported as supported when at least this many
#: samples lie beyond it.
MIN_BEYOND = 10

#: Iterations of one calibration loop (about 1.25 ms on a quiet host).
CALIBRATION_SIZE = 8000
#: Calibration loops per host-speed sample; the sample is their median,
#: so one preempted loop cannot set it.
CALIBRATION_PIECES = 3
#: The calibration sample on the reference host: 1.25 ms, about the
#: fastest the 2-vCPU host the benchmark was tuned on ran it. A slowdown
#: of 1.0 means the host runs at that speed; timings are divided by it.
CALIBRATION_REFERENCE_S = 0.00125


@dataclass
class OpRecord:
    """One timed operation.

    ``due`` is when the op should have started: the send time of an
    open-loop request, or the start time in a closed loop. Latency is
    measured from it, so a late generator cannot hide queueing.
    ``slowdown`` is the host slowdown during the op, set by
    :func:`assign_slowdowns`.
    """

    due: float
    start: float
    end: float
    ok: bool = False
    slowdown: float = 1.0

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def calibrated_latency(self) -> float:
        """Latency at the reference host speed."""
        return self.latency / self.slowdown

    @property
    def lateness(self) -> float:
        return self.start - self.due


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell–Davis estimate of the ``q``-quantile (``0 ≤ q ≤ 1``).

    A weighted mean of all order statistics, with Beta((n+1)q, (n+1)(1-q))
    weights, so it blends the ~10 samples around the q-th rank instead of
    reading one or two. Latencies of a fixed request mix cluster by
    request kind; a single-rank percentile jumps whenever one request
    crosses a gap between clusters, and this one moves by a fraction of
    that. Samples too few for the Beta weights to be finite fall back to
    linear interpolation between the closest ranks.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    ordered = sorted(values)
    count = len(ordered)
    a, b = (count + 1) * q, (count + 1) * (1.0 - q)
    if a <= 1.0 or b <= 1.0:
        position = q * (count - 1)
        low = math.floor(position)
        high = min(low + 1, count - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))

    steps = 16  # Simpson's rule per rank interval [(i-1)/n, i/n]
    weights = []
    for rank in range(count):
        low, width = rank / count, 1.0 / (count * steps)
        total = density(low) + density(low + steps * width)
        for k in range(1, steps):
            total += (4.0 if k % 2 else 2.0) * density(low + k * width)
        weights.append(total * width / 3.0)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def samples_beyond(count: int, q: float) -> int:
    """Samples ranked strictly above the nearest-rank ``q``-quantile."""
    return count - math.ceil(q * count)


def percentile_supported(count: int, q: float) -> bool:
    """True iff ``count`` samples leave ≥ :data:`MIN_BEYOND` beyond ``q``.

    p50 needs 20 samples and p90 needs 100.
    """
    return samples_beyond(count, q) >= MIN_BEYOND


def min_samples_for(q: float) -> int:
    """The smallest sample count for which ``q`` is supported."""
    count = 1
    while not percentile_supported(count, q):
        count += 1
    return count


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of (possibly overlapping) intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def busy_seconds(records: Sequence[OpRecord]) -> float:
    """Wall time during which at least one op was outstanding."""
    return union_length((r.due, r.end) for r in records)


def calibrated_busy_seconds(records: Sequence[OpRecord]) -> float:
    """:func:`busy_seconds` at the reference host speed.

    Each stretch of overlapping ops is divided by the median slowdown of
    the ops in it; ops that do not overlap are divided by their own.
    """
    total = 0.0
    stretch: List[OpRecord] = []
    stretch_end = 0.0
    for record in sorted(records, key=lambda r: (r.due, r.end)):
        if stretch and record.due > stretch_end:
            total += _stretch_seconds(stretch, stretch_end)
            stretch = []
        stretch_end = max(stretch_end, record.end) if stretch else record.end
        stretch.append(record)
    if stretch:
        total += _stretch_seconds(stretch, stretch_end)
    return total


def _stretch_seconds(stretch: Sequence[OpRecord], end: float) -> float:
    length = max(0.0, end - stretch[0].due)
    return length / statistics.median(r.slowdown for r in stretch)


def self_times(spans: Sequence[Tuple]) -> Dict[str, float]:
    """Sum of each span name's self time, in seconds.

    ``spans`` holds ``(span_id, name, start, end, parent_id, op_id)``
    tuples. A span's self time is its duration minus the part of that
    interval its direct children cover; grandchildren lie inside their
    parent, so they are already inside a direct child's interval.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for span_id, name, start, end, _, _ in spans:
        covered = union_length(
            (max(start, c_start), min(end, c_end))
            for c_start, c_end in children.get(span_id, ())
        )
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe_once(size: int = 60000) -> float:
    start = time.perf_counter()
    table = {}
    seen = set()
    for i in range(size):
        table[i] = i * 7 % 1009
        seen.add(table[i])
    total = 0
    for key, value in table.items():
        if value in seen:
            total += key
    return time.perf_counter() - start


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed dict/set loop, in ms.

    A diagnostic of host speed only: no metric is divided by it.
    """
    return 1000.0 * statistics.median(_probe_once() for _ in range(repeats))


def host_slowdown() -> float:
    """How slow the host runs now, relative to the reference host.

    The median time of :data:`CALIBRATION_PIECES` short dict/set loops
    divided by :data:`CALIBRATION_REFERENCE_S`. Sampled right before and
    right after each op (a few ms against ops of 50 ms and more), it
    tracks a shared host whose speed moves by tens of percent within
    seconds; dividing an op's time by it leaves what the program itself
    costs.
    """
    seconds = statistics.median(_probe_once(CALIBRATION_SIZE) for _ in range(CALIBRATION_PIECES))
    return seconds / CALIBRATION_REFERENCE_S


def host_sample() -> Tuple[float, float]:
    """``(time, slowdown)``: :func:`host_slowdown`, stamped at its midpoint."""
    start = time.perf_counter()
    slowdown = host_slowdown()
    return (start + time.perf_counter()) / 2.0, slowdown


def assign_slowdowns(records: Sequence[OpRecord], samples: Sequence[Tuple[float, float]]) -> None:
    """Set each op's slowdown from the host samples taken around it.

    An op gets the mean of the last sample before it started and the
    first sample after it ended (the one that exists, if only one does).
    ``samples`` are ``(time, slowdown)`` pairs from :func:`host_sample`
    in time order.
    """
    times = [at for at, _ in samples]
    for record in records:
        before = bisect.bisect_right(times, record.start) - 1
        after = bisect.bisect_left(times, record.end)
        around = [samples[i][1] for i in (before, after) if 0 <= i < len(samples)]
        record.slowdown = statistics.mean(around) if around else 1.0

"""Pure measurement arithmetic shared by every workload.

Nothing here touches the program under test, so the benchmark's own
tests (``perfbench/tests``) can pin each rule without a server.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A percentile is reportable only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q/100 * N)``-th smallest value.

    ``inf`` entries (failed requests) sort last, so failures push the
    tail up instead of vanishing from the sample.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with >= 10 samples beyond it.

    Nearest rank ``k = ceil(q/100 * N)`` leaves ``N - k`` samples above
    the reported one.  Samples too small for any candidate fall back to
    the median, so the tail never claims more than the data supports.
    """
    for q in TAIL_CANDIDATES:
        if count - math.ceil(q / 100.0 * count) >= MIN_BEYOND:
            return q
    return 50.0


def median(values) -> float:
    return float(statistics.median(values))


def backlog_grows(samples, connections: int) -> bool:
    """Whether the generator's backlog grew over one ladder step.

    ``samples`` are ``(offset_s, backlog)`` pairs taken at every send,
    where backlog counts requests already due but not yet sent.  With
    ``connections`` blocking keep-alive connections the backlog jitters
    by up to that many requests even when the server keeps up, so the
    step counts as growing only when the median backlog of its last
    third exceeds that of its first third by at least ``connections``.
    """
    if len(samples) < 3:
        return False
    ordered = sorted(samples)
    third = len(ordered) // 3
    first = median([b for _, b in ordered[:third]])
    last = median([b for _, b in ordered[-third:]])
    return last - first >= connections


def step_meets_limit(latencies_ms, failed: int, backlog_samples,
                     limit_ms: float, connections: int) -> bool:
    """One ladder step's verdict: p99 within the limit, backlog steady.

    Failed requests count as misses (infinite latency).
    """
    sample = list(latencies_ms) + [math.inf] * failed
    if not sample:
        return False
    if percentile(sample, 99.0) > limit_ms:
        return False
    return not backlog_grows(backlog_samples, connections)


def ladder_done(verdicts, patience: int) -> bool:
    """Whether the last ``patience`` steps all missed the limit."""
    return len(verdicts) >= patience and not any(verdicts[-patience:])


def ladder_rate(rates, verdicts, patience: int) -> float:
    """The ladder's answer: the highest rung that met the limit.

    ``verdicts`` are the pass/fail results of the steps run, in ladder
    order; the ladder stops after ``patience`` failures in a row, so a
    lone failing step (a stall on a shared host) does not end the
    search but a saturated server does.  Returns 0.0 when no step
    passed.
    """
    best = 0.0
    for k, (rate, ok) in enumerate(zip(rates, verdicts)):
        if ladder_done(verdicts[:k], patience):
            break
        if ok:
            best = float(rate)
    return best


def quietest(steals, keep: int) -> list[int]:
    """Indices of the ``keep`` windows with the least host steal (ties
    keep measurement order)."""
    return sorted(range(len(steals)), key=lambda i: (steals[i], i))[:keep]


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children) -> float:
    """A span's duration minus the part of it its children cover.

    ``span`` and each child are ``(start, end)``; children are clipped to
    the parent first, so a child that outlives its parent (an executor
    callback finishing late) is charged only for the overlap.
    """
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length(clipped)

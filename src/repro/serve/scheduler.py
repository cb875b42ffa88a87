"""Transport-free micro-batch scheduling core.

The micro-batching contract — flush at once with whatever queued (or,
with a positive ``max_delay_ms``, coalesce until ``max_batch`` rows or
that fixed deadline), shed when saturated, expire per-request deadlines
before any kernel work, split oversized stacks, isolate poison requests
— is pure scheduling policy.  Nothing in it needs an event loop, so
this module holds the policy and the executor-side helpers, and
:class:`~repro.serve.batcher.MicroBatcher` (one asyncio worker task per
served model, in the single server and in every pool worker alike) binds
them to its queue and futures:

* :class:`SchedulerPolicy` makes every decision: coalescing window, shed
  threshold, deadline expiry;
* :func:`stack_batch` and :func:`predict_in_slices` are the kernel-side
  body that runs on an executor thread.

Keeping the decisions here lets ``tests/serve/test_scheduler.py`` test
them without an event loop.

**Bit-exactness.**  Scheduling cannot change any answer: quantization is
elementwise, every kernel partial sum is an exact integer in float64, and
the rank-table argmax is per-row — so coalescing or splitting is
bit-identical to direct ``predict``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .. import faults

__all__ = [
    "SchedulerPolicy",
    "ServiceClosed",
    "QueueSaturated",
    "DeadlineExceeded",
    "stack_batch",
    "predict_in_slices",
    "POINT_BATCH",
    "POINT_WORKER",
]

#: Fires once per micro-batch execution, on the executing thread, before
#: any kernel work; context is ``model=<key> rows=<n>``.  ``raise`` here
#: exercises the poison-isolation retry, ``stall`` simulates a slow
#: kernel (for deadline/shed scenarios), ``kill`` a worker-process death
#: mid-batch (the pool chaos suite).
POINT_BATCH = faults.register_point(
    "serve.batch", "one micro-batch execution on an executor thread"
)

#: Fires in whichever **process** is executing serving work — at
#: ``phase=batch`` here (every micro-batch), and at
#: ``phase=start`` / ``phase=ready`` / ``phase=drain`` in a pool worker's
#: lifecycle (:mod:`repro.serve.pool`).  ``kill:match=phase=batch``
#: drops a pool worker mid-batch; ``kill:match=phase=start`` kills it
#: during boot (the pool's restart machinery must recover from both).
#: Registered here because the batch-phase fire lives in the shared
#: executor body below; the pool only adds the lifecycle phases.
POINT_WORKER = faults.register_point(
    "pool.worker", "the process executing serving work (pool workers: "
    "start/ready/drain lifecycle phases plus every batch)"
)


class ServiceClosed(RuntimeError):
    """Raised by ``submit`` once the batcher has begun shutting down."""


class QueueSaturated(RuntimeError):
    """Raised by ``submit`` when load shedding is on and the queue is at
    or past the shed threshold — the HTTP layer answers 503 +
    ``Retry-After`` instead of letting the request wait."""


class DeadlineExceeded(RuntimeError):
    """A request's deadline expired while it waited in the queue; it was
    answered 504 and its rows were never executed."""


@dataclass
class PendingRequest:
    """One enqueued request: quantized patterns plus its result future
    (an :class:`asyncio.Future` the batcher resolves)."""

    patterns: np.ndarray  # (rows, in) uint32
    rows: int
    future: Any
    enqueued: float  # loop clock time, for queue+execute latency
    deadline: float | None = None  # absolute clock time; None = none


class SchedulerPolicy:
    """Every micro-batching *decision*, free of any event loop.

    Owns the knobs (validated once, at construction); the batcher asks
    it what to do and keeps only the plumbing (queue, futures, worker
    task) to itself.
    """

    def __init__(
        self,
        *,
        max_batch: int = 32,
        max_delay_ms: float = 0.0,
        queue_limit: int = 256,
        shed_threshold: float | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        # A NaN or infinite window would never close: a lone request
        # would wait forever.
        if not math.isfinite(max_delay_ms) or max_delay_ms < 0:
            raise ValueError("max_delay_ms must be a finite number >= 0")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if shed_threshold is not None and not 0.0 < shed_threshold <= 1.0:
            raise ValueError("shed_threshold must be in (0, 1]")
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay_ms) / 1000.0
        self.queue_limit = int(queue_limit)
        # Load shedding is opt-in: None keeps the original backpressure
        # behavior (full queue = submitters wait).  With a threshold f,
        # submits are refused outright once qsize reaches
        # ceil(f * queue_limit), so the server can answer 503 fast
        # instead of stacking latency onto an already-saturated queue.
        self.shed_threshold = shed_threshold
        self.shed_at = (
            None
            if shed_threshold is None
            else max(1, math.ceil(shed_threshold * queue_limit))
        )

    # -- per-submit decisions -------------------------------------------
    def should_shed(self, qsize: int) -> bool:
        """Whether a submit arriving at queue depth ``qsize`` is shed."""
        return self.shed_at is not None and qsize >= self.shed_at

    @staticmethod
    def validate_patterns(patterns) -> np.ndarray:
        patterns = np.asarray(patterns, dtype=np.uint32)
        if patterns.ndim != 2:
            raise ValueError("patterns must be 2-D (rows, features)")
        return patterns

    # -- batch-assembly decisions ---------------------------------------
    def split_expired(
        self, batch: list[PendingRequest], now: float
    ) -> tuple[list[PendingRequest], list[PendingRequest]]:
        """Partition an assembled batch into (live, expired) requests.

        Expiry is judged once, at batch assembly: expired rows are
        answered without ever touching a kernel, and live rows keep
        their place in the batch.
        """
        live, expired = [], []
        for item in batch:
            if item.deadline is not None and now > item.deadline:
                expired.append(item)
            else:
                live.append(item)
        return live, expired

    def expiry_error(self, item: PendingRequest, now: float) -> DeadlineExceeded:
        """The 504-material exception for one expired request."""
        exc = DeadlineExceeded(
            f"deadline expired after "
            f"{(now - item.enqueued) * 1000.0:.1f}ms in queue"
        )
        exc._repro_counted = True
        return exc


def stack_batch(batch: list[PendingRequest]) -> np.ndarray:
    """The stacked pattern matrix for one coalesced batch."""
    if len(batch) == 1:
        return batch[0].patterns
    return np.vstack([item.patterns for item in batch])


def predict_in_slices(
    model, stacked: np.ndarray, cap: int
) -> tuple[np.ndarray, list[int]]:
    """Predict a stacked matrix in ``cap``-row slices (kernel-side body).

    The injection points fire here, inside the error boundary, so an
    armed fault behaves exactly like a kernel failure.
    """
    faults.fire(POINT_BATCH, model=model.key, rows=int(stacked.shape[0]))
    faults.fire(POINT_WORKER, phase="batch", model=model.key,
                rows=int(stacked.shape[0]))
    network = model.network
    sizes, parts = [], []
    for start in range(0, stacked.shape[0], cap):
        chunk = stacked[start:start + cap]
        parts.append(network.predict_patterns(chunk))
        sizes.append(chunk.shape[0])
    if not parts:
        # Every coalesced request was zero-row: there is nothing to
        # predict, and ``np.concatenate([])`` would raise and fail the
        # whole batch.  Answer with an empty prediction array (each
        # zero-row caller slices an empty view).
        return np.zeros(0, dtype=np.int64), sizes
    return np.concatenate(parts), sizes


_CLOSE = object()  # queue sentinel; FIFO order makes it drain-then-exit

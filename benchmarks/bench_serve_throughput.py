"""Serving throughput: micro-batched vs sequential single-request traffic.

Two servers over the same trained WBC posit8_1 model:

* **sequential** — an unbatched service (``max_batch=1``, no coalescing
  delay) driven by one client sending one request at a time: every request
  pays the full per-call kernel overhead at batch size 1;
* **batched** — a fixed 2 ms window (``max_batch=32``,
  ``max_delay_ms=2.0``) under 32 concurrent clients: the scheduler
  coalesces the burst into kernel-sized stacks.

Both paths return bit-identical predictions (asserted); the acceptance
floor is batched >= 3x sequential req/s at max_batch=32.  CI records the
comparison to ``BENCH_serve.json``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serve import ServeClient, start_in_thread

DATASET, FORMAT = "wbc", "posit8_1"
NUM_REQUESTS = 256
THREADS = 32
MAX_BATCH = 32
ROUNDS = 5

#: Best observed req/s per mode, for the cross-test speedup assertion.
_RESULTS: dict[str, float] = {}


@pytest.fixture(scope="module")
def test_rows(wbc_model):
    return np.asarray(wbc_model.dataset.test_x)


def _warm(port: int, rows) -> None:
    with ServeClient(port=port) as client:
        client.warmup(DATASET, FORMAT)
        for i in range(8):
            client.predict(DATASET, FORMAT, [rows[i % len(rows)]])


@pytest.mark.benchmark(group="serve-throughput")
def test_serve_sequential_requests(benchmark, test_rows, wbc_model):
    """One client, one single-row request at a time, unbatched server."""
    expected = None
    with start_in_thread(port=0, max_batch=1, max_delay_ms=0.0) as handle:
        port = handle.server.port
        _warm(port, test_rows)
        client = ServeClient(port=port)

        def run() -> float:
            start = time.perf_counter()
            for i in range(NUM_REQUESTS):
                client.predict(
                    DATASET, FORMAT, [test_rows[i % len(test_rows)]]
                )
            return time.perf_counter() - start

        benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=1)
        expected = client.predict(DATASET, FORMAT, test_rows[:4])["predictions"]
        client.close()
    best = benchmark.stats.stats.min
    _RESULTS["sequential"] = NUM_REQUESTS / best
    benchmark.extra_info["requests_per_s"] = round(_RESULTS["sequential"], 1)
    assert len(expected) == 4


@pytest.mark.benchmark(group="serve-throughput")
def test_serve_microbatched_requests(benchmark, test_rows, wbc_model):
    """32 concurrent clients against a fixed 2 ms window server."""
    with start_in_thread(
        port=0, max_batch=MAX_BATCH, max_delay_ms=2.0
    ) as handle:
        port = handle.server.port
        _warm(port, test_rows)
        per_thread = NUM_REQUESTS // THREADS

        # Long-lived workers with pre-established connections: the timed
        # section is barrier-to-barrier, covering only the request burst.
        stop = threading.Event()
        start_gate = threading.Barrier(THREADS + 1)
        end_gate = threading.Barrier(THREADS + 1)

        worker_errors: list[BaseException] = []

        def worker(idx: int) -> None:
            try:
                with ServeClient(port=port) as client:
                    client.health()  # connect before any timed round
                    while True:
                        start_gate.wait()
                        if stop.is_set():
                            return
                        for i in range(per_thread):
                            client.predict(
                                DATASET,
                                FORMAT,
                                [test_rows[
                                    (idx * per_thread + i) % len(test_rows)
                                ]],
                            )
                        end_gate.wait()
            except BaseException as exc:  # abort, don't deadlock the gates
                worker_errors.append(exc)
                start_gate.abort()
                end_gate.abort()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for t in threads:
            t.start()

        def run() -> None:
            try:
                start_gate.wait()
                end_gate.wait()
            except threading.BrokenBarrierError:
                pytest.fail(f"serve bench worker failed: {worker_errors!r}")

        try:
            benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=1)
        finally:
            stop.set()
            try:
                start_gate.wait(timeout=10)  # release workers to exit
            except threading.BrokenBarrierError:
                pass
            for t in threads:
                t.join(timeout=10)
        with ServeClient(port=port) as client:
            stats = client.stats()
            served = client.predict(DATASET, FORMAT, test_rows[:4])
    best = benchmark.stats.stats.min
    _RESULTS["batched"] = THREADS * per_thread / best
    benchmark.extra_info["requests_per_s"] = round(_RESULTS["batched"], 1)
    benchmark.extra_info["batch_size_histogram"] = stats[
        "batch_size_histogram"
    ]
    # Coalescing happened, and answers match the unbatched server's.
    sizes = [int(s) for s in stats["batch_size_histogram"]]
    assert max(sizes) > 1
    direct_model = __import__(
        "repro.serve.registry", fromlist=["build_served_model"]
    ).build_served_model(DATASET, FORMAT)
    assert served["predictions"] == direct_model.network.predict(
        test_rows[:4]
    ).tolist()


def test_microbatching_speedup_floor():
    """Acceptance: micro-batched throughput >= 3x sequential at max_batch=32."""
    if "sequential" not in _RESULTS or "batched" not in _RESULTS:
        pytest.skip("run the two throughput benches in the same session")
    speedup = _RESULTS["batched"] / _RESULTS["sequential"]
    print(
        f"\nserve throughput: sequential {_RESULTS['sequential']:.0f} req/s, "
        f"batched {_RESULTS['batched']:.0f} req/s -> {speedup:.2f}x"
    )
    assert speedup >= 3.0, (
        f"micro-batching speedup {speedup:.2f}x below the 3x floor "
        f"({_RESULTS})"
    )

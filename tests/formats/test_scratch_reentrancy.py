"""Scratch-pool reentrancy: kernels shared across threads stay bit-exact.

The format registry memoizes backends and their tables per format key,
resident networks keep their compiled kernels, and the serving layer runs
batches on executor threads — so two forward passes through the *same*
kernel objects can be in flight at once.
The scratch pool is per-thread (``kernels._scratch``); these tests pin down
that two interleaved kernel runs never corrupt each other's staging/GEMM
buffers, which a process-global pool would allow.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import formats
from repro.formats import kernels


def _layer_case(backend, rng, out_dim=7, in_dim=11, batch=64):
    width = backend.width
    tables = backend.limb_tables()
    valid = np.flatnonzero(~tables.invalid).astype(np.uint32)
    weights = rng.choice(valid, size=(out_dim, in_dim))
    bias = rng.choice(valid, size=out_dim)
    acts = rng.choice(valid, size=(batch, in_dim))
    return weights, bias, acts


@pytest.mark.parametrize("names", [("posit8_1", "posit8_1"), ("posit8_1", "float4_3")])
def test_interleaved_kernel_runs_are_bit_identical(names, rng, monkeypatch):
    """Two threads hammering (same or different) kernels match serial runs."""
    # Tiny chunk cap: many chunks per call widens the window in which a
    # shared pool would hand both threads the same buffer.
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 64)
    cases = []
    for name in names:
        backend = formats.get(name)
        weights, bias, acts = _layer_case(backend, rng)
        kernel = backend.compile_layer(weights, bias)
        cases.append((kernel, acts, kernel(acts).copy()))

    barrier = threading.Barrier(len(cases))
    failures: list[str] = []

    def worker(kernel, acts, expected, tag):
        barrier.wait()
        for _ in range(50):
            got = kernel(acts)
            if not np.array_equal(got, expected):
                failures.append(f"{tag}: interleaved run diverged")
                return

    threads = [
        threading.Thread(target=worker, args=(k, a, e, names[i]))
        for i, (k, a, e) in enumerate(cases)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures, failures


def test_scratch_pool_is_per_thread():
    """Each thread gets its own pool object; clear_scratch is thread-local."""
    main_pool = kernels._scratch()
    assert kernels._scratch() is main_pool  # stable within a thread

    seen = {}

    def grab():
        seen["other"] = kernels._scratch()

    t = threading.Thread(target=grab)
    t.start()
    t.join()
    assert seen["other"] is not main_pool


def test_concurrent_network_forward_matches_serial(rng):
    """Full-network forwards on two threads reuse one memoized backend safely."""
    from repro.core import PositronNetwork

    backend = formats.get("posit8_1")  # the shared, memoized instance
    w = [rng.normal(scale=0.6, size=(8, 6)), rng.normal(scale=0.4, size=(3, 8))]
    b = [rng.normal(scale=0.1, size=8), np.zeros(3)]
    net = PositronNetwork.from_float_params(backend.fmt, w, b)
    assert net.backend is backend

    x = rng.normal(size=(96, 6))
    patterns = backend.quantize_batch(x)
    expected = net.forward_patterns(patterns).copy()

    barrier = threading.Barrier(2)
    results = [None, None]

    def run(slot):
        barrier.wait()
        outs = [net.forward_patterns(patterns) for _ in range(25)]
        results[slot] = outs

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for outs in results:
        for got in outs:
            np.testing.assert_array_equal(got, expected)

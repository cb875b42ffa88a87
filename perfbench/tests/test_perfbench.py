"""Tests of the benchmark's own logic (no server, no training).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
import stats  # noqa: E402


def _pools():
    rng = np.random.default_rng(0)
    return {ds: rng.normal(size=(50, 4)) for ds in ("iris", "wbc", "mushroom")}


class _FakeModel:
    """Stands in for a ServedModel: predicts each row's argmax."""

    class network:  # noqa: N801 - mirrors ServedModel.network
        @staticmethod
        def predict(rows):
            return np.argmax(rows[:, :3], axis=1)


def _wire(requests):
    return [(r.rid, r.model, r.head, r.rest) for r in requests]


# -- seeded inputs ------------------------------------------------------
def test_small_phase_is_a_function_of_the_seed():
    pools = _pools()
    a_reqs, a_offsets = serving.small_phase(7, 1, pools, 100.0, 1.0)
    b_reqs, b_offsets = serving.small_phase(7, 1, pools, 100.0, 1.0)
    assert np.array_equal(a_offsets, b_offsets)
    assert _wire(a_reqs) == _wire(b_reqs)
    c_reqs, c_offsets = serving.small_phase(8, 1, pools, 100.0, 1.0)
    assert not np.array_equal(a_offsets, c_offsets)
    assert _wire(a_reqs) != _wire(c_reqs)


def test_small_phase_offers_the_nominal_load():
    reqs, offsets = serving.small_phase(3, 1, _pools(), 100.0, 2.0)
    assert len(reqs) == len(offsets) == 200
    assert np.all(np.diff(offsets) >= 0) and 0 <= offsets[0] < offsets[-1] < 2
    assert all(1 <= len(r.rows) <= serving.MAX_ROWS_SMALL for r in reqs)
    assert {r.model for r in reqs} <= set(serving.SMALL_MODELS)


def test_bulk_requests_are_a_function_of_the_seed():
    pool = np.random.default_rng(1).normal(size=(600, 4))
    models = {(serving.BULK_DATASET, fmt): _FakeModel()
              for fmt in layers.BULK_FORMATS}
    a = serving.bulk_requests(5, pool, 40, models)
    b = serving.bulk_requests(5, pool, 40, models)
    assert _wire(a[0]) == _wire(b[0]) and _wire(a[2]) == _wire(b[2])
    assert a[3] == b[3]
    warm, answers, timed, timed_answers = a
    assert len(warm) == len(layers.BULK_FORMATS) * serving.BULK_BODIES_PER_FORMAT
    assert all(len(r.rows) == serving.BULK_ROWS for r in timed)
    # Each timed request's expected answer is its body's answer.
    for req, want in zip(timed, timed_answers):
        assert want == _FakeModel.network.predict(req.rows).tolist()


def test_request_bytes_carry_a_fixed_width_tag():
    rows = np.array([[0.5, -1.25]])
    req = loadgen.encode_request(42, "iris", "posit8_1", rows)
    head, _, prefix = req.head.partition(b"\r\n\r\n")
    body = prefix + req.rest
    assert int(head.split(b"Content-Length: ")[1]) == len(body)
    assert loadgen.rid_of(body) == 42
    payload = json.loads(body)
    assert payload["inputs"] == rows.tolist()
    assert (payload["dataset"], payload["format"]) == ("iris", "posit8_1")
    assert loadgen.rid_of(b'{"dataset": "iris"}') is None


# -- percentiles ---------------------------------------------------------
@pytest.mark.parametrize("count, q", [
    (10009, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0), (400, 95.0),
    (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0),
    (39, 50.0), (5, 50.0),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, q):
    assert stats.tail_percentile(count) == q
    beyond = count - math.ceil(q / 100 * count)
    assert q == 50.0 or beyond >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank_and_failures_sort_last():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile(list(range(1, 101)), 99) == 99
    assert stats.percentile([1.0] * 98 + [math.inf] * 2, 99) == math.inf


# -- the slo_rps ladder ---------------------------------------------------
def test_step_fails_on_p99_over_the_limit_counting_failures_as_misses():
    fast = [1.0] * 99
    assert stats.step_meets_limit(fast, 1, [], 10.0, 2)
    assert not stats.step_meets_limit(fast, 2, [], 10.0, 2)
    assert not stats.step_meets_limit([1.0] * 98 + [11.0] * 2, 0, [],
                                      10.0, 2)
    assert not stats.step_meets_limit([], 0, [], 10.0, 2)


def test_step_fails_when_the_backlog_grows():
    steady = [(t / 100, t % 2) for t in range(300)]
    growing = [(t / 100, t // 30) for t in range(300)]
    assert not stats.backlog_grows(steady, 2)
    assert stats.backlog_grows(growing, 2)
    assert stats.step_meets_limit([1.0] * 300, 0, steady, 10.0, 2)
    assert not stats.step_meets_limit([1.0] * 300, 0, growing, 10.0, 2)


def test_ladder_answer_is_highest_rung_before_two_misses_in_a_row():
    rates = (100, 200, 300, 400, 500, 600)
    assert stats.ladder_rate(rates, [True, True, False, True, False, False],
                             2) == 400
    assert stats.ladder_rate(rates, [True, False, False, True], 2) == 100
    assert stats.ladder_rate(rates, [False, False], 2) == 0.0
    assert stats.ladder_rate(rates, [True] * 6, 2) == 600
    assert not stats.ladder_done([True, False], 2)
    assert stats.ladder_done([True, False, False], 2)


# -- host-steal screening -------------------------------------------------
def test_latency_figures_come_from_the_quieter_half_of_the_windows():
    windows = [
        {"steal": steal, "p50_ms": p50, "p90_ms": 2 * p50, "ok_rows": 100,
         "wall_s": 1.0}
        for steal, p50 in [(0.0, 3.0), (0.2, 9.0), (0.0, 2.0), (0.1, 8.0),
                           (0.0, 4.0), (0.3, 7.0)]
    ]
    assert stats.quietest([w["steal"] for w in windows], 3) == [0, 2, 4]
    figures = serving.windowed(windows)
    assert figures["p50_ms"] == 3.0 and figures["p90_ms"] == 6.0
    assert figures["rows_per_s"] == 100.0  # over every window


def test_noisy_runs_measure_extra_windows():
    quiet = {"steal": 0.0}
    noisy = {"steal": serving.QUIET_STEAL * 2}
    half = serving.WINDOWS // 2
    assert serving.quiet_enough([quiet] * half + [noisy] * half)
    assert not serving.quiet_enough([quiet] * (half - 1) + [noisy] * half)


# -- spans ------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_clipped_children():
    assert stats.union_length([(2, 4), (3, 6), (8, 12)]) == 8
    assert stats.self_time((0, 10), [(2, 4), (3, 6), (8, 12)]) == 4
    assert stats.self_time((0, 10), []) == 10
    assert stats.self_time((0, 10), [(-5, 20)]) == 0


def _span(sid, name, start, end, parent=None, rid=None, **attrs):
    return {"id": sid, "parent": parent, "name": name, "pid": 1,
            "start": start, "end": end, "rid": rid, "attrs": attrs}


def test_kernel_time_excludes_a_plan_compiled_inside_predict():
    spans = [
        _span(1, "formats.network.predict", 0, 10_000, rows=10,
              format="posit8_1"),
        _span(2, "core.positron.network_kernel", 1_000, 7_000, parent=1,
              paths=["int64", "layer"]),
        _span(3, "formats.network.predict", 20_000, 24_000, rows=10,
              format="posit8_1"),
    ]
    out = layers.core_layers(layers.group(spans), layers.self_seconds(spans))
    assert out["formats.network.busy_s"] == pytest.approx(8e-6)
    assert out["formats.network.us_per_row.posit8_1"] == pytest.approx(0.4)
    assert out["core.positron.compile_s"] == pytest.approx(6e-6)
    assert out["formats.network.layer_path_share"] == 0.5


def test_batcher_wait_is_submit_minus_its_batch_execute():
    ms = 1_000_000
    spans = [
        _span(1, "serve.batcher.submit", 0, 5 * ms, rid=7, rows=1),
        _span(2, "serve.batcher.submit", 1 * ms, 5 * ms, rid=8, rows=1),
        _span(3, "serve.batcher.execute", 2 * ms, 5 * ms, rids=[7, 8],
              model="iris/posit8_1"),
    ]
    out = layers.batcher_waits(layers.group(spans))
    assert out["serve.batcher.wait_ms.p50"] == pytest.approx(1.0)
    assert out["serve.batcher.wait_ms.p99"] == pytest.approx(2.0)


def test_unaccounted_time_is_client_latency_minus_server_spans():
    ms = 1_000_000
    spans = [  # the read started long before the send: idle keep-alive
        _span(1, "serve.http.read", 0, 11 * ms, rid=1),
        _span(2, "serve.registry.quantize", 12 * ms, 13 * ms, rows=1),
        _span(3, "serve.batcher.submit", 13 * ms, 16 * ms, rid=1),
        _span(4, "serve.http.write", 16 * ms, 17 * ms, rid=1),
    ]
    client = {1: (0.010, 0.020)}
    out = layers.serve_layers(spans, client)
    assert out["serve.http.read_ms.p50"] == pytest.approx(1.0)
    # 10 ms at the client; read 1 + quantize 1 + submit 3 + write 1.
    assert out["serve.unaccounted_ms.p50"] == pytest.approx(4.0)


# -- the benchmark's declaration ------------------------------------------------
def test_benchmark_json_matches_the_catalogues():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(layers.PER_LAYER)
    assert set(layers.complete({})) == {m[0] for m in layers.PER_LAYER}

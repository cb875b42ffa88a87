"""Serving counters: percentile math, the latency ring, and /metrics.

The percentile regression pinned here is the seed bug this PR fixes:
nearest-rank via banker's ``round()`` reported the p50 of an odd-length
sample one rank low (``percentile([1,2,3,4,5], 50) == 2``), skewing every
p50/p99 in ``/stats`` and ``BENCH_serve.json``.  True nearest-rank uses
``ceil(q/100 * N)``.

The ``/metrics`` rendering is checked two ways: byte-for-byte against a
hand-written Prometheus text-exposition fixture, and structurally with a
small parser that enforces the format rules (TYPE before samples,
cumulative histogram buckets, numeric sample values).
"""

from __future__ import annotations

import math
import re

from hypothesis import given
from hypothesis import strategies as st

from repro.serve.stats import _LATENCY_WINDOW, ServeStats, percentile


class TestPercentile:
    def test_p50_of_odd_sample_is_the_median(self):
        # The seed regression: round() nearest-rank returned 2.
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_order_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 50) == 3

    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_single_sample_is_every_percentile(self):
        for q in (0, 1, 50, 99, 100):
            assert percentile([7.5], q) == 7.5

    def test_q0_is_min_q100_is_max(self):
        samples = [3.0, 1.0, 9.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 9.0

    def test_even_sample_p50_takes_lower_middle(self):
        # ceil(0.5 * 4) = 2 -> the second of four ordered samples.
        assert percentile([1, 2, 3, 4], 50) == 2

    def test_p99_needs_one_hundred_samples_to_leave_the_max(self):
        # N=99: ceil(98.01) = rank 99 = the max; N=100: rank 99 < the max.
        assert percentile(list(range(1, 100)), 99) == 99
        assert percentile(list(range(1, 101)), 99) == 99
        assert percentile(list(range(1, 102)), 99) == 100

    @given(
        samples=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=64
        ),
        q=st.floats(0, 100),
    )
    def test_matches_ceil_nearest_rank_definition(self, samples, q):
        ordered = sorted(samples)
        rank = max(1, min(len(ordered), math.ceil(q / 100.0 * len(ordered))))
        assert percentile(samples, q) == ordered[rank - 1]
        assert percentile(samples, q) in samples


class TestLatencyRing:
    def test_wraparound_past_window_keeps_only_recent_samples(self):
        stats = ServeStats()
        total = _LATENCY_WINDOW + 100
        for i in range(total):
            stats.record_request(1, float(i))
        # The ring is full, not grown; the cumulative counters kept going.
        assert len(stats._latencies_ms) == _LATENCY_WINDOW
        assert stats.requests == total
        assert stats.samples == total
        assert stats._latency_sum_ms == float(sum(range(total)))
        # The 100 oldest samples (0..99) were overwritten in ring order.
        assert min(stats._latencies_ms) == 100.0
        assert max(stats._latencies_ms) == float(total - 1)
        assert stats._latency_pos == 100

    def test_window_reported_in_snapshot(self):
        stats = ServeStats()
        for i in range(10):
            stats.record_request(2, 1.0 + i)
        snap = stats.snapshot()
        assert snap["latency_ms"]["window"] == 10
        assert snap["latency_ms"]["p50"] == 5.0  # ceil(0.5*10)=5th -> 5.0
        assert snap["latency_ms"]["p99"] == 10.0


class TestSnapshot:
    def test_shape_and_values(self):
        stats = ServeStats()
        stats.record_batch("toy/posit8_1", 2)
        stats.record_batch("toy2/float4_3", 4)
        stats.record_request(2, 3.0)
        stats.record_request(4, 5.0)
        stats.record_error()
        stats.record_rejected()
        stats.record_swap()
        stats.record_canary(diverged=False)
        stats.record_canary(diverged=True)
        snap = stats.snapshot()
        assert snap == {
            "requests": 2,
            "samples": 6,
            "batches": 2,
            "errors": 1,
            "rejected": 1,
            "shed": 0,
            "deadline_expired": 0,
            "swaps": 1,
            "rollbacks": 0,
            "batch_retries": 0,
            "canary": {"checks": 2, "divergences": 1},
            "mean_batch_size": 3.0,
            "batch_size_histogram": {"2": 1, "4": 1},
            "samples_per_model": {"toy/posit8_1": 2, "toy2/float4_3": 4},
            "latency_ms": {"p50": 3.0, "p99": 5.0, "window": 2},
        }

    def test_empty_stats_snapshot(self):
        snap = ServeStats().snapshot()
        assert snap["requests"] == 0
        assert snap["mean_batch_size"] == 0.0
        assert snap["latency_ms"] == {"p50": 0.0, "p99": 0.0, "window": 0}


def _known_stats() -> ServeStats:
    stats = ServeStats()
    stats.record_batch("toy/posit8_1", 1)
    stats.record_batch("toy/posit8_1", 3)
    stats.record_request(1, 2.0)
    stats.record_request(3, 4.5)
    stats.record_rejected()
    stats.record_swap()
    stats.record_canary(diverged=False)
    stats.record_canary(diverged=True)
    return stats


#: Hand-written Prometheus text exposition for ``_known_stats()``.
_EXPECTED_EXPOSITION = """\
# HELP repro_serve_requests_total Completed predict requests.
# TYPE repro_serve_requests_total counter
repro_serve_requests_total 2
# HELP repro_serve_samples_total Predicted rows across all requests.
# TYPE repro_serve_samples_total counter
repro_serve_samples_total 4
# HELP repro_serve_batches_total Executed micro-batches.
# TYPE repro_serve_batches_total counter
repro_serve_batches_total 2
# HELP repro_serve_errors_total Failed requests (batch execution or handler errors).
# TYPE repro_serve_errors_total counter
repro_serve_errors_total 0
# HELP repro_serve_rejected_total Requests rejected by backpressure (queue saturated).
# TYPE repro_serve_rejected_total counter
repro_serve_rejected_total 1
# HELP repro_serve_shed_total Requests refused by load shedding (503 + Retry-After).
# TYPE repro_serve_shed_total counter
repro_serve_shed_total 0
# HELP repro_serve_deadline_expired_total Requests whose deadline expired in queue (504, never executed).
# TYPE repro_serve_deadline_expired_total counter
repro_serve_deadline_expired_total 0
# HELP repro_serve_swaps_total Model hot-swaps applied via POST /swap.
# TYPE repro_serve_swaps_total counter
repro_serve_swaps_total 1
# HELP repro_serve_rollbacks_total Automatic canary rollbacks to the last-known-good generation.
# TYPE repro_serve_rollbacks_total counter
repro_serve_rollbacks_total 0
# HELP repro_serve_batch_retries_total Failed micro-batches re-executed request-by-request (poison isolation).
# TYPE repro_serve_batch_retries_total counter
repro_serve_batch_retries_total 0
# HELP repro_serve_canary_checks_total Sampled A/B canary bit-identity comparisons.
# TYPE repro_serve_canary_checks_total counter
repro_serve_canary_checks_total 2
# HELP repro_serve_canary_divergences_total Canary comparisons where served output differed from the direct recompute (any nonzero value is a serve bug).
# TYPE repro_serve_canary_divergences_total counter
repro_serve_canary_divergences_total 1
# HELP repro_serve_batch_size Rows per executed micro-batch.
# TYPE repro_serve_batch_size histogram
repro_serve_batch_size_bucket{le="1"} 1
repro_serve_batch_size_bucket{le="2"} 1
repro_serve_batch_size_bucket{le="4"} 2
repro_serve_batch_size_bucket{le="8"} 2
repro_serve_batch_size_bucket{le="16"} 2
repro_serve_batch_size_bucket{le="32"} 2
repro_serve_batch_size_bucket{le="64"} 2
repro_serve_batch_size_bucket{le="128"} 2
repro_serve_batch_size_bucket{le="256"} 2
repro_serve_batch_size_bucket{le="512"} 2
repro_serve_batch_size_bucket{le="1024"} 2
repro_serve_batch_size_bucket{le="+Inf"} 2
repro_serve_batch_size_sum 4
repro_serve_batch_size_count 2
# HELP repro_serve_latency_ms Request latency in milliseconds (quantiles over the recent window).
# TYPE repro_serve_latency_ms summary
repro_serve_latency_ms{quantile="0.5"} 2
repro_serve_latency_ms{quantile="0.99"} 4.5
repro_serve_latency_ms_sum 6.5
repro_serve_latency_ms_count 2
# HELP repro_serve_model_samples_total Predicted rows per served model.
# TYPE repro_serve_model_samples_total counter
repro_serve_model_samples_total{model="toy/posit8_1"} 4
# HELP repro_serve_queue_depth Requests queued per model (excludes the in-flight batch).
# TYPE repro_serve_queue_depth gauge
repro_serve_queue_depth{model="toy/posit8_1"} 2
"""

_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[0-9eE.+-]+)$"
)
_LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def parse_exposition(text: str) -> dict[str, list[tuple[str, float]]]:
    """A strict little Prometheus text-format parser for the tests.

    Enforces: newline-terminated; every sample line matches the grammar;
    every sample's metric family has a # TYPE declared before it; labels
    are well-formed.  Returns ``family -> [(labels, value), ...]``.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    types: dict[str, str] = {}
    families: dict[str, list[tuple[str, float]]] = {}
    for line in text.splitlines():
        assert line.strip() == line, f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert kind in {"counter", "gauge", "histogram", "summary"}, line
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _SAMPLE_LINE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name = match.group("name")
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        base = family if family in types else name
        assert base in types, f"sample before # TYPE: {line!r}"
        for label in filter(None, (match.group("labels") or "").split(",")):
            assert _LABEL.match(label), f"malformed label: {label!r}"
        value = float(match.group("value"))
        families.setdefault(base, []).append(
            (match.group("labels") or "", value)
        )
    return families


class TestPrometheusRendering:
    def test_matches_handwritten_fixture(self):
        rendered = _known_stats().render_prometheus(
            queue_depths={"toy/posit8_1": 2},
        )
        assert rendered == _EXPECTED_EXPOSITION

    def test_parses_as_valid_exposition(self):
        families = parse_exposition(
            _known_stats().render_prometheus(
                queue_depths={"toy/posit8_1": 0},
            )
        )
        assert families["repro_serve_requests_total"] == [("", 2.0)]
        assert families["repro_serve_canary_divergences_total"] == [("", 1.0)]

    def test_histogram_buckets_are_cumulative_and_close_at_inf(self):
        stats = ServeStats()
        for size in (1, 1, 3, 8, 200, 2000):  # 2000 > the largest bound
            stats.record_batch("m/f", size)
        families = parse_exposition(stats.render_prometheus())
        buckets = [
            (labels, value)
            for labels, value in families["repro_serve_batch_size"]
            if "le=" in labels
        ]
        counts = [value for _, value in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert buckets[-1][0] == 'le="+Inf"'
        assert buckets[-1][1] == stats.batches  # +Inf always equals count
        assert buckets[-2][1] == 5  # the 2000-row batch is only under +Inf

    def test_quantiles_track_the_ring(self):
        stats = ServeStats()
        for i in range(1, 101):
            stats.record_request(1, float(i))
        families = parse_exposition(stats.render_prometheus())
        samples = families["repro_serve_latency_ms"]
        assert ('quantile="0.5"', 50.0) in samples
        assert ('quantile="0.99"', 99.0) in samples
        assert ("", 5050.0) in samples  # _sum
        assert ("", 100.0) in samples  # _count

    def test_label_escaping(self):
        stats = ServeStats()
        stats.record_batch('weird"model\\name', 1)
        rendered = stats.render_prometheus()
        assert r'model="weird\"model\\name"' in rendered

    def test_omits_empty_gauge_sections(self):
        rendered = ServeStats().render_prometheus()
        assert "repro_serve_queue_depth" not in rendered
        assert "repro_serve_model_samples_total" not in rendered
        parse_exposition(rendered)  # still a valid document

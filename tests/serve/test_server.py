"""End-to-end service tests: HTTP front end, registry, batching, stats.

A real server runs on a background thread (ephemeral port) with the tiny
synthetic-model loader injected, and the blocking ``ServeClient`` drives
it — the same embedding the example and the throughput benchmark use.
"""

from __future__ import annotations

import json
import multiprocessing.context
import threading

import numpy as np
import pytest

from repro.serve import (
    ModelRegistry,
    ServeClient,
    ServeError,
    start_in_thread,
)
from repro.serve.registry import build_served_model

from .conftest import tiny_loader


@pytest.fixture(scope="module")
def handle():
    registry = ModelRegistry(loader=tiny_loader)
    server = start_in_thread(
        registry=registry, port=0, max_batch=8, max_delay_ms=5.0
    )
    yield server
    server.stop()


@pytest.fixture
def client(handle):
    with ServeClient(port=handle.server.port) as c:
        yield c


class TestEndpoints:
    def test_health(self, client):
        body = client.health()
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0

    def test_warmup_then_models_lists_it(self, client):
        described = client.warmup("toy", "posit8_1")
        assert described["topology"] == [4, 6, 3]
        assert described["classes"] == ["setosa", "versicolor", "virginica"]
        listing = client.models()
        keys = {(m["dataset"], m["format"]) for m in listing["loaded"]}
        assert ("toy", "posit8_1") in keys
        assert listing["batching"]["max_batch"] == 8

    def test_format_name_is_canonicalized(self, client):
        # Label spelling and registry spelling resolve to one served model.
        a = client.warmup("toy", "posit<8,1>")
        b = client.warmup("toy", "posit8_1")
        assert a["format"] == b["format"] == "posit8_1"

    def test_predict_matches_direct_network(self, client, rng):
        x = rng.normal(size=(6, 4))
        body = client.predict("toy", "posit8_1", x)
        direct = build_served_model("toy", "posit8_1", tiny_loader)
        expected = direct.network.predict(x)
        assert body["predictions"] == expected.tolist()
        assert body["labels"] == [
            direct.class_names[c] for c in expected
        ]

    def test_predict_single_sample_1d(self, client, rng):
        body = client.predict("toy", "posit8_1", rng.normal(size=4))
        assert len(body["predictions"]) == 1

    def test_stats_surface(self, client, rng):
        client.predict("toy", "posit8_1", rng.normal(size=(3, 4)))
        stats = client.stats()
        assert stats["requests"] >= 1
        assert stats["samples"] >= 3
        hist = {int(k): v for k, v in stats["batch_size_histogram"].items()}
        assert sum(k * v for k, v in hist.items()) == stats["samples"]
        assert set(stats["latency_ms"]) == {"p50", "p99", "window"}
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]


class TestErrorPaths:
    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServeError) as err:
            client._request("POST", "/health", {})
        assert err.value.status == 405

    def test_unknown_dataset_400(self, client, rng):
        with pytest.raises(ServeError) as err:
            client.predict("nope", "posit8_1", rng.normal(size=(1, 4)))
        assert err.value.status == 400
        assert "nope" in err.value.message

    def test_unknown_format_400(self, client, rng):
        with pytest.raises(ServeError) as err:
            client.predict("toy", "posit99_99", rng.normal(size=(1, 4)))
        assert err.value.status == 400

    def test_feature_mismatch_400(self, client, rng):
        with pytest.raises(ServeError) as err:
            client.predict("toy", "posit8_1", rng.normal(size=(1, 7)))
        assert err.value.status == 400
        assert "expects 4 features" in err.value.message

    def test_missing_inputs_400(self, client):
        with pytest.raises(ServeError) as err:
            client._request(
                "POST", "/predict", {"dataset": "toy", "format": "posit8_1"}
            )
        assert err.value.status == 400

    def test_non_numeric_inputs_400(self, client):
        with pytest.raises(ServeError) as err:
            client._request(
                "POST",
                "/predict",
                {"dataset": "toy", "format": "posit8_1", "inputs": ["x"]},
            )
        assert err.value.status == 400

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), float("-inf"), True, False],
        ids=["nan", "inf", "-inf", "true", "false"],
    )
    def test_non_finite_or_boolean_inputs_400(self, client, bad):
        """A client mistake: stable 400, never counted as a server error."""
        errors = client.stats()["errors"]
        row = [0.5, bad, -0.25, 1.0]
        for inputs in (row, [[0.1, 0.2, 0.3, 0.4], row]):
            with pytest.raises(ServeError) as err:
                client._request(
                    "POST",
                    "/predict",
                    {"dataset": "toy", "format": "posit8_1", "inputs": inputs},
                )
            assert err.value.status == 400
            assert err.value.message == (
                "'inputs' must hold finite numbers "
                "(no NaN, Infinity or booleans)"
            )
        assert client.stats()["errors"] == errors

    def test_overflowing_literal_400(self, handle, client):
        """``1e999`` parses to inf, and an integer literal too big for
        float64 cannot convert: both get the same 400 as ``Infinity``."""
        import http.client

        errors = client.stats()["errors"]
        for literal in ("1e999", "1" + "0" * 400):
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.server.port, timeout=10
            )
            try:
                conn.request(
                    "POST", "/predict",
                    body='{"dataset": "toy", "format": "posit8_1", '
                         f'"inputs": [[{literal}, 0, 0, 0]]}}',
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 400, literal
                assert "finite" in json.loads(response.read())["error"]
            finally:
                conn.close()
        assert client.stats()["errors"] == errors

    def test_boolean_outside_inputs_is_served(self, client, rng):
        """Only booleans *in* ``inputs`` are rejected."""
        x = rng.normal(size=(2, 4))
        body = client._request(
            "POST",
            "/predict",
            {"dataset": "toy", "format": "posit8_1", "inputs": x.tolist(),
             "verbose": True},
        )
        direct = build_served_model("toy", "posit8_1", tiny_loader)
        assert body["predictions"] == direct.network.predict(x).tolist()

    def test_format_too_wide_400(self, client, rng):
        """A name that parses but has no kernels is a client error."""
        errors = client.stats()["errors"]
        with pytest.raises(ServeError) as err:
            client.predict("toy", "posit99_1", rng.normal(size=(1, 4)))
        assert err.value.status == 400
        assert "posit99_1" in err.value.message
        assert client.stats()["errors"] == errors

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_gets_400(self, handle, length):
        import socket

        with socket.create_connection(
            ("127.0.0.1", handle.server.port), timeout=10
        ) as sock:
            sock.sendall(
                f"GET /health HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                .encode()
            )
            response = sock.recv(65536).decode()
        assert response.startswith("HTTP/1.1 400")
        assert "Content-Length" in response

    def test_malformed_json_400(self, handle):
        import http.client

        conn = http.client.HTTPConnection(
            "127.0.0.1", handle.server.port, timeout=10
        )
        try:
            conn.request(
                "POST", "/predict", body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert "JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()


#: One invalid value per validated serving knob.
BAD_KNOBS = [
    {"max_batch": 0},
    {"max_delay_ms": -1.0},
    {"queue_limit": 0},
    {"executor_workers": 0},
    {"submit_timeout_s": 0.0},
    {"canary_every": -1},
    {"rollback_after": -1},
]


def _refuse_spawn(process):
    raise AssertionError(f"{process.name} was spawned")


class TestConstruction:
    @pytest.mark.parametrize("kwargs", BAD_KNOBS)
    def test_bad_knobs_rejected_at_startup(self, kwargs):
        from repro.serve import InferenceServer

        with pytest.raises(ValueError):
            InferenceServer(**kwargs)

    @pytest.mark.parametrize("kwargs", BAD_KNOBS)
    def test_pool_rejects_bad_knobs_before_spawning(self, kwargs):
        """The pool manager applies the server's own checks to its
        ``server_kwargs``; a bad knob never reaches a worker."""
        from repro.serve import WorkerPool

        with pytest.raises(ValueError):
            WorkerPool(port=0, server_kwargs=kwargs)

    def test_pool_cli_bad_knob_is_one_error_line(self, monkeypatch, capsys):
        """``serve --workers-procs 2 --max-delay-ms -1`` exits 2 with one
        ``error:`` line and no worker process (it used to crash-loop every
        worker through its restart budget, then die with a traceback)."""
        from repro.__main__ import main

        monkeypatch.setattr(
            multiprocessing.context.SpawnProcess, "start", _refuse_spawn
        )
        code = main(["serve", "--workers-procs", "2", "--max-delay-ms", "-1",
                     "--port", "0"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: max_delay_ms must be a finite number >= 0"
        ]


class TestConcurrentLoad:
    def test_threaded_clients_get_bit_identical_answers(self, handle, rng):
        direct = build_served_model("toy", "posit8_1", tiny_loader)
        num_threads, per_thread = 8, 5
        requests = [
            [rng.normal(size=(rng.integers(1, 5), 4)) for _ in range(per_thread)]
            for _ in range(num_threads)
        ]
        barrier = threading.Barrier(num_threads)
        failures: list[str] = []

        def worker(batches):
            with ServeClient(port=handle.server.port) as c:
                barrier.wait()
                for x in batches:
                    got = c.predict("toy", "posit8_1", x)["predictions"]
                    want = direct.network.predict(x).tolist()
                    if got != want:
                        failures.append(f"{got} != {want}")

        threads = [
            threading.Thread(target=worker, args=(r,)) for r in requests
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures

    def test_concurrent_bursts_actually_coalesce(self, handle, rng):
        """The burst must produce at least one multi-request batch."""
        before = ServeClient(port=handle.server.port)
        baseline = before.stats()["batch_size_histogram"]
        before.close()

        num_threads = 8
        barrier = threading.Barrier(num_threads)

        def worker():
            with ServeClient(port=handle.server.port) as c:
                barrier.wait()
                for _ in range(4):
                    c.predict("toy", "posit8_1", [[0.1, -0.2, 0.3, 0.4]])

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        with ServeClient(port=handle.server.port) as c:
            after = c.stats()["batch_size_histogram"]
        grew = {
            int(size): count - baseline.get(size, 0)
            for size, count in after.items()
            if count != baseline.get(size, 0)
        }
        assert max(grew) > 1, f"no coalescing observed: {grew}"


class TestMetricsEndpoint:
    def test_metrics_is_valid_prometheus_text(self, client, rng):
        """GET /metrics serves the text exposition format with the right
        Content-Type, and the counters line up with /stats."""
        client.warmup("toy", "posit8_1")
        client.predict("toy", "posit8_1", rng.normal(size=(2, 4)))
        text = client.metrics()
        stats = client.stats()

        from .test_stats import parse_exposition

        families = parse_exposition(text)
        assert "# TYPE repro_serve_requests_total counter\n" in text
        requests = dict(families["repro_serve_requests_total"])
        assert requests[""] == float(stats["requests"])
        # The batch-size histogram is cumulative and +Inf == batch count.
        buckets = dict(families["repro_serve_batch_size"])
        assert buckets['le="+Inf"'] == float(stats["batches"])
        # Per-batcher gauges appear once a model has taken traffic.
        depth = dict(families["repro_serve_queue_depth"])
        assert 'model="toy/posit8_1"' in depth

    def test_metrics_content_type_is_prometheus_text(self, handle, client):
        client.predict("toy", "posit8_1", np.zeros((1, 4)))
        import socket

        with socket.create_connection(
            ("127.0.0.1", handle.server.port), timeout=10.0
        ) as sock:
            sock.sendall(
                b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 0\r\n\r\n"
            )
            head = b""
            while b"\r\n\r\n" not in head:
                head += sock.recv(65536)
        headers = head.decode("latin-1").lower()
        assert "200" in headers.split("\r\n", 1)[0]
        assert "content-type: text/plain; version=0.0.4" in headers

    def test_metrics_via_post_is_405(self, client):
        with pytest.raises(ServeError) as err:
            client._request("POST", "/metrics", {})
        assert err.value.status == 405


class TestAdaptiveKnobSurface:
    """``/models`` reports the one configured window, with no per-model
    delay state."""

    def test_models_reports_adaptive_delay_and_effective_windows(
        self, client, rng
    ):
        client.predict("toy", "posit8_1", rng.normal(size=(1, 4)))
        batching = client.models()["batching"]
        assert batching["max_delay_ms"] == 5.0  # the handle's window
        assert "adaptive_delay" not in batching
        assert "effective_delay_ms" not in batching

    def test_adaptive_delay_off_is_reported(self):
        registry = ModelRegistry(loader=tiny_loader)
        with start_in_thread(registry=registry, port=0) as default_handle:
            with ServeClient(port=default_handle.server.port) as c:
                c.predict("toy", "posit8_1", np.zeros((2, 4)))
                batching = c.models()["batching"]
        # The default flushes at once: a zero window, no estimator.
        assert batching["max_delay_ms"] == 0.0
        assert "adaptive_delay" not in batching
        assert "effective_delay_ms" not in batching

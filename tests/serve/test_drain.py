"""Graceful-drain semantics at the single-server level (deterministic).

The pool's rolling restart and SIGTERM handling are built on
:meth:`InferenceServer.drain`; these tests pin its contract without any
child processes: ``/health`` flips to ``"draining"`` immediately, the
public listener stops accepting, requests already in flight complete
(exactly once — never re-executed), idle keep-alive connections are
closed, and the admin listener stays up so a pool manager can watch the
drain.  The multi-process versions of these assertions live in
``test_pool.py`` and ``tests/chaos``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.http import fetch
from repro.serve.registry import ModelRegistry, build_served_model
from repro.serve.server import InferenceServer

from .conftest import tiny_loader


def _predict_body(x):
    return {"dataset": "toy", "format": "posit8_1", "inputs": x.tolist()}


def _expected(x):
    model = build_served_model("toy", "posit8_1", tiny_loader)
    return model.network.predict(x).tolist()


async def _wait(predicate, timeout_s=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate() and loop.time() < deadline:
        await asyncio.sleep(0.005)
    assert predicate()


def test_inflight_request_completes_exactly_once_during_drain(rng):
    """A request sitting in the coalescing window when drain begins must
    still be answered correctly — and executed exactly once."""
    x = rng.normal(size=(3, 4))

    async def scenario():
        server = InferenceServer(
            registry=ModelRegistry(loader=tiny_loader), port=0,
            max_delay_ms=400.0,
        )
        await server.start()
        # The lone request waits the full 400ms window: reliably in
        # flight when drain starts.
        request = asyncio.ensure_future(fetch(
            "127.0.0.1", server.port, "POST", "/predict",
            _predict_body(x), timeout_s=30.0,
        ))
        await _wait(lambda: server._active_requests >= 1)
        drain = asyncio.ensure_future(server.drain(grace_s=10.0))
        await _wait(lambda: server._draining)
        health = server._health()
        assert health["status"] == "draining"
        # The public listener is gone: new connections are refused.
        port = server.port
        with pytest.raises(OSError):
            await fetch("127.0.0.1", port, "GET", "/health", timeout_s=2.0)
        status, body = await request
        payload = json.loads(body)
        assert status == 200
        assert payload["predictions"] == _expected(x)
        await drain
        assert server._active_requests == 0
        # Exactly one request, one batch of three rows: nothing was
        # dropped, nothing re-executed.
        assert server.stats.requests == 1
        assert dict(server.stats.batch_sizes) == {3: 1}
        await server.close()

    asyncio.run(scenario())


def test_drain_closes_idle_keepalive_connections(rng):
    x = rng.normal(size=(1, 4))

    async def scenario():
        server = InferenceServer(
            registry=ModelRegistry(loader=tiny_loader), port=0,
            max_delay_ms=1.0,
        )
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        payload = json.dumps(_predict_body(x)).encode()
        writer.write(
            b"POST /predict HTTP/1.1\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        assert b"200 OK" in head and b"keep-alive" in head
        length = int(
            [ln for ln in head.split(b"\r\n")
             if ln.lower().startswith(b"content-length")][0].split(b":")[1]
        )
        await reader.readexactly(length)
        # The connection now idles in read_request; drain must not hang
        # on it — it closes idle keep-alive sockets once in-flight work
        # (none here) is done.
        await server.drain(grace_s=5.0)
        leftover = await asyncio.wait_for(reader.read(), timeout=5.0)
        assert leftover == b""  # clean EOF, not a hang
        writer.close()
        await server.close()

    asyncio.run(scenario())


def test_admin_listener_survives_drain_and_reports_it(rng):
    """Pool workers keep their loopback admin listener up through drain
    so the manager can watch /health flip to draining."""
    x = rng.normal(size=(2, 4))

    async def scenario():
        server = InferenceServer(
            registry=ModelRegistry(loader=tiny_loader), port=0,
            max_delay_ms=1.0,
            # Any manager port works: /health is answered locally, and
            # this test never touches a forwarded control path.
            pool_manager_port=1, pool_worker_index=0,
        )
        await server.start()
        assert server.admin_port is not None
        status, body = await fetch(
            "127.0.0.1", server.port, "POST", "/predict", _predict_body(x),
        )
        assert status == 200
        assert json.loads(body)["predictions"] == _expected(x)
        await server.drain(grace_s=5.0)
        status, body = await fetch(
            "127.0.0.1", server.admin_port, "GET", "/health",
        )
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "draining"
        assert health["worker"] == 0
        assert health["draining"] is True
        # The worker-state export the manager merges is also still up.
        status, body = await fetch(
            "127.0.0.1", server.admin_port, "GET", "/stats",
        )
        state = json.loads(body)
        assert state["draining"] is True
        assert state["state"]["requests"] == 1
        await server.close()

    asyncio.run(scenario())


def test_drain_is_idempotent_and_close_still_works(rng):
    async def scenario():
        server = InferenceServer(
            registry=ModelRegistry(loader=tiny_loader), port=0,
            max_delay_ms=1.0,
        )
        await server.start()
        await server.drain(grace_s=1.0)
        await server.drain(grace_s=1.0)  # second drain: no-op, no error
        await server.close()
        await server.close()

    asyncio.run(scenario())


def test_predictions_before_drain_match_direct(rng):
    """Sanity: the drain-capable server still serves exact bits."""
    xs = [rng.normal(size=(rows, 4)) for rows in (1, 4, 2)]

    async def scenario():
        server = InferenceServer(
            registry=ModelRegistry(loader=tiny_loader), port=0,
            max_delay_ms=1.0,
        )
        await server.start()
        got = []
        for x in xs:
            status, body = await fetch(
                "127.0.0.1", server.port, "POST", "/predict",
                _predict_body(x),
            )
            assert status == 200
            got.append(json.loads(body)["predictions"])
        await server.drain(grace_s=1.0)
        await server.close()
        return got

    got = asyncio.run(scenario())
    for x, predictions in zip(xs, got):
        assert predictions == _expected(x)

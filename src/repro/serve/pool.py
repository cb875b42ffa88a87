"""Multi-process worker tier: socket-sharded serving with one control plane.

One asyncio process tops out far below the "millions of users" target no
matter how well it batches — the GIL serializes HTTP parsing, JSON, and
quantization even with kernel work on executor threads.  Models are
bit-exact ``.npz`` blobs in the content-addressed store, so independent
worker processes hydrate *identical* registries by spec hash and any
worker can answer any request with bit-identical output.  That makes the
scale-out shape the standard one: N stateless replicas behind a shared
model store.

:class:`WorkerPool` forks N worker processes (``spawn`` context — clean
interpreters, no inherited locks), each running a full
:class:`~repro.serve.server.InferenceServer` with its own registry,
batchers, and executor threads.  Every worker binds the same public port
with ``SO_REUSEPORT``, and the kernel spreads accepted connections across
the live listeners: no extra hop, and each model's micro-batcher runs
warm in every worker.  The pool holds a bound-but-never-listening
placeholder socket in the same reuseport group, which (a) resolves
``port=0`` once so all workers agree, and (b) keeps the port reserved
while workers restart.  A platform without ``SO_REUSEPORT`` cannot run
the pool; the single-process ``serve`` runs anywhere.

**The control plane.**  The pool binds a loopback *manager* port before
spawning; workers forward control requests (``/swap``, ``/ab``,
``/rollback``, ``/stats``, ``/metrics``) that land on the shared public
port up to it, and the manager fans out to every worker's private admin
listener — so a swap observed by any worker becomes a swap applied to
*all* registries, and ``/stats``/``/metrics`` report pooled totals with
true percentiles over the concatenated latency windows (never averaged
quantiles).  A worker that misses a fan-out (it was restarting) keeps an
older generation *number* but serves bit-identical answers — both
generations were rebuilt from the same store artifact — so divergence is
impossible; the supervisor's next restart re-hydrates lazily from the
store anyway.

**Self-healing.**  A supervisor task restarts dead workers with the same
jittered exponential backoff the analysis runner uses for crashed pool
workers; ``SIGTERM`` to a worker triggers graceful drain (stop accepting,
finish in-flight batches, exit 0), and :meth:`WorkerPool.rolling_restart`
drains and replaces workers one at a time so the pool never serves a
request with zero live listeners.

Fault points: ``pool.worker`` (worker lifecycle + every batch — see
:mod:`repro.serve.scheduler`) and ``pool.route`` (fired per control
fan-out hop in the pool process; ``raise``/``drop`` here simulate a torn
control channel, which the broadcast's bounded retries must absorb).
"""

from __future__ import annotations

import asyncio
import importlib
import json
import multiprocessing
import os
import random
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass

from .. import faults
from ..analysis.runner import _backoff_delay
from .http import (
    HttpError,
    fetch,
    read_request,
    split_query,
    write_response,
)
from .registry import ModelRegistry
from .scheduler import POINT_WORKER
from .server import InferenceServer, validate_server_knobs
from .stats import merge_states

__all__ = [
    "WorkerPool",
    "PoolHandle",
    "start_pool_in_thread",
    "run_pool_forever",
    "POINT_WORKER",
    "POINT_ROUTE",
]

#: Fires in the pool process once per control fan-out hop (each attempt
#: to reach one worker); context carries ``path`` and the target
#: ``worker``.  ``raise`` simulates a dropped control channel mid-
#: ``/swap`` — the bounded per-worker retries must still converge every
#: registry.
POINT_ROUTE = faults.register_point(
    "pool.route", "one control fan-out hop in the pool process"
)

#: Per-worker attempts for one control fan-out before that worker is
#: reported failed (it still converges later: restarts rehydrate from
#: the store, and rollback fan-out is idempotent).
_BROADCAST_ATTEMPTS = 3

#: A worker alive this long has its restart-backoff attempt counter
#: reset — only *crash loops* escalate the backoff, not occasional
#: faults hours apart.
_STABLE_AFTER_S = 5.0


def _resolve_loader(spec: str | None):
    """``"module:attr"`` -> the loader callable (``None`` = store-backed).

    Workers are spawned, so the loader cannot be pickled directly — it
    travels as an import spec and resolves inside the worker.  Tests
    point this at module-level tiny-model loaders.
    """
    if spec is None:
        return None
    module_name, _, attr = spec.partition(":")
    if not attr:
        raise ValueError(f"loader spec must be 'module:attr', got {spec!r}")
    return getattr(importlib.import_module(module_name), attr)


# ----------------------------------------------------------------------
# Worker process entry (module-level: must be picklable for spawn)
# ----------------------------------------------------------------------
def _worker_entry(config: dict, conn) -> None:
    try:
        asyncio.run(_worker_main(config, conn))
    except KeyboardInterrupt:
        pass


async def _worker_main(config: dict, conn) -> None:
    faults.fire(POINT_WORKER, phase="start", worker=config["index"])
    registry = ModelRegistry(loader=_resolve_loader(config["loader_spec"]))
    server = InferenceServer(
        registry=registry,
        host=config["host"],
        port=config["port"],
        pool_manager_port=config["manager_port"],
        pool_worker_index=config["index"],
        **config["server_kwargs"],
    )
    await server.start()
    for dataset, format_name in config["warmups"]:
        await server.registry.get(dataset, format_name,
                                  executor=server._executor)
    for dataset, format_a, format_b in config["ab_experiments"]:
        await server.configure_ab(dataset, format_a, format_b)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    # SIGTERM = graceful drain (the supervisor's stop and the rolling
    # restart both send it); SIGINT reaches the whole foreground process
    # group on Ctrl-C, so workers treat it the same way.
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    conn.send({"admin_port": server.admin_port, "pid": os.getpid()})
    conn.close()
    faults.fire(POINT_WORKER, phase="ready", worker=config["index"])

    async def watch_parent() -> None:
        # A manager that dies without stopping the pool (SIGKILL, or a
        # hard SIGTERM that skipped cleanup) must not leave orphaned
        # workers serving forever: when we are reparented, drain.
        while os.getppid() == config["parent_pid"]:
            await asyncio.sleep(1.0)
        stop.set()

    watchdog = asyncio.ensure_future(watch_parent())
    await stop.wait()
    watchdog.cancel()
    faults.fire(POINT_WORKER, phase="drain", worker=config["index"])
    await server.drain(config["drain_grace_s"])
    await server.close()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Supervision record for one worker slot."""

    index: int
    process: multiprocessing.process.BaseProcess | None = None
    admin_port: int | None = None
    pid: int | None = None
    started_at: float = 0.0
    attempts: int = 0  # consecutive failed/short-lived starts
    restarts: int = 0  # lifetime restarts (observability)
    stopping: bool = False  # deliberate termination: don't auto-restart
    dead: bool = False  # gave up after max_restarts crash-loop attempts

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.exitcode is None


class WorkerPool:
    """N serving processes + the control plane, in the current event loop.

    ``server_kwargs`` passes batching/serving knobs through to every
    worker's :class:`~repro.serve.server.InferenceServer` (``max_batch``,
    ``max_delay_ms``, ``queue_limit``, ``shed_threshold``, ...); they must
    be picklable, and are validated here, before any worker spawns.
    ``loader_spec`` is a ``"module:attr"`` import path for
    a registry loader (tests inject tiny synthetic models; ``None`` uses
    the store-backed default).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8707,
        workers: int = 2,
        loader_spec: str | None = None,
        server_kwargs: dict | None = None,
        warmups: tuple = (),
        ab_experiments: tuple = (),
        restart_backoff_s: float = 0.5,
        max_restarts: int = 5,
        drain_grace_s: float = 5.0,
        ready_timeout_s: float = 120.0,
        seed: int | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        validate_server_knobs(**(server_kwargs or {}))
        if not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError(
                "the worker pool needs SO_REUSEPORT, which this platform "
                "lacks; run the single-process 'serve' (no --workers-procs)"
            )
        self.host = host
        self.port = port
        self.workers = int(workers)
        self.loader_spec = loader_spec
        self.server_kwargs = dict(server_kwargs or {})
        self.warmups = tuple(warmups)
        self.ab_experiments = tuple(ab_experiments)
        self.restart_backoff_s = float(restart_backoff_s)
        self.max_restarts = int(max_restarts)
        self.drain_grace_s = float(drain_grace_s)
        self.ready_timeout_s = float(ready_timeout_s)
        # Jitter for restart backoff; seeded for deterministic tests.
        self._rng = random.Random(seed)
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: list[_Worker] = []
        self.manager_port: int | None = None
        self._manager_server: asyncio.base_events.Server | None = None
        self._placeholder: socket.socket | None = None
        self._supervisor: asyncio.Task | None = None
        self._stopping = False
        self._started_at = time.monotonic()

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind the control plane, reserve the public port, spawn every
        worker, and wait until all report ready."""
        self._manager_server = await asyncio.start_server(
            self._handle_control, "127.0.0.1", 0
        )
        self.manager_port = (
            self._manager_server.sockets[0].getsockname()[1]
        )
        # The placeholder joins the reuseport group without ever
        # listening: accepts only spread across *listening* sockets, so
        # it serves no traffic — it resolves port=0 to one number all
        # workers share and keeps the port ours between restarts.
        self._placeholder = socket.socket(
            socket.AF_INET, socket.SOCK_STREAM
        )
        self._placeholder.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
        )
        self._placeholder.bind((self.host, self.port))
        self.port = self._placeholder.getsockname()[1]
        self._workers = [_Worker(index=i) for i in range(self.workers)]
        # Sequential spawn: model hydration is disk/CPU-bound and spawn
        # is memory-spiky; one at a time keeps small hosts stable, and
        # _spawn_worker retries boot-time deaths with backoff.
        for worker in self._workers:
            await self._spawn_worker(worker)
        self._supervisor = asyncio.get_running_loop().create_task(
            self._supervise()
        )

    async def stop(self) -> None:
        """Drain and reap every worker, then tear down the control plane."""
        self._stopping = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
        for worker in self._workers:
            worker.stopping = True
            if worker.alive:
                worker.process.terminate()  # SIGTERM -> graceful drain
        for worker in self._workers:
            if worker.process is not None:
                await self._join(worker, timeout_s=self.drain_grace_s + 10.0)
        if self._manager_server is not None:
            self._manager_server.close()
            await self._manager_server.wait_closed()
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None

    async def rolling_restart(self) -> list[dict]:
        """Replace workers one at a time with zero pool downtime.

        Each worker in turn: SIGTERM (drain: stop accepting, finish
        in-flight, exit 0), reap, respawn, wait ready, health-poll its
        admin listener.  Siblings keep serving throughout — under
        SO_REUSEPORT the kernel only assigns new connections to live
        listeners.
        """
        events = []
        for worker in self._workers:
            worker.stopping = True
            try:
                if worker.alive:
                    worker.process.terminate()
                    await self._join(
                        worker, timeout_s=self.drain_grace_s + 10.0
                    )
                exit_code = (
                    worker.process.exitcode
                    if worker.process is not None else None
                )
                worker.attempts = 0
                worker.dead = False
                await self._spawn_worker(worker)
                worker.restarts += 1
                await self._await_healthy(worker)
                events.append({
                    "worker": worker.index,
                    "exit_code": exit_code,
                    "pid": worker.pid,
                })
            finally:
                worker.stopping = False
        return events

    # -- spawning and supervision ---------------------------------------
    def _worker_config(self, index: int) -> dict:
        return {
            "index": index,
            "host": self.host,
            "port": self.port,
            "manager_port": self.manager_port,
            "loader_spec": self.loader_spec,
            "server_kwargs": self.server_kwargs,
            "warmups": self.warmups,
            "ab_experiments": self.ab_experiments,
            "drain_grace_s": self.drain_grace_s,
            "parent_pid": os.getpid(),
        }

    async def _spawn_worker(self, worker: _Worker) -> None:
        """Start one worker and wait for its ready report, retrying
        boot-time deaths with jittered exponential backoff."""
        while True:
            worker.attempts += 1
            if worker.attempts > 1:
                delay = _backoff_delay(
                    self._rng, self.restart_backoff_s, worker.attempts - 1
                )
                await asyncio.sleep(delay)
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_worker_entry,
                args=(self._worker_config(worker.index), child_conn),
                name=f"repro-serve-worker-{worker.index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            worker.process = process
            try:
                ready = await self._wait_ready(parent_conn, process)
            except (RuntimeError, TimeoutError) as exc:
                parent_conn.close()
                if worker.attempts > self.max_restarts:
                    worker.dead = True
                    raise RuntimeError(
                        f"worker {worker.index} failed to start after "
                        f"{worker.attempts} attempts: {exc}"
                    ) from exc
                continue
            parent_conn.close()
            worker.admin_port = ready["admin_port"]
            worker.pid = ready["pid"]
            worker.started_at = time.monotonic()
            worker.dead = False
            return

    async def _wait_ready(self, conn, process) -> dict:
        deadline = time.monotonic() + self.ready_timeout_s
        while time.monotonic() < deadline:
            if conn.poll(0):
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    raise RuntimeError(
                        "worker closed the ready pipe without reporting"
                    ) from None
            if process.exitcode is not None:
                raise RuntimeError(
                    f"worker died during startup (exit {process.exitcode})"
                )
            await asyncio.sleep(0.05)
        raise TimeoutError(
            f"worker not ready within {self.ready_timeout_s}s"
        )

    async def _join(self, worker: _Worker, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while worker.process.exitcode is None:
            if time.monotonic() > deadline:
                worker.process.kill()  # drain hung past its grace
                deadline = time.monotonic() + 5.0
            await asyncio.sleep(0.05)

    async def _await_healthy(self, worker: _Worker,
                             timeout_s: float = 30.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                status, body = await fetch(
                    "127.0.0.1", worker.admin_port, "GET", "/health",
                    timeout_s=5.0,
                )
                if status == 200:
                    health = json.loads(body)
                    if health.get("status") in ("ok", "degraded"):
                        return
            except (OSError, asyncio.TimeoutError, ValueError):
                pass
            await asyncio.sleep(0.1)
        raise TimeoutError(
            f"worker {worker.index} did not turn healthy within {timeout_s}s"
        )

    async def _supervise(self) -> None:
        """Restart workers that die (kill -9, OOM, chaos faults)."""
        while True:
            await asyncio.sleep(0.2)
            for worker in self._workers:
                if worker.stopping or worker.dead:
                    continue
                if worker.alive:
                    if (
                        worker.attempts
                        and time.monotonic() - worker.started_at
                        > _STABLE_AFTER_S
                    ):
                        worker.attempts = 0  # survived: not a crash loop
                    continue
                if worker.process is None:
                    continue
                worker.restarts += 1
                try:
                    await self._spawn_worker(worker)
                except RuntimeError as exc:
                    print(
                        f"repro.serve.pool: giving up on worker "
                        f"{worker.index}: {exc}",
                        file=sys.stderr, flush=True,
                    )

    # -- the control plane ----------------------------------------------
    async def _handle_control(self, reader, writer) -> None:
        """Minimal keep-alive HTTP loop of the manager's control port."""
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    await write_response(
                        writer, exc.status, {"error": exc.message}, True
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                close_conn = headers.get("connection", "").lower() == "close"
                content_type = "application/json"
                try:
                    result = await self._control_dispatch(method, path, body)
                    status, payload = result[0], result[1]
                    if len(result) > 2:
                        content_type = result[2]
                except HttpError as exc:
                    status, payload = exc.status, {"error": exc.message}
                except Exception as exc:
                    status = 500
                    payload = {"error": f"{type(exc).__name__}: {exc}"}
                await write_response(
                    writer, status, payload, close_conn, content_type
                )
                if close_conn:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _live_workers(self) -> list[_Worker]:
        return [
            w for w in self._workers
            if w.alive and w.admin_port is not None
        ]

    async def _call_worker(
        self, worker: _Worker, method: str, path: str, body: bytes
    ) -> tuple[int, bytes]:
        """One manager->worker exchange with bounded retries.

        ``pool.route`` fires per attempt *before* the socket work, so an
        armed ``raise`` behaves exactly like a torn control channel and
        the retry loop is what recovers.
        """
        last_exc: Exception | None = None
        for attempt in range(1, _BROADCAST_ATTEMPTS + 1):
            try:
                faults.fire(POINT_ROUTE, path=path, worker=worker.index)
                return await fetch(
                    "127.0.0.1", worker.admin_port, method, path, body,
                    timeout_s=60.0,
                )
            except (OSError, asyncio.TimeoutError, RuntimeError) as exc:
                last_exc = exc
                if attempt < _BROADCAST_ATTEMPTS:
                    await asyncio.sleep(0.05 * attempt)
        raise ConnectionError(
            f"worker {worker.index} unreachable for {method} {path}: "
            f"{type(last_exc).__name__}: {last_exc}"
        )

    async def _broadcast(
        self, method: str, path: str, body: bytes
    ) -> tuple[list[tuple[int, int, bytes]], list[int]]:
        """Fan one control request out to every live worker.

        Returns ``(results, failed)`` where results are ``(worker_index,
        status, body)`` triples.  Sequential on purpose: a swap fan-out
        triggers a model rebuild per worker, and serializing them keeps
        peak load bounded on small hosts (control traffic is rare).
        """
        results, failed = [], []
        for worker in self._live_workers():
            try:
                status, data = await self._call_worker(
                    worker, method, path, body
                )
                results.append((worker.index, status, data))
            except ConnectionError:
                failed.append(worker.index)
        return results, failed

    async def _control_dispatch(self, method: str, path: str, body: bytes):
        path, _query = split_query(path)
        if path in ("/swap", "/rollback"):
            if method != "POST":
                raise HttpError(405, "use POST")
            return await self._fanout_json(method, path, body)
        if path == "/ab":
            if method == "POST":
                return await self._fanout_json(method, path, body)
            if method != "GET":
                raise HttpError(405, "use GET or POST")
            return await self._first_worker_response(method, path, body)
        if path == "/stats":
            if method != "GET":
                raise HttpError(405, "use GET")
            return 200, await self._aggregate_stats()
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, "use GET")
            return await self._aggregate_metrics()
        if path == "/health":
            if method != "GET":
                raise HttpError(405, "use GET")
            return 200, await self._aggregate_health()
        raise HttpError(404, f"no pool route for {path}")

    async def _fanout_json(self, method: str, path: str, body: bytes):
        """Broadcast a mutating control op; merge the worker responses.

        Workers answer independently, so the pool reply reports them all:
        the first success's body (they agree — same store, same spec
        hash) plus per-worker status and any unreachable workers.  A
        worker that missed the fan-out serves bit-identical answers from
        its older generation and converges at its next restart or swap.
        """
        results, failed = await self._broadcast(method, path, body)
        ok = [
            (idx, json.loads(data))
            for idx, status, data in results
            if status == 200
        ]
        errors = {
            str(idx): json.loads(data).get("error", f"status {status}")
            for idx, status, data in results
            if status != 200
        }
        if not ok:
            detail = errors or {"pool": "no live workers reachable"}
            return 502, {"error": "fan-out failed", "workers": detail}
        payload = dict(ok[0][1])
        payload["pool"] = {
            "applied": [idx for idx, _ in ok],
            "failed_status": errors,
            "unreachable": failed,
        }
        return 200, payload

    async def _first_worker_response(
        self, method: str, path: str, body: bytes
    ):
        """Read-only control op answered by the first reachable worker."""
        for worker in self._live_workers():
            try:
                status, data = await self._call_worker(
                    worker, method, path, body
                )
                return status, data, "application/json"
            except ConnectionError:
                continue
        raise HttpError(502, "no live workers reachable")

    async def _collect_worker_states(self) -> list[dict]:
        states = []
        for worker in self._live_workers():
            try:
                status, data = await self._call_worker(
                    worker, "GET", "/stats", b""
                )
            except ConnectionError:
                continue
            if status == 200:
                states.append(json.loads(data))
        return states

    async def _aggregate_stats(self) -> dict:
        """Pooled ``/stats``: merged counters + per-worker summary."""
        worker_states = await self._collect_worker_states()
        merged = merge_states([w["state"] for w in worker_states])
        snapshot = merged.snapshot()
        snapshot["pool"] = self._pool_info()
        snapshot["workers"] = [
            {
                "worker": w["worker"],
                "draining": w["draining"],
                "requests": w["state"]["requests"],
                "batches": w["state"]["batches"],
                "models_loaded": w["models_loaded"],
            }
            for w in worker_states
        ]
        return snapshot

    async def _aggregate_metrics(self):
        """Pooled ``/metrics``: one exposition over every worker.

        Counters sum; per-model queue depths sum.
        """
        worker_states = await self._collect_worker_states()
        merged = merge_states([w["state"] for w in worker_states])
        queue_depths: dict[str, int] = {}
        for state in worker_states:
            for key, depth in state.get("queue_depths", {}).items():
                queue_depths[key] = queue_depths.get(key, 0) + depth
        text = merged.render_prometheus(queue_depths=queue_depths)
        return (
            200,
            text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    async def _aggregate_health(self) -> dict:
        """Pool health: every worker's view plus supervision state."""
        workers = []
        worst = "ok"
        rank = {"ok": 0, "degraded": 1, "draining": 2, "restarting": 3}
        for worker in self._workers:
            if not worker.alive or worker.admin_port is None:
                entry = {"worker": worker.index, "status": "restarting"}
                if worker.dead:
                    entry["status"] = "dead"
                    worst = "degraded"
                workers.append(entry)
                worst = max(worst, "restarting", key=lambda s: rank.get(s, 1))
                continue
            try:
                status, data = await fetch(
                    "127.0.0.1", worker.admin_port, "GET", "/health",
                    timeout_s=5.0,
                )
                health = json.loads(data)
            except (OSError, asyncio.TimeoutError, ValueError):
                workers.append(
                    {"worker": worker.index, "status": "unreachable"}
                )
                worst = "degraded"
                continue
            workers.append(health)
            state = health.get("status", "degraded")
            worst = max(worst, state, key=lambda s: rank.get(s, 1))
        return {
            "status": worst,
            "workers": workers,
            "pool": self._pool_info(),
        }

    def _pool_info(self) -> dict:
        return {
            "workers": self.workers,
            "alive": sum(1 for w in self._workers if w.alive),
            "restarts": sum(w.restarts for w in self._workers),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }


# ----------------------------------------------------------------------
# Embedding and CLI entry points
# ----------------------------------------------------------------------
class PoolHandle:
    """A pool running on a background thread, with a blocking ``stop``."""

    def __init__(self, pool: WorkerPool, loop, thread, stop_event):
        self.pool = pool
        self._loop = loop
        self._thread = thread
        self._stop_event = stop_event

    @property
    def address(self) -> tuple[str, int]:
        return (self.pool.host, self.pool.port)

    def rolling_restart(self, timeout: float = 300.0) -> list[dict]:
        """Run a rolling restart from the calling thread (blocking)."""
        future = asyncio.run_coroutine_threadsafe(
            self.pool.rolling_restart(), self._loop
        )
        return future.result(timeout)

    def stop(self, timeout: float = 120.0) -> None:
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)

    def __enter__(self) -> "PoolHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_pool_in_thread(**pool_kwargs) -> PoolHandle:
    """Start a :class:`WorkerPool` on a daemon thread; wait until every
    worker is accepting (mirrors ``start_in_thread`` for one server)."""
    ready = threading.Event()
    holder: dict = {}

    async def main() -> None:
        pool = WorkerPool(**pool_kwargs)
        try:
            await pool.start()
        except Exception as exc:
            holder["error"] = exc
            ready.set()
            await pool.stop()
            return
        stop_event = asyncio.Event()
        holder["pool"] = pool
        holder["loop"] = asyncio.get_running_loop()
        holder["stop_event"] = stop_event
        ready.set()
        try:
            await stop_event.wait()
        finally:
            await pool.stop()

    def run() -> None:
        try:
            asyncio.run(main())
        except Exception as exc:  # pragma: no cover - defensive
            holder.setdefault("error", exc)
            ready.set()

    thread = threading.Thread(target=run, name="repro-serve-pool",
                              daemon=True)
    thread.start()
    ready.wait()
    if "error" in holder:
        raise holder["error"]
    return PoolHandle(
        holder["pool"], holder["loop"], thread, holder["stop_event"]
    )


async def run_pool_forever(**pool_kwargs) -> None:
    """CLI path: run the pool until interrupted; SIGHUP rolls the pool."""
    pool = WorkerPool(**pool_kwargs)
    await pool.start()
    loop = asyncio.get_running_loop()
    rolling: set[asyncio.Task] = set()
    stop = asyncio.Event()

    def roll() -> None:
        task = loop.create_task(pool.rolling_restart())
        rolling.add(task)
        task.add_done_callback(rolling.discard)

    try:
        loop.add_signal_handler(signal.SIGHUP, roll)
        # SIGTERM must reach the finally below: the default disposition
        # would kill this manager without stopping the pool, orphaning
        # the worker processes (their parent-death watchdog would catch
        # it, but a drain on our way out is the honest exit).
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
    except (NotImplementedError, AttributeError):  # pragma: no cover
        pass
    print(
        f"repro.serve pool listening on http://{pool.host}:{pool.port} "
        f"({pool.workers} workers, "
        f"control=127.0.0.1:{pool.manager_port}; SIGHUP = rolling restart)",
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        await pool.stop()

"""Seeded request generation and the HTTP load generator.

Everything a run sends is built here from the workload seed *before*
timing starts: request bodies are pre-encoded bytes and arrival times
are fixed offsets, so the generator's timed loop only sleeps, writes
bytes and reads bytes.  One process, at most ``nproc`` threads, one
blocking keep-alive socket per thread.
"""

from __future__ import annotations

import bisect
import json
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Fixed-width request tag, the first key of every body, so a traced
#: server can link its spans to the client's request by reading a few
#: bytes.  The server ignores unknown fields.
RID_WIDTH = 8


@dataclass
class Request:
    """One pre-encoded ``POST /predict``; ``rest`` may be shared bytes."""

    rid: int
    model: tuple[str, str]  # (dataset, format)
    rows: np.ndarray  # the float rows the body carries
    head: bytes  # HTTP head + the body's opening ``{"rid": ...,``
    rest: bytes  # the remainder of the body


def encode_request(rid: int, dataset: str, fmt: str, rows: np.ndarray,
                   rest: bytes | None = None) -> Request:
    """Build the request bytes; pass ``rest`` to reuse a bulk payload."""
    if rest is None:
        rest = encode_rest(dataset, fmt, rows)
    prefix = b'{"rid": "%0*d", ' % (RID_WIDTH, rid)
    head = (
        b"POST /predict HTTP/1.1\r\nHost: bench\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % (len(prefix) + len(rest))
    ) + prefix
    return Request(rid, (dataset, fmt), rows, head, rest)


def encode_rest(dataset: str, fmt: str, rows: np.ndarray) -> bytes:
    payload = json.dumps(
        {"dataset": dataset, "format": fmt, "inputs": rows.tolist()}
    )
    return payload[1:].encode("utf-8")  # drop "{": the prefix opens it


def rid_of(body: bytes) -> int | None:
    """The request tag of a body built by :func:`encode_request`."""
    if not body.startswith(b'{"rid": "'):
        return None
    digits = body[9:9 + RID_WIDTH]
    return int(digits) if digits.isdigit() else None


def poisson_offsets(rng: np.random.Generator, rate: float,
                    duration_s: float) -> np.ndarray:
    """Poisson arrivals at ``rate`` over the window, conditioned on the
    expected count: ``round(rate * duration)`` uniform order statistics.

    Fixing the count keeps the offered load identical across seeds, so
    only the arrival pattern varies.
    """
    count = max(1, round(rate * duration_s))
    return np.sort(rng.uniform(0.0, duration_s, size=count))


# ----------------------------------------------------------------------
class Connection:
    """A blocking keep-alive HTTP/1.1 client socket."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.addr = (host, port)
        self.timeout_s = timeout_s
        self.sock: socket.socket | None = None

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def roundtrip(self, head: bytes, rest: bytes = b"") -> tuple[int, bytes]:
        """Send one request, read one response: ``(status, body)``.

        A transport error answers ``(0, b"")`` and drops the socket; the
        next call reconnects.  Callers count status != 200 as failed.
        """
        try:
            if self.sock is None:
                self.sock = socket.create_connection(
                    self.addr, timeout=self.timeout_s
                )
                self.sock.setsockopt(socket.IPPROTO_TCP,
                                     socket.TCP_NODELAY, 1)
            if len(rest) < 16384:
                self.sock.sendall(head + rest)
            else:
                self.sock.sendall(head)
                self.sock.sendall(rest)
            return self._read_response()
        except (OSError, ValueError):
            self.close()
            return 0, b""

    def _read_response(self) -> tuple[int, bytes]:
        sock = self.sock
        buf = b""
        while b"\r\n\r\n" not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        head, _, body = buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        closing = False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                closing = value.strip().lower() == b"close"
        parts = [body]
        have = len(body)
        while have < length:
            chunk = sock.recv(max(65536, length - have))
            if not chunk:
                raise ConnectionError("server closed mid-body")
            parts.append(chunk)
            have += len(chunk)
        if closing:
            self.close()
        return status, b"".join(parts)


def get_json(host: str, port: int, path: str, timeout_s: float = 30.0):
    """One ``GET`` on a fresh connection; the decoded JSON body."""
    conn = Connection(host, port, timeout_s)
    try:
        status, body = conn.roundtrip(
            b"GET %s HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
            % path.encode("ascii")
        )
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Per-request timings (``perf_counter`` seconds) of one phase."""

    due: np.ndarray
    send: np.ndarray
    done: np.ndarray
    status: np.ndarray
    bodies: list
    backlog: list = field(default_factory=list)  # (offset_s, backlog)
    wall_s: float = 0.0

    @property
    def ok(self) -> np.ndarray:
        return self.status == 200

    def latencies_ms(self) -> np.ndarray:
        """Due-to-done latency of the successful requests."""
        ok = self.ok
        return (self.done[ok] - self.due[ok]) * 1000.0

    def lateness_ms(self) -> np.ndarray:
        """How late each request was sent relative to its due time."""
        return np.maximum(0.0, self.send - self.due) * 1000.0


def _empty_outcome(n: int) -> Outcome:
    return Outcome(
        due=np.zeros(n), send=np.zeros(n), done=np.zeros(n),
        status=np.zeros(n, dtype=np.int64), bodies=[None] * n,
    )


def run_open_loop(host: str, port: int, requests: list[Request],
                  offsets: np.ndarray, connections: int) -> Outcome:
    """Send ``requests[i]`` at ``offsets[i]`` over ``connections`` sockets.

    Each thread owns one keep-alive connection and takes the next
    unsent request in schedule order, sleeping until it is due; when
    every connection is busy, due requests wait in the generator and
    that wait is part of their latency (timed from the due time).
    """
    n = len(requests)
    out = _empty_outcome(n)
    taken = [0]
    lock = threading.Lock()
    offsets_list = [float(x) for x in offsets]
    t0 = time.perf_counter() + 0.02
    backlog_samples: list[list] = [[] for _ in range(connections)]

    def worker(slot: int) -> None:
        conn = Connection(host, port)
        samples = backlog_samples[slot]
        try:
            while True:
                with lock:
                    i = taken[0]
                    taken[0] += 1
                if i >= n:
                    return
                due = t0 + offsets_list[i]
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                    now = time.perf_counter()
                due_count = bisect.bisect_right(offsets_list, now - t0)
                samples.append((now - t0, max(0, due_count - i - 1)))
                req = requests[i]
                status, body = conn.roundtrip(req.head, req.rest)
                out.done[i] = time.perf_counter()
                out.due[i] = due
                out.send[i] = now
                out.status[i] = status
                out.bodies[i] = body
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(k,), daemon=True)
               for k in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    out.wall_s = float(out.done.max() - t0) if n else 0.0
    out.backlog = [s for per in backlog_samples for s in per]
    return out


def run_closed_loop(host: str, port: int, requests: list[Request],
                    seconds: float | None = None) -> Outcome:
    """One connection sending ``requests`` in order, back to back.

    With ``seconds`` it stops once that long has passed (after at least
    one request); running out of requests first is an error.  Without,
    it sends them all.
    """
    conn = Connection(host, port, timeout_s=120.0)
    due, done, status, bodies = [], [], [], []
    t0 = time.perf_counter()
    end = None if seconds is None else t0 + seconds
    try:
        for req in requests:
            start = time.perf_counter()
            if end is not None and start >= end and due:
                break
            code, body = conn.roundtrip(req.head, req.rest)
            done.append(time.perf_counter())
            due.append(start)
            status.append(code)
            bodies.append(body)
        else:
            if end is not None:
                raise RuntimeError("closed loop ran out of requests")
    finally:
        conn.close()
    due_arr = np.array(due)
    return Outcome(
        due=due_arr, send=due_arr.copy(), done=np.array(done),
        status=np.array(status, dtype=np.int64), bodies=bodies,
        wall_s=float(done[-1] - t0),
    )

"""Shared stdlib-only HTTP/1.1 plumbing for the serving tier.

One hand-rolled HTTP surface serves three callers: the public
:class:`~repro.serve.server.InferenceServer` handler, the pool manager's
control server (:mod:`repro.serve.pool`), and the in-process async client
(:func:`fetch`) those two use to talk to each other — worker → manager
forwarding and manager → worker control fan-out.  Keeping the parser/renderer here means every hop speaks
byte-identical HTTP and a framing fix lands everywhere at once.
"""

from __future__ import annotations

import asyncio
import json

__all__ = [
    "HttpError",
    "STATUS_TEXT",
    "MAX_BODY_BYTES",
    "read_request",
    "write_response",
    "split_query",
    "fetch",
]

#: Reject request bodies larger than this (a predict batch of millions of
#: rows should be sharded by the client, not buffered in one read).
MAX_BODY_BYTES = 32 * 1024 * 1024

STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class HttpError(Exception):
    """A handled request failure, rendered as a JSON error response."""

    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


def split_query(path: str) -> tuple[str, dict[str, str]]:
    """``/swap?local=1&x=y`` -> ``("/swap", {"local": "1", "x": "y"})``.

    The serving API only ever uses flat ``k=v`` pairs, so this stays a
    two-line split instead of pulling in ``urllib.parse`` on the hot path.
    """
    path, _, raw = path.partition("?")
    query: dict[str, str] = {}
    if raw:
        for pair in raw.split("&"):
            if pair:
                key, _, value = pair.partition("=")
                query[key] = value
    return path, query


async def read_request(reader):
    """Parse one request; ``(method, path, headers, body)`` or ``None`` on
    clean EOF between keep-alive requests.  Raises :class:`HttpError` for
    malformed framing (the caller answers and closes)."""
    # One read for the whole head (request line + headers): requests are
    # small, and a single ``readuntil`` keeps the per-request event loop
    # work minimal on the hot path.
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise
    except asyncio.LimitOverrunError:
        raise HttpError(400, "header block too large") from None
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    for raw in lines[1:]:
        if raw:
            name, _, value = raw.partition(":")
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise HttpError(400, "malformed Content-Length") from None
    if length < 0:
        raise HttpError(400, "malformed Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


async def write_response(
    writer, status, payload, close_conn,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> None:
    """Serialize + write one response (``payload`` may be pre-encoded
    bytes: bulk predict bodies and /metrics text arrive rendered)."""
    body = (
        payload
        if isinstance(payload, bytes)
        else json.dumps(payload).encode("utf-8")
    )
    extras = "".join(
        f"{name}: {value}\r\n"
        for name, value in (extra_headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close_conn else 'keep-alive'}\r\n"
        f"{extras}"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


async def fetch(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes | dict | None = None,
    timeout_s: float = 30.0,
) -> tuple[int, bytes]:
    """One-shot async HTTP exchange; ``(status, body_bytes)``.

    The control plane's transport: worker → manager forwarding and
    manager → worker fan-out both go through here.
    Connections are deliberately not reused — control traffic is rare and
    a fresh connection per exchange sidesteps stale-socket failure modes
    across process restarts.  Raises ``OSError`` / ``TimeoutError`` on
    connect/framing failures (callers decide retry policy).
    """
    if isinstance(body, dict):
        body = json.dumps(body).encode("utf-8")
    payload = body or b""
    request = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1") + payload

    async def exchange() -> tuple[int, bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(request)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split()
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"malformed status line from {host}:{port}: "
                    f"{status_line!r}"
                )
            status = int(parts[1])
            length = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            if length is None:  # Connection: close framing
                data = await reader.read()
            else:
                data = await reader.readexactly(length)
            return status, data
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    return await asyncio.wait_for(exchange(), timeout_s)

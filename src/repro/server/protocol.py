"""Wire protocol: 4-byte big-endian length prefix + UTF-8 JSON body.

One message per statement in each direction.  Requests are
``{"sql": "..."}``; responses are ``{"ok": true, "columns": [...],
"rows": [[...], ...]}`` or ``{"ok": false, "error": "...",
"error_type": "EngineError"}``.  JSON keeps the protocol inspectable
with ``nc``/``tcpdump`` and the framing makes message boundaries exact
regardless of TCP segmentation.

Distributed-tracing extensions (all optional, ignored by old peers):
a request may carry ``"trace_id"`` (a client-chosen id propagated into
the server-side request trace) and ``"trace": true`` (ship the span tree
back in the response).  Responses carry ``"trace_id"`` whenever tracing
is enabled server-side, and ``"trace"`` (the span tree as nested dicts)
when asked for.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from typing import Any, Dict, Tuple

#: refuse absurd frames (a corrupted length prefix would otherwise make
#: the reader try to allocate gigabytes)
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class ProtocolError(Exception):
    """Malformed frame or JSON on the wire."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """One framed message as raw bytes (length prefix included)."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message too large ({len(body)} bytes)")
    return _LEN.pack(len(body)) + body


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    sock.sendall(encode_message(message))


def send_frame(sock: socket.socket, frame: bytes) -> None:
    """Send bytes already framed by :func:`encode_message` (lets the
    server time encoding separately from the socket write)."""
    sock.sendall(frame)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection mid-message")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message_timed(
    sock: socket.socket,
) -> Tuple[Dict[str, Any], float]:
    """Read one framed message; raises ``ConnectionError`` on a clean
    close *between* messages too (callers treat that as disconnect).

    Also returns the seconds spent reading and decoding *after the frame
    header arrived* — i.e. excluding the idle wait for the next request,
    so the server can report it as the request's ``protocol.decode``
    span."""
    header = sock.recv(_LEN.size)
    if not header:
        raise ConnectionError("peer disconnected")
    start = time.perf_counter()
    if len(header) < _LEN.size:
        header += _recv_exact(sock, _LEN.size - len(header))
    (length,) = _LEN.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame length {length} exceeds maximum")
    body = _recv_exact(sock, length)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad message body: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message, time.perf_counter() - start


def recv_message(sock: socket.socket) -> Dict[str, Any]:
    """:func:`recv_message_timed` without the decode seconds."""
    return recv_message_timed(sock)[0]

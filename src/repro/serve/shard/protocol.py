"""Length-framed request/response frames between router and workers.

One frame is ``u32 payload-length || u32 CRC-32 || payload`` (network
byte order), the same framing discipline as the durability journal: a
fixed header that bounds the read, a checksum that catches a torn or
corrupted pipe, and a strict-JSON payload so every value survives the
hop bit-exactly (Python's JSON float encoding is shortest-round-trip,
so a predicted rate crosses the socket without losing a ULP).

The transport is a ``socket.socketpair()`` stream per worker.  All
errors funnel into :class:`ProtocolError` subclasses the router can
treat uniformly as "this worker is gone or lying": a half-closed pipe
(:class:`ConnectionClosed`, the usual symptom of a SIGKILLed worker), a
blown deadline (:class:`FrameTimeout`, the symptom of a hung one), or a
corrupt frame.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib

from repro.serve.durability.journal import unwire_float, wire_float

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ConnectionClosed",
    "FrameTimeout",
    "send_frame",
    "recv_frame",
    "wire_float",
    "unwire_float",
]

_HEADER = struct.Struct(">II")

# Hard frame bound: a predict batch of ~100k requests still fits, while a
# corrupted length field cannot make the receiver allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The peer sent something unusable (or nothing at all)."""


class ConnectionClosed(ProtocolError):
    """The peer's end of the pipe is gone — dead or exited worker."""


class FrameTimeout(ProtocolError):
    """No complete frame arrived within the deadline — hung worker."""


def send_frame(sock: socket.socket, payload: dict) -> None:
    """Frame and send one JSON payload (blocking, whole frame)."""
    data = json.dumps(
        payload, separators=(",", ":"), sort_keys=True, allow_nan=False
    ).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    try:
        sock.sendall(_HEADER.pack(len(data), zlib.crc32(data)) + data)
    except OSError as exc:
        raise ConnectionClosed(f"send failed: {exc!r}") from exc


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except socket.timeout as exc:
            raise FrameTimeout(
                f"no frame within {sock.gettimeout():g}s"
            ) from exc
        except OSError as exc:
            raise ConnectionClosed(f"recv failed: {exc!r}") from exc
        if not chunk:
            raise ConnectionClosed("peer closed the pipe mid-frame"
                                   if buf else "peer closed the pipe")
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket, timeout: float | None = None) -> dict:
    """Receive one complete frame; ``timeout`` bounds the whole read.

    ``timeout=None`` blocks forever (the worker loop's idle state);
    a finite timeout is the router's per-request deadline.
    """
    sock.settimeout(timeout)
    length, crc = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame header claims {length} bytes "
            f"(bound {MAX_FRAME_BYTES}) — corrupt stream"
        )
    data = _recv_exact(sock, length)
    if zlib.crc32(data) != crc:
        raise ProtocolError("frame CRC mismatch — corrupt stream")
    try:
        payload = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be an object, got {type(payload).__name__}"
        )
    return payload

"""Wire protocol between served LabFlow clients and the service.

One request, one response, newline-framed JSON — deliberately boring.
The interesting concurrency lives in the service core
(:mod:`repro.server.service_runner`); the communicator only has to be
unambiguous, deterministic (keys are sorted, so a captured exchange
byte-compares across runs) and strict: anything malformed raises
:class:`~repro.errors.ProtocolError` instead of guessing.

The server never blocks on a socket, so its framing is
:class:`FrameBuffer`: bytes go in as ``recv`` delivers them, complete
newline-terminated frames come out in order, and a line that runs past
:data:`MAX_MESSAGE_BYTES` with no newline is a protocol violation.  The
event loop keeps one per connection and takes every frame a ``recv``
completed, so a client may write several requests back to back and read
the replies in the same order.  :class:`Channel` is the blocking client
end: one request out, one line back.

Values must be JSON-representable (LabBase records are dicts, lists,
strings and numbers, so everything the served operations return
qualifies; tuples arrive back as lists).
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field

from repro.errors import ProtocolError

#: Hard cap on one encoded message; a line longer than this is a
#: protocol violation, not a workload.
MAX_MESSAGE_BYTES = 4 * 1024 * 1024

#: The most one ``recv`` asks the socket for.
RECV_BYTES = 64 * 1024

# json.dumps builds a JSONEncoder per call whenever a keyword is not at
# its default; every frame is encoded by this one.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


@dataclass(frozen=True)
class Request:
    """One client operation: ``op`` applied for session ``session``."""

    op: str
    session: str = ""
    args: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Response:
    """The service's answer: a value, or a typed error."""

    ok: bool
    value: object = None
    error: str = ""
    error_type: str = ""


def encode_request(request: Request) -> bytes:
    payload = {
        "op": request.op,
        "session": request.session,
        "args": request.args,
    }
    return _ENCODE(payload).encode("utf-8") + b"\n"


def decode_request(line: bytes) -> Request:
    payload = _decode_payload(line)
    op = payload.get("op")
    session = payload.get("session", "")
    args = payload.get("args", {})
    if not isinstance(op, str) or not op:
        raise ProtocolError("request has no operation name")
    if not isinstance(session, str):
        raise ProtocolError("request session must be a string")
    if not isinstance(args, dict):
        raise ProtocolError("request args must be an object")
    return Request(op=op, session=session, args=args)


def encode_response(response: Response) -> bytes:
    payload = {
        "ok": response.ok,
        "value": response.value,
        "error": response.error,
        "error_type": response.error_type,
    }
    return _ENCODE(payload).encode("utf-8") + b"\n"


def decode_response(line: bytes) -> Response:
    payload = _decode_payload(line)
    ok = payload.get("ok")
    if not isinstance(ok, bool):
        raise ProtocolError("response has no ok flag")
    return Response(
        ok=ok,
        value=payload.get("value"),
        error=str(payload.get("error", "")),
        error_type=str(payload.get("error_type", "")),
    )


def _decode_payload(line: bytes) -> dict[str, object]:
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # garbage, or nested too deep
        raise ProtocolError(f"undecodable message: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    return payload


class FrameBuffer:
    """What one connection has received and not yet taken off as frames."""

    def __init__(self) -> None:
        self._data = bytearray()
        self._scanned = 0  # no newline before this offset

    def __len__(self) -> int:
        return len(self._data)

    def room(self) -> int:
        """How much one more ``recv`` may ask for: never so much that an
        unterminated line is held beyond the cap before it is refused."""
        return min(RECV_BYTES, MAX_MESSAGE_BYTES + 1 - len(self._data))

    def feed(self, data: bytes) -> None:
        self._data += data

    def take(self) -> bytes | None:
        """Remove and return the next complete frame, newline included;
        ``None`` while only part of one has arrived.  Raises
        :class:`ProtocolError` once that part is longer than any frame
        may be."""
        data = self._data
        end = data.find(b"\n", self._scanned)
        if end < 0:
            if len(data) > MAX_MESSAGE_BYTES:
                raise ProtocolError(
                    f"unterminated message exceeds {MAX_MESSAGE_BYTES} bytes"
                )
            self._scanned = len(data)
            return None
        frame = bytes(data[: end + 1])
        del data[: end + 1]
        self._scanned = 0
        return frame


class Channel:
    """The blocking client end: one connected socket, one request out,
    one response back.

    ``recv_response`` returns ``None`` on a clean EOF (peer closed
    between frames) and raises :class:`ProtocolError` on garbage or on a
    peer that died mid-line.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")

    def send_request(self, request: Request) -> None:
        self._sock.sendall(encode_request(request))

    def recv_response(self) -> Response | None:
        line = self._reader.readline(MAX_MESSAGE_BYTES + 1)
        if not line:
            return None
        if not line.endswith(b"\n"):
            raise ProtocolError("unterminated message (peer died mid-line?)")
        return decode_response(line)

    def roundtrip(self, request: Request) -> Response:
        """One request, one response — the client-side exchange.

        A clean EOF here is an error, not an end: the client asked a
        question and the peer hung up instead of answering.
        """
        self.send_request(request)
        response = self.recv_response()
        if response is None:
            raise ProtocolError("server closed the connection mid-exchange")
        return response

    def close(self) -> None:
        # shutdown() first: closing alone does not unblock a thread
        # sitting in readline() on the makefile wrapper.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

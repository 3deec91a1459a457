"""Wire protocol between served LabFlow clients and the service.

One request, one response, each a length-prefixed binary frame: a
little-endian ``u32`` body length, then the body.  A request body is an
op-code byte, the session name (``u16`` length, UTF-8) and the op's
arguments; a response body is an ok byte and one tagged value, or, for
a refusal, the error's type and message.  DESIGN.md §13 has the full
table.

The eight data ops — the workflow units — are the rows of
:data:`DATA_OPS`, each written out once: its field layout (ints as
``i64``, strings with a ``u16`` length, ``involves`` as a counted ``i64``
array, ``results`` as one tagged value and ``create_material``'s
``state`` behind a presence byte), its lock kind and the LabBase method
it calls.  Each op's encoder and decoder are built from its row at
import; the service takes its lock choice, its dispatch and its argument
check from the same row.  Every admin op, and any request whose
arguments do not match its op's layout exactly (keys and types), carries
its arguments as one tagged value instead.  A tagged value is plain
data: ``None``, ``bool``, ``int`` (as text beyond ``i64``), ``float``,
``str``, lists (tuples arrive back as lists; a list of ints goes as one
packed ``i64`` array) and dicts with ``str`` keys, written in sorted key
order.  So the encoding is deterministic — a captured exchange
byte-compares across runs — and ``decode_request(encode_request(r)) ==
r`` for everything that is plain data.

Decoding is strict: anything malformed raises
:class:`~repro.errors.ProtocolError` and nothing else, every count is
checked against the bytes left before anything is built from it, and
nothing is ever unpickled.  Frames are the same bytes on every host.

The server never blocks on a socket, so its framing is
:class:`FrameBuffer`: bytes go in as ``recv`` delivers them, complete
frames come out in order, and a header announcing more than
:data:`MAX_MESSAGE_BYTES` is refused as soon as its four bytes are in.
The event loop keeps one per connection and takes every frame a
``recv`` completed, so a client may write several requests back to back
and read the replies in the same order.  :class:`Channel` is the
blocking client end: one request out, one frame back.
"""

from __future__ import annotations

import socket
import sys
from array import array
from struct import Struct
from struct import error as StructError
from typing import Callable, NamedTuple, Sequence, cast

from repro.errors import ProtocolError

#: Hard cap on one frame's body; a header announcing more is a protocol
#: violation, not a workload.
MAX_MESSAGE_BYTES = 4 * 1024 * 1024

#: The most one ``recv`` asks the socket for.
RECV_BYTES = 64 * 1024

#: How deeply lists and dicts may nest inside one tagged value.
MAX_DEPTH = 100

# Field kinds of a data op's fixed layout.
I64 = "i64"        # an int, as i64
S16 = "s16"        # a str: u16 length, then UTF-8
OPT_S16 = "s16?"   # None or a str: a presence byte, then an s16 if present
I64S = "i64[]"     # a list of ints: u32 count, then count x i64
VALUE = "value"    # one tagged plain-data value


class DataOp(NamedTuple):
    """One data op -- a workflow unit -- written out once: the wire
    codec, the service's argument check, lock choice and dispatch all
    read it.  ``fields`` is the layout, ``(name, kind)`` in wire order;
    the names are the request's keys and the parameters of ``method``,
    the LabBase method the unit calls.  An ``update`` joins the commit
    group and locks the oids in its ``locks`` field EXCLUSIVE; a query
    checks that field's pages for another session's pending writer; a
    row whose ``locks`` is ``None`` touches no lock.
    """

    name: str
    fields: tuple[tuple[str, str], ...]
    update: bool
    locks: str | None
    method: str


#: The data ops, in op-code order from 1.
DATA_OPS = (
    DataOp("create_material", (
        ("class_name", S16), ("key", S16), ("valid_time", I64), ("state", OPT_S16),
    ), True, None, "create_material"),
    DataOp("record_step", (
        ("class_name", S16), ("valid_time", I64), ("involves", I64S),
        ("results", VALUE),
    ), True, "involves", "record_step"),
    DataOp("set_state", (
        ("material_oid", I64), ("state", S16), ("valid_time", I64),
    ), True, "material_oid", "set_state"),
    DataOp("most_recent", (("material_oid", I64), ("attribute", S16)),
           False, "material_oid", "most_recent"),
    DataOp("state_of", (("material_oid", I64),), False, "material_oid", "state_of"),
    DataOp("lookup", (("class_name", S16), ("key", S16)), False, None, "lookup"),
    DataOp("in_state", (("state", S16),), False, None, "in_state"),
    DataOp("history_len", (("material_oid", I64),),
           False, "material_oid", "history_length"),
)

#: The op codes, from 1: the data ops, then the admin ops.
OPS = tuple(row.name for row in DATA_OPS) + (
    "ping", "bye", "open_session", "close_session", "drain", "stats",
    "sample", "verify",
)
_CODES = {op: code for code, op in enumerate(OPS, 1)}

#: Op code 0: an op outside the table, named by a ``u16`` string and
#: followed by a tagged body (the service answers it with a refusal).
_NAMED = 0
#: Set on a data op's code when its arguments come as a tagged body.
_TAGGED = 0x80

# Value tags.
T_NONE, T_FALSE, T_TRUE, T_INT, T_BIGINT, T_FLOAT, T_STR, T_LIST, T_DICT, T_INTS = (
    range(10)
)

_U16 = Struct("<H")
_U32 = Struct("<I")
_I64 = Struct("<q")
_TAG_I64 = Struct("<Bq")
_F64 = Struct("<d")
_TAG_F64 = Struct("<Bd")
_TAG_U32 = Struct("<BI")
_OK_INT = Struct("<IBBq")    # a whole ``ok`` frame answering one int
_OK_STR = Struct("<IBBI")    # the head of one answering a string
_OK_NONE = _U32.pack(2) + bytes((1, T_NONE))

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
#: ``array`` speaks the host's byte order; frames speak little-endian.
_SWAP = sys.byteorder == "big"

#: What running off the end of a frame, or bad UTF-8, raises inside the
#: decoders; the public functions turn it into a ProtocolError.
_MALFORMED = (IndexError, StructError, UnicodeDecodeError)


class Request:
    """One client operation: ``op`` applied for session ``session``."""

    __slots__ = ("op", "session", "args")

    def __init__(
        self, op: str, session: str = "", args: dict[str, object] | None = None
    ) -> None:
        self.op = op
        self.session = session
        self.args: dict[str, object] = {} if args is None else args

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Request):
            return NotImplemented
        return (
            self.op == other.op
            and self.session == other.session
            and self.args == other.args
        )

    def __repr__(self) -> str:
        return (
            f"Request(op={self.op!r}, session={self.session!r}, "
            f"args={self.args!r})"
        )


class Response:
    """The service's answer: a value, or a typed error."""

    __slots__ = ("ok", "value", "error", "error_type")

    def __init__(
        self,
        ok: bool,
        value: object = None,
        error: str = "",
        error_type: str = "",
    ) -> None:
        self.ok = ok
        self.value = value
        self.error = error
        self.error_type = error_type

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Response):
            return NotImplemented
        return (
            self.ok == other.ok
            and self.value == other.value
            and self.error == other.error
            and self.error_type == other.error_type
        )

    def __repr__(self) -> str:
        return (
            f"Response(ok={self.ok!r}, value={self.value!r}, "
            f"error={self.error!r}, error_type={self.error_type!r})"
        )


# -- encoding ----------------------------------------------------------------


def encode_request(request: Request) -> bytes:
    """The whole frame, header included."""
    op = request.op
    args = request.args
    code = _CODES.get(op, _NAMED)
    session = _str16(request.session)
    encode = _ENCODERS.get(code)
    if encode is not None:
        try:
            return encode(session, args)
        except _Misfit:
            code |= _TAGGED
    parts = [b"", bytes((code,)), session]
    if code == _NAMED:
        parts.append(_str16(op))
    _put_value(args, parts, 0)
    parts[0] = _U32.pack(sum(map(len, parts)))
    return b"".join(parts)


def encode_response(response: Response) -> bytes:
    """The whole frame, header included."""
    value = response.value
    if response.ok:
        if type(value) is int and _I64_MIN <= value <= _I64_MAX:
            return _OK_INT.pack(10, 1, T_INT, value)
        if value is None:
            return _OK_NONE
        if type(value) is str:
            data = _utf8(value)
            return _OK_STR.pack(6 + len(data), 1, T_STR, len(data)) + data
        parts = [b"", b"\x01"]
    else:
        error = _utf8(response.error)
        parts = [
            b"", b"\x00", _str16(response.error_type),
            _U32.pack(len(error)), error,
        ]
    _put_value(value, parts, 0)
    parts[0] = _U32.pack(sum(map(len, parts)))
    return b"".join(parts)


def _utf8(text: str) -> bytes:
    try:
        return text.encode()
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise ProtocolError(f"cannot encode {text!r}: {exc}") from exc


def _str16(text: str) -> bytes:
    try:
        return _s16(text)
    except _Misfit:
        raise ProtocolError(f"{text!r} does not fit a u16-length string") from None


def _put_value(value: object, parts: list[bytes], depth: int) -> None:
    """Append one tagged value's encoding to ``parts``."""
    if value is None:
        parts.append(b"\x00")
    elif value is True:
        parts.append(b"\x02")
    elif value is False:
        parts.append(b"\x01")
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            parts.append(_TAG_I64.pack(T_INT, value))
        else:
            text = str(int(value)).encode()
            parts += (_TAG_U32.pack(T_BIGINT, len(text)), text)
    elif isinstance(value, float):
        parts.append(_TAG_F64.pack(T_FLOAT, value))
    elif isinstance(value, str):
        data = _utf8(value)
        parts += (_TAG_U32.pack(T_STR, len(data)), data)
    elif isinstance(value, (list, tuple)):
        if depth >= MAX_DEPTH:
            raise ProtocolError(f"values nest deeper than {MAX_DEPTH}")
        packed = _packed_ints(value) if value else None
        if packed is not None:
            parts += (_TAG_U32.pack(T_INTS, len(value)), packed)
            return
        parts.append(_TAG_U32.pack(T_LIST, len(value)))
        for item in value:
            _put_value(item, parts, depth + 1)
    elif isinstance(value, dict):
        if depth >= MAX_DEPTH:
            raise ProtocolError(f"values nest deeper than {MAX_DEPTH}")
        if not all(isinstance(key, str) for key in value):
            raise ProtocolError("dict keys must be strings")
        parts.append(_TAG_U32.pack(T_DICT, len(value)))
        for key in sorted(value):
            data = _utf8(key)
            parts += (_U32.pack(len(data)), data)
            _put_value(value[key], parts, depth + 1)
    else:
        raise ProtocolError(f"cannot encode a {type(value).__name__}")


def _packed_ints(values: Sequence[object]) -> bytes | None:
    """Plain ints as little-endian ``i64`` bytes; ``None`` for anything
    else."""
    for item in values:
        if type(item) is not int:
            return None
    try:
        packed = array("q", cast("Sequence[int]", values))
    except OverflowError:
        return None
    if _SWAP:
        packed.byteswap()
    return packed.tobytes()


# A data op's fixed fields: one encoder per kind, which raises _Misfit
# when a value does not fit its field (the request then goes with a
# tagged body).


class _Misfit(Exception):
    """A value does not fit its fixed field."""


def _i64(value: object) -> bytes:
    if type(value) is int and _I64_MIN <= value <= _I64_MAX:
        return _I64.pack(value)
    raise _Misfit


def _s16(value: object) -> bytes:
    if type(value) is not str:
        raise _Misfit
    try:
        data = value.encode()
    except UnicodeEncodeError:
        raise _Misfit from None
    if len(data) > 0xFFFF:
        raise _Misfit
    return _U16.pack(len(data)) + data


def _opt_s16(value: object) -> bytes:
    return b"\x00" if value is None else b"\x01" + _s16(value)


def _i64s(value: object) -> bytes:
    if type(value) is not list:
        raise _Misfit
    packed = _packed_ints(value)
    if packed is None:
        raise _Misfit
    return _U32.pack(len(value)) + packed


def _value(value: object) -> bytes:
    parts: list[bytes] = []
    _put_value(value, parts, 0)
    return b"".join(parts)


_PUT: dict[str, Callable[[object], bytes]] = {
    I64: _i64, S16: _s16, OPT_S16: _opt_s16, I64S: _i64s, VALUE: _value,
}

def _encoder(
    code: int, fields: tuple[tuple[str, str], ...]
) -> Callable[[bytes, dict[str, object]], bytes]:
    """A data op's whole frame, from the encoded session and the args,
    which must have exactly the op's keys."""
    head = bytes((code,))
    keys = dict.fromkeys(name for name, _kind in fields).keys()
    puts = tuple((name, _PUT[kind]) for name, kind in fields)

    def encode(session: bytes, args: dict[str, object]) -> bytes:
        if args.keys() != keys:
            raise _Misfit
        body = head + session
        for name, put in puts:
            body += put(args[name])
        return _U32.pack(len(body)) + body

    return encode


_ENCODERS = {
    code: _encoder(code, row.fields) for code, row in enumerate(DATA_OPS, 1)
}


# -- decoding ----------------------------------------------------------------


def decode_request(frame: bytes) -> Request:
    """A whole frame, header included, back into its :class:`Request`."""
    try:
        end = _body_end(frame)
        code = frame[4]
        session, pos = _take_s16(frame, 5)
        decode = _DECODERS.get(code)
        if decode is None:
            raise ProtocolError(f"unknown op code {code}")
        op, args, pos = decode(frame, pos)
    except _MALFORMED as exc:
        raise ProtocolError(f"malformed request: {exc}") from exc
    if pos != end:
        raise ProtocolError(f"{end - pos} bytes left over after a {op} request")
    return Request(op, session, args)


def decode_response(frame: bytes) -> Response:
    """A whole frame, header included, back into its :class:`Response`."""
    try:
        end = _body_end(frame)
        ok = frame[4]
        if ok == 1:
            if end == 14 and frame[5] == T_INT:
                return Response(True, _I64.unpack_from(frame, 6)[0])
            value, pos = _take_value(frame, 5, 0)
            response = Response(True, value)
        elif ok == 0:
            error_type, pos = _take_s16(frame, 5)
            error, pos = _take_str(frame, pos)
            value, pos = _take_value(frame, pos, 0)
            response = Response(False, value, error, error_type)
        else:
            raise ProtocolError(f"response has no ok flag (got {ok})")
    except _MALFORMED as exc:
        raise ProtocolError(f"malformed response: {exc}") from exc
    if pos != end:
        raise ProtocolError(f"{end - pos} bytes left over after a response")
    return response


def _body_end(frame: bytes) -> int:
    """Check the header against the frame; returns the frame's length."""
    size = len(frame)
    if size < 5:
        raise ProtocolError(f"a {size}-byte frame is too short")
    (length,) = _U32.unpack_from(frame)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
    if length != size - 4:
        raise ProtocolError(
            f"frame header says {length} bytes, the frame holds {size - 4}"
        )
    return size


def _check_count(frame: bytes, pos: int, count: int, item_bytes: int) -> None:
    """Refuse a count before anything is built from it: ``count`` items
    of at least ``item_bytes`` each must fit in what is left."""
    left = len(frame) - pos
    if count * item_bytes > left:
        raise ProtocolError(
            f"a count of {count} needs {count * item_bytes} bytes, "
            f"{left} are left"
        )


def _take_s16(frame: bytes, pos: int) -> tuple[str, int]:
    (size,) = _U16.unpack_from(frame, pos)
    pos += 2
    _check_count(frame, pos, size, 1)
    end = pos + size
    return frame[pos:end].decode(), end


def _take_str(frame: bytes, pos: int) -> tuple[str, int]:
    (size,) = _U32.unpack_from(frame, pos)
    pos += 4
    _check_count(frame, pos, size, 1)
    end = pos + size
    return frame[pos:end].decode(), end


def _take_ints(frame: bytes, pos: int) -> tuple[list[int], int]:
    (count,) = _U32.unpack_from(frame, pos)
    pos += 4
    _check_count(frame, pos, count, 8)
    end = pos + 8 * count
    values = array("q", frame[pos:end])
    if _SWAP:
        values.byteswap()
    return values.tolist(), end


def _take_value(frame: bytes, pos: int, depth: int = 0) -> tuple[object, int]:
    tag = frame[pos]
    pos += 1
    if tag == T_INT:
        return _I64.unpack_from(frame, pos)[0], pos + 8
    if tag == T_STR:
        return _take_str(frame, pos)
    if tag == T_NONE:
        return None, pos
    if tag == T_INTS:
        return _take_ints(frame, pos)
    if tag == T_DICT or tag == T_LIST:
        if depth >= MAX_DEPTH:
            raise ProtocolError(f"values nest deeper than {MAX_DEPTH}")
        (count,) = _U32.unpack_from(frame, pos)
        pos += 4
        if tag == T_LIST:
            _check_count(frame, pos, count, 1)  # a tag at least
            items = []
            for _ in range(count):
                item, pos = _take_value(frame, pos, depth + 1)
                items.append(item)
            return items, pos
        _check_count(frame, pos, count, 5)  # a key's length and a tag
        mapping: dict[str, object] = {}
        previous = None
        for _ in range(count):
            key, pos = _take_str(frame, pos)
            if previous is not None and key <= previous:
                raise ProtocolError("dict keys must be sorted and distinct")
            previous = key
            mapping[key], pos = _take_value(frame, pos, depth + 1)
        return mapping, pos
    if tag == T_FALSE or tag == T_TRUE:
        return tag == T_TRUE, pos
    if tag == T_FLOAT:
        return _F64.unpack_from(frame, pos)[0], pos + 8
    if tag == T_BIGINT:
        text, pos = _take_str(frame, pos)
        digits = text[1:] if text[:1] == "-" else text
        if not (digits.isascii() and digits.isdigit()):
            raise ProtocolError(f"{text!r} is not an integer")
        try:
            return int(text), pos
        except ValueError as exc:  # past the interpreter's digit limit
            raise ProtocolError(f"integer text: {exc}") from exc
    raise ProtocolError(f"unknown value tag {tag}")


def _take_i64(frame: bytes, pos: int) -> tuple[int, int]:
    return _I64.unpack_from(frame, pos)[0], pos + 8


def _take_opt_s16(frame: bytes, pos: int) -> tuple[str | None, int]:
    present = frame[pos]
    if present == 0:
        return None, pos + 1
    if present != 1:
        raise ProtocolError(f"presence byte {present}")
    return _take_s16(frame, pos + 1)


_TAKE: dict[str, Callable[[bytes, int], tuple[object, int]]] = {
    I64: _take_i64, S16: _take_s16, OPT_S16: _take_opt_s16, I64S: _take_ints,
    VALUE: _take_value,
}

# One decoder per op code: ``(op, args, end)`` from the bytes after the
# session name.

_Decoder = Callable[[bytes, int], tuple[str, dict[str, object], int]]


def _decoder(op: str, fields: tuple[tuple[str, str], ...]) -> _Decoder:
    """A data op's fixed fields, in layout order."""
    takes = tuple((name, _TAKE[kind]) for name, kind in fields)

    def decode(frame: bytes, pos: int) -> tuple[str, dict[str, object], int]:
        args: dict[str, object] = {}
        for name, take in takes:
            args[name], pos = take(frame, pos)
        return op, args, pos

    return decode


def _tagged(op: str) -> _Decoder:
    def decode(frame: bytes, pos: int) -> tuple[str, dict[str, object], int]:
        args, pos = _take_value(frame, pos, 0)
        if not isinstance(args, dict):
            raise ProtocolError("request args must be an object")
        return op, args, pos

    return decode


def _named(frame: bytes, pos: int) -> tuple[str, dict[str, object], int]:
    op, pos = _take_s16(frame, pos)
    if not op:
        raise ProtocolError("request has no operation name")
    if op in _CODES:
        raise ProtocolError(f"{op} has an op code of its own")
    return _tagged(op)(frame, pos)


_DECODERS: dict[int, _Decoder] = {
    **{code: _decoder(row.name, row.fields) for code, row in enumerate(DATA_OPS, 1)},
    **{
        code | (_TAGGED if code in _ENCODERS else 0): _tagged(op)
        for op, code in _CODES.items()
    },
    _NAMED: _named,
}


# -- transport ---------------------------------------------------------------


class FrameBuffer:
    """What one connection has received and not yet taken off as frames."""

    def __init__(self) -> None:
        self._data = bytearray()

    def __len__(self) -> int:
        return len(self._data)

    def feed(self, data: bytes) -> None:
        self._data += data

    def take(self) -> bytes | None:
        """Remove and return the next complete frame, header included;
        ``None`` while only part of one has arrived.  Raises
        :class:`ProtocolError` as soon as a header announces more than
        any frame may hold."""
        data = self._data
        have = len(data)
        if have < 4:
            return None
        (length,) = _U32.unpack_from(data)
        if length > MAX_MESSAGE_BYTES:
            raise ProtocolError(
                f"frame header announces {length} bytes; "
                f"a message may not exceed {MAX_MESSAGE_BYTES}"
            )
        end = 4 + length
        if have == end:  # the common case: one recv, one frame
            frame = bytes(data)
            data.clear()
            return frame
        if have < end:
            return None
        frame = bytes(data[:end])
        del data[:end]
        return frame


class Channel:
    """The blocking client end: one connected socket, one request out,
    one response back.

    ``recv_response`` returns ``None`` on a clean EOF (peer closed
    between frames) and raises :class:`ProtocolError` on garbage or on a
    peer that died mid-frame.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")

    def send_request(self, request: Request) -> None:
        self._sock.sendall(encode_request(request))

    def recv_response(self) -> Response | None:
        header = self._reader.read(4)
        if not header:
            return None
        if len(header) < 4:
            raise ProtocolError("truncated frame (peer died mid-frame?)")
        (length,) = _U32.unpack(header)
        if length > MAX_MESSAGE_BYTES:
            raise ProtocolError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
        body = self._reader.read(length)
        if len(body) < length:
            raise ProtocolError("truncated frame (peer died mid-frame?)")
        return decode_response(header + body)

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
        # sitting in a read on the makefile wrapper.
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

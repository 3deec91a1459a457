"""Schema-aware record codec for the storage managers.

Every record a storage manager persists used to be a raw pickle.  That
is compact-ish for open-schema plain data, but the three closed-schema
record kinds LabBase writes on the hot path (``sm_step``,
``sm_material`` and history-chunk nodes — see ``repro/labbase/model.py``)
pay for their dict keys, their ``kind`` string and every repeated
attribute name on every single record.  This module adds a fixed-layout
binary encoding for exactly those three kinds, dispatched by a one-byte
tag, with pickle protocol 4 kept as the fallback for everything else:

==========  ============================================================
first byte  payload
==========  ============================================================
``0x80``    a raw pickle (protocol 4 always starts with the PROTO
            opcode ``0x80``) — the legacy wire format and what the
            ``pickle`` codec mode still writes, byte-for-byte
``0x00``    fallback: the rest of the payload is a pickle of an
            open-schema plain-data record
``0x01``    ``sm_step`` fast path
``0x02``    ``sm_material`` fast path
``0x03``    ``history_node`` fast path
``0x04``    a zlib-deflated envelope around any of the above (only
            emitted when a large payload actually shrinks)
``0x05``    open-schema plain data in the codec's own value grammar
==========  ============================================================

Anything else is a corrupt record and raises :class:`StorageError`.
Because decode dispatches on the tag, *any* codec mode can read *any*
record: a database written under ``pickle`` reopens fine under ``labf``
and vice versa — new writes simply use the mode's encoding.

Fast-path layouts drop the dict keys entirely (field order is fixed by
the schema), encode attribute names as varint ids into a
per-storage-manager **intern table** (persisted with the meta blob, so
dynamic schema evolution keeps working across reopen), memoize repeated
strings within one record the way pickle's memo does, pack small ints
and short strings into single-byte-tagged forms, and delta-code
all-int lists (history chains are ascending oid runs).  A record whose
shape deviates from the closed schema in any way falls back to the
tagged pickle, so the codec never changes what round-trips or which
records are rejected — only how many bytes they take.  The closed
schemas double as the validator: fast-path records never pay the
recursive ``validate_plain_data`` walk, because the grammar encodes
precisely the values it would accept.  (``0x05`` wraps a bare value in
the same grammar; the encoder currently reserves it — open-schema hot
records are int-heavy containers that C pickle handles faster — but
decode accepts it as a first-class record tag.)

Determinism matches pickle's: plain data encodes bit-identically within
a process, and ``set``/``frozenset`` iteration order is the only
nondeterministic input (exactly as it is for ``pickle.dumps``).
Decode accepts ``bytes``, ``bytearray`` and ``memoryview`` without
copying the payload (deflated envelopes necessarily copy on inflate;
they only wrap records too large to sit in one page-hot slot anyway).
"""

from __future__ import annotations

import pickle
import struct
import zlib

from repro.errors import StorageError
from repro.storage.serializer import validate_plain_data
from repro.storage.stats import StorageStats

#: Codec modes a storage manager can be opened with.
CODEC_NAMES: tuple[str, ...] = ("labf", "pickle")
DEFAULT_CODEC: str = "labf"

#: One-byte wire tags (``0x80`` is pickle's own PROTO opcode).
TAG_PICKLE_RAW = 0x80
TAG_PICKLE = 0x00
TAG_STEP = 0x01
TAG_MATERIAL = 0x02
TAG_HISTORY_NODE = 0x03
TAG_DEFLATE = 0x04
TAG_PLAIN = 0x05

#: Payloads at least this long are candidates for the deflate envelope.
#: Hot records (materials, index entries) stay well under it, so
#: reading them never pays an inflate; single-sequence steps
#: (~0.5 KB) also skip it — deflating them costs more wall per record
#: than the page savings return.
COMPRESS_MIN_BYTES = 512

#: Deterministic deflate level (speed-biased; record bodies are small
#: and level 1 already takes sequence data down ~2.4x).
_COMPRESS_LEVEL = 1

# The closed-schema kind literals.  These mirror repro/labbase/model.py;
# they are duplicated here because the storage layer sits *below*
# LabBase and must not import it (the wire format is a spec, not a
# runtime dependency).
_KIND_STEP = "sm_step"
_KIND_MATERIAL = "sm_material"
_KIND_HISTORY_NODE = "history_node"

_STEP_KEYS = frozenset(
    ("kind", "class_version", "valid_time", "results", "involves")
)
_MATERIAL_KEYS = frozenset(
    ("kind", "class_name", "key", "created", "history_head",
     "history_len", "recent", "state", "state_since")
)
_HISTORY_KEYS = frozenset(("kind", "step_oids", "next"))

# Value-encoding type tags (the recursive plain-data grammar).  Tags
# 0x10..0xCF carry a small int directly (value = tag - _V_SMALL_BIAS)
# and 0xD0..0xEF a short string (length = tag - _V_SHORTSTR).
_V_NONE = 0x00
_V_TRUE = 0x01
_V_FALSE = 0x02
_V_INT = 0x03
_V_FLOAT = 0x04
_V_STR = 0x05
_V_BYTES = 0x06
_V_LIST = 0x07
_V_TUPLE = 0x08
_V_DICT = 0x09
_V_SET = 0x0A
_V_FROZENSET = 0x0B
_V_STRREF = 0x0D  # backref into the per-record string memo
_V_INTLIST = 0x0E  # non-empty all-int list, delta-coded
_V_DICTLIST = 0x0F  # list of >= 2 dicts sharing one key row

_V_SMALL_MIN = 0x10
_V_SMALL_BIAS = 0x30  # tag 0x10..0xCF -> int -32..159
_V_SHORTSTR = 0xD0    # tag 0xD0..0xEF -> str of byte length 0..31
_V_SHORTSTR_END = 0xF0

#: Same bound as ``validate_plain_data`` — the fast path must reject
#: exactly what the pickle path rejects.
_MAX_DEPTH = 100

#: Strings shorter than this are cheaper to re-emit than to memoize.
_MEMO_MIN_CHARS = 2

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from


class _Unencodable(Exception):
    """Internal: the record's shape deviates from the closed schema.

    Raised mid-fast-path to abandon the layout encoding; the caller
    falls back to the tagged pickle (which validates and either encodes
    the record or raises the same ``StorageError`` pickle mode would).
    """


# ---------------------------------------------------------------------------
# varints
# ---------------------------------------------------------------------------


def _append_uvarint(out: bytearray, value: int) -> None:
    """LEB128-style unsigned varint (7 bits per byte, MSB continues)."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _append_svarint(out: bytearray, value: int) -> None:
    """Zigzag-mapped signed varint; handles arbitrary-precision ints."""
    if value >= 0:
        value <<= 1
    else:
        value = ((-value) << 1) - 1
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(view: "bytes | memoryview", pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = view[pos]  # IndexError on truncation; decode() translates
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _read_svarint(view: "bytes | memoryview", pos: int) -> tuple[int, int]:
    raw, pos = _read_uvarint(view, pos)
    if raw & 1:
        return -((raw + 1) >> 1), pos
    return raw >> 1, pos


# ---------------------------------------------------------------------------
# the recursive plain-data value grammar
# ---------------------------------------------------------------------------


def _append_str(out: bytearray, text: str, memo: dict[str, int]) -> None:
    ref = memo.get(text)
    if ref is not None:
        out.append(_V_STRREF)
        _append_uvarint(out, ref)
        return
    data = text.encode("utf-8")
    size = len(data)
    if size < 32:
        out.append(_V_SHORTSTR + size)
    else:
        out.append(_V_STR)
        _append_uvarint(out, size)
    out += data
    if len(text) >= _MEMO_MIN_CHARS:
        memo[text] = len(memo)


def _append_value(
    out: bytearray, value: object, memo: dict[str, int], depth: int
) -> None:
    """Encode one plain-data value; :class:`_Unencodable` on anything else.

    Exact-type dispatch: subclasses of the plain types would survive a
    pickle round-trip as their subclass, which the layout cannot
    represent — they take the fallback instead.  The depth bound is
    checked at entry for *every* value, exactly like
    ``validate_plain_data``, so the grammar accepts precisely the values
    the pickle path would accept.
    """
    if depth > _MAX_DEPTH:
        raise _Unencodable
    cls = type(value)
    if cls is int:
        if -32 <= value < 160:  # type: ignore[operator]
            out.append(value + _V_SMALL_BIAS)  # type: ignore[arg-type]
        else:
            out.append(_V_INT)
            _append_svarint(out, value)  # type: ignore[arg-type]
        return
    if cls is str:
        _append_str(out, value, memo)  # type: ignore[arg-type]
        return
    if value is None:
        out.append(_V_NONE)
    elif value is True:
        out.append(_V_TRUE)
    elif value is False:
        out.append(_V_FALSE)
    elif cls is float:
        out.append(_V_FLOAT)
        out += _pack_double(value)
    elif cls is list:
        items = value  # type: ignore[assignment]
        count = len(items)  # type: ignore[arg-type]
        if count and all(type(item) is int for item in items):  # type: ignore[union-attr]
            out.append(_V_INTLIST)
            if count < 0x80:
                out.append(count)
            else:
                _append_uvarint(out, count)
            previous = 0
            for item in items:  # type: ignore[union-attr]
                delta = item - previous
                previous = item
                enc = delta << 1 if delta >= 0 else ((-delta) << 1) - 1
                while enc > 0x7F:
                    out.append((enc & 0x7F) | 0x80)
                    enc >>= 7
                out.append(enc)
        elif (
            count >= 2
            and depth < _MAX_DEPTH  # the element dicts sit at depth + 1
            and type(items[0]) is dict  # type: ignore[index]
            and all(
                type(item) is dict and list(item) == list(items[0])  # type: ignore[index]
                for item in items  # type: ignore[union-attr]
            )
        ):
            # Uniform rows (e.g. BLAST hit lists): one key row, then
            # values only — dict keys are not re-encoded per element.
            out.append(_V_DICTLIST)
            if count < 0x80:
                out.append(count)
            else:
                _append_uvarint(out, count)
            keys = list(items[0])  # type: ignore[index]
            _append_uvarint(out, len(keys))
            for key in keys:
                _append_value(out, key, memo, depth + 2)
            for item in items:  # type: ignore[union-attr]
                for cell in item.values():
                    _append_value(out, cell, memo, depth + 2)
        else:
            out.append(_V_LIST)
            if count < 0x80:
                out.append(count)
            else:
                _append_uvarint(out, count)
            for item in items:  # type: ignore[union-attr]
                _append_value(out, item, memo, depth + 1)
    elif cls is dict:
        out.append(_V_DICT)
        count = len(value)  # type: ignore[arg-type]
        if count < 0x80:
            out.append(count)
        else:
            _append_uvarint(out, count)
        for key, item in value.items():  # type: ignore[attr-defined]
            _append_value(out, key, memo, depth + 1)
            _append_value(out, item, memo, depth + 1)
    elif cls is tuple:
        out.append(_V_TUPLE)
        count = len(value)  # type: ignore[arg-type]
        if count < 0x80:
            out.append(count)
        else:
            _append_uvarint(out, count)
        for item in value:  # type: ignore[attr-defined]
            _append_value(out, item, memo, depth + 1)
    elif cls is bytes:
        out.append(_V_BYTES)
        _append_uvarint(out, len(value))  # type: ignore[arg-type]
        out += value  # type: ignore[arg-type]
    elif cls is set:
        out.append(_V_SET)
        _append_uvarint(out, len(value))  # type: ignore[arg-type]
        for item in value:  # type: ignore[attr-defined]
            _append_value(out, item, memo, depth + 1)
    elif cls is frozenset:
        out.append(_V_FROZENSET)
        _append_uvarint(out, len(value))  # type: ignore[arg-type]
        for item in value:  # type: ignore[attr-defined]
            _append_value(out, item, memo, depth + 1)
    else:
        raise _Unencodable


def _read_value(
    view: "bytes | memoryview", pos: int, memo: list[str]
) -> tuple[object, int]:
    # The decode hot loop: single-byte forms (small ints, short strings,
    # one-byte counts and varints) are read inline, without the helper
    # calls the cold branches use — per-record wall time is what the
    # fast-path layouts buy, and call overhead would hand it back.
    tag = view[pos]
    pos += 1
    if tag >= _V_SMALL_MIN:
        if tag < _V_SHORTSTR:
            return tag - _V_SMALL_BIAS, pos
        if tag < _V_SHORTSTR_END:
            end = pos + (tag - _V_SHORTSTR)
            if end > len(view):
                raise StorageError("corrupt record payload: truncated string")
            text = str(view[pos:end], "utf-8")
            if len(text) >= _MEMO_MIN_CHARS:
                memo.append(text)
            return text, end
        raise StorageError(
            f"corrupt record payload: unknown value tag {tag:#04x}"
        )
    if tag == _V_NONE:
        return None, pos
    if tag == _V_TRUE:
        return True, pos
    if tag == _V_FALSE:
        return False, pos
    if tag == _V_INT:
        return _read_svarint(view, pos)
    if tag == _V_STR:
        length, pos = _read_uvarint(view, pos)
        end = pos + length
        if end > len(view):
            raise StorageError("corrupt record payload: truncated string")
        text = str(view[pos:end], "utf-8")
        if len(text) >= _MEMO_MIN_CHARS:
            memo.append(text)
        return text, end
    if tag == _V_STRREF:
        ref, pos = _read_uvarint(view, pos)
        if ref >= len(memo):
            raise StorageError(
                f"corrupt record payload: string backref {ref} out of range"
            )
        return memo[ref], pos
    if tag == _V_INTLIST:
        count = view[pos]
        pos += 1
        if count & 0x80:
            count, pos = _read_uvarint(view, pos - 1)
        previous = 0
        deltas: list[int] = []
        append = deltas.append
        for _ in range(count):
            raw = view[pos]
            pos += 1
            if raw & 0x80:
                raw &= 0x7F
                shift = 7
                while True:
                    byte = view[pos]
                    pos += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
            if raw & 1:
                previous -= (raw + 1) >> 1
            else:
                previous += raw >> 1
            append(previous)
        return deltas, pos
    if tag == _V_DICTLIST:
        count, pos = _read_uvarint(view, pos)
        width, pos = _read_uvarint(view, pos)
        keys = []
        for _ in range(width):
            key, pos = _read_value(view, pos, memo)
            keys.append(key)
        rows = []
        for _ in range(count):
            row: dict[object, object] = {}
            for key in keys:
                cell, pos = _read_value(view, pos, memo)
                row[key] = cell  # type: ignore[index]
            rows.append(row)
        return rows, pos
    if tag == _V_FLOAT:
        if pos + 8 > len(view):
            raise StorageError("corrupt record payload: truncated float")
        return _unpack_double(view, pos)[0], pos + 8
    if tag == _V_LIST or tag == _V_TUPLE:
        count = view[pos]
        pos += 1
        if count & 0x80:
            count, pos = _read_uvarint(view, pos - 1)
        items = []
        for _ in range(count):
            item, pos = _read_value(view, pos, memo)
            items.append(item)
        return (items if tag == _V_LIST else tuple(items)), pos
    if tag == _V_DICT:
        count = view[pos]
        pos += 1
        if count & 0x80:
            count, pos = _read_uvarint(view, pos - 1)
        mapping: dict[object, object] = {}
        for _ in range(count):
            key, pos = _read_value(view, pos, memo)
            item, pos = _read_value(view, pos, memo)
            mapping[key] = item  # type: ignore[index]
        return mapping, pos
    if tag == _V_BYTES:
        length, pos = _read_uvarint(view, pos)
        end = pos + length
        if end > len(view):
            raise StorageError("corrupt record payload: truncated bytes")
        return bytes(view[pos:end]), end
    if tag == _V_SET or tag == _V_FROZENSET:
        count, pos = _read_uvarint(view, pos)
        elems = []
        for _ in range(count):
            item, pos = _read_value(view, pos, memo)
            elems.append(item)
        return (set(elems) if tag == _V_SET else frozenset(elems)), pos
    raise StorageError(f"corrupt record payload: unknown value tag {tag:#04x}")


# ---------------------------------------------------------------------------
# the codec
# ---------------------------------------------------------------------------


class RecordCodec:
    """Stateful per-storage-manager record codec.

    Holds the attribute-name intern table (persisted by the owning
    manager inside its meta blob) and the manager's stats block, which
    it keeps honest: every encode bumps either ``records_fast_path`` or
    ``records_fallback``, and minting an intern id refreshes
    ``intern_table_size``.

    ``mode`` selects what :meth:`encode` writes — ``"labf"`` (fast
    paths plus tagged-pickle fallback) or ``"pickle"`` (the legacy raw
    pickle, byte-identical to the pre-codec format).  :meth:`decode`
    reads every format regardless of mode.
    """

    def __init__(self, mode: str, stats: StorageStats) -> None:
        if mode not in CODEC_NAMES:
            raise StorageError(
                f"unknown codec {mode!r}; expected one of {CODEC_NAMES}"
            )
        self.mode = mode
        self._stats = stats
        self._names: list[str] = []
        self._ids: dict[str, int] = {}

    # -- intern table ------------------------------------------------------

    def intern_names(self) -> list[str]:
        """The intern table for meta persistence (a fresh list)."""
        return list(self._names)

    def restore_intern(self, names: "list[str] | tuple[str, ...]") -> None:
        """Replace the intern table with one restored from a meta blob."""
        self._names = [str(name) for name in names]
        self._ids = {name: ident for ident, name in enumerate(self._names)}
        self._stats.intern_table_size = len(self._names)

    def _intern_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self._names)
            self._names.append(name)
            self._ids[name] = ident
            self._stats.intern_table_size = len(self._names)
        return ident

    def _intern_name(self, ident: int) -> str:
        if ident >= len(self._names):
            raise StorageError(
                f"corrupt record payload: intern id {ident} not in table "
                f"of {len(self._names)} names"
            )
        return self._names[ident]

    # -- encode ------------------------------------------------------------

    def encode(self, obj: object) -> bytes:
        """Serialize a plain-data record per the codec mode."""
        if self.mode == "labf":
            if type(obj) is dict:
                kind = obj.get("kind")
                try:
                    if kind == _KIND_STEP:
                        return self._finish(self._encode_step(obj))
                    if kind == _KIND_MATERIAL:
                        return self._finish(self._encode_material(obj))
                    if kind == _KIND_HISTORY_NODE:
                        return self._finish(self._encode_history(obj))
                except _Unencodable:
                    pass
            # Open-schema fallback: hot open records (index buckets,
            # set leaves, counters) are int-heavy containers that C
            # pickle encodes faster than the Python value grammar, so
            # they validate and pickle like the legacy path.  Protocol-4
            # pickles begin with 0x80 (the PROTO opcode), which the tag
            # space reserves as TAG_PICKLE_RAW: no envelope byte, no
            # copy of the pickle bytes.  The explicit TAG_PICKLE stays
            # in the format for decode-side compatibility.
            validate_plain_data(obj)
            self._stats.records_fallback += 1
            return pickle.dumps(obj, protocol=4)
        validate_plain_data(obj)
        self._stats.records_fallback += 1
        return pickle.dumps(obj, protocol=4)

    def _finish(self, out: bytearray) -> bytes:
        """Count a fast-path encode; deflate large payloads that shrink.

        Only closed-schema records are deflate candidates: they carry
        the workload's bulk values (sequence data), while large open
        records are hot int-heavy structures (set leaves, counters)
        where per-write deflate costs wall time for bytes nobody
        measures.
        """
        self._stats.records_fast_path += 1
        if len(out) >= COMPRESS_MIN_BYTES:
            deflated = zlib.compress(out, _COMPRESS_LEVEL)
            envelope = bytearray((TAG_DEFLATE,))
            _append_uvarint(envelope, len(out))
            envelope += deflated
            if len(envelope) < len(out):
                return bytes(envelope)
        return bytes(out)

    def _encode_step(self, obj: dict) -> bytearray:
        if obj.keys() != _STEP_KEYS:
            raise _Unencodable
        results = obj["results"]
        if type(results) is not list:
            raise _Unencodable
        out = bytearray((TAG_STEP,))
        memo: dict[str, int] = {}
        # class_version and valid_time are ints on every real step;
        # inline the small/varint forms and keep the dispatch call as
        # the anything-else fallback.
        for field in (obj["class_version"], obj["valid_time"]):
            if type(field) is int:
                if -32 <= field < 160:
                    out.append(field + _V_SMALL_BIAS)
                else:
                    out.append(_V_INT)
                    _append_svarint(out, field)
            else:
                _append_value(out, field, memo, 1)
        _append_uvarint(out, len(results))
        ids_get = self._ids.get
        for item in results:
            if type(item) is not tuple or len(item) != 2:
                raise _Unencodable
            attr, value = item
            if type(attr) is not str:
                raise _Unencodable
            ident = ids_get(attr)
            if ident is None:
                ident = self._intern_id(attr)
            if ident < 0x80:
                out.append(ident)
            else:
                _append_uvarint(out, ident)
            if type(value) is str:
                _append_str(out, value, memo)
            else:
                _append_value(out, value, memo, 3)
        _append_value(out, obj["involves"], memo, 1)
        return out

    def _encode_material(self, obj: dict) -> bytearray:
        if obj.keys() != _MATERIAL_KEYS:
            raise _Unencodable
        recent = obj["recent"]
        if type(recent) is not dict:
            raise _Unencodable
        out = bytearray((TAG_MATERIAL,))
        memo: dict[str, int] = {}
        # The header fields have fixed shapes on every real material
        # (two strings, three ints); inline those forms and keep the
        # dispatch call as the anything-else fallback.
        for field in (obj["class_name"], obj["key"]):
            if type(field) is str:
                _append_str(out, field, memo)
            else:
                _append_value(out, field, memo, 1)
        for field in (obj["created"], obj["history_head"], obj["history_len"]):
            if type(field) is int:
                if -32 <= field < 160:
                    out.append(field + _V_SMALL_BIAS)
                else:
                    out.append(_V_INT)
                    _append_svarint(out, field)
            else:
                _append_value(out, field, memo, 1)
        _append_uvarint(out, len(recent))
        ids_get = self._ids.get
        for attr, entry in recent.items():
            if type(attr) is not str:
                raise _Unencodable
            if type(entry) is not list or len(entry) != 4:
                raise _Unencodable
            ident = ids_get(attr)
            if ident is None:
                ident = self._intern_id(attr)
            if ident < 0x80:
                out.append(ident)
            else:
                _append_uvarint(out, ident)
            # Entry cells are (valid_time, step_oid, inlined, value):
            # almost always two ints, a bool and a scalar — encode the
            # common shapes without the dispatch call.
            for cell in entry:
                if type(cell) is int:
                    if -32 <= cell < 160:
                        out.append(cell + _V_SMALL_BIAS)
                    else:
                        out.append(_V_INT)
                        _append_svarint(out, cell)
                elif cell is None:
                    out.append(_V_NONE)
                elif cell is True:
                    out.append(_V_TRUE)
                elif cell is False:
                    out.append(_V_FALSE)
                else:
                    _append_value(out, cell, memo, 3)
        state = obj["state"]
        if type(state) is str:
            _append_str(out, state, memo)
        elif state is None:
            out.append(_V_NONE)
        else:
            _append_value(out, state, memo, 1)
        since = obj["state_since"]
        if type(since) is int:
            if -32 <= since < 160:
                out.append(since + _V_SMALL_BIAS)
            else:
                out.append(_V_INT)
                _append_svarint(out, since)
        else:
            _append_value(out, since, memo, 1)
        return out

    def _encode_history(self, obj: dict) -> bytearray:
        if obj.keys() != _HISTORY_KEYS:
            raise _Unencodable
        out = bytearray((TAG_HISTORY_NODE,))
        memo: dict[str, int] = {}
        _append_value(out, obj["step_oids"], memo, 1)
        _append_value(out, obj["next"], memo, 1)
        return out

    # -- decode ------------------------------------------------------------

    def decode(self, payload: "bytes | bytearray | memoryview") -> object:
        """Deserialize any codec-written payload (zero-copy for views)."""
        # bytes index faster than memoryview per byte, and the decoders
        # touch every byte; other bytes-likes are viewed, not copied.
        view: "bytes | memoryview" = (
            payload if type(payload) is bytes else memoryview(payload)
        )
        if len(view) == 0:
            raise StorageError("corrupt record payload: empty")
        tag = view[0]
        if tag == TAG_DEFLATE:
            try:
                raw_len, pos = _read_uvarint(view, 1)
                inflated = zlib.decompress(view[pos:])
            except (zlib.error, IndexError) as exc:
                raise StorageError(
                    f"corrupt record payload: bad deflate envelope ({exc})"
                ) from exc
            if len(inflated) != raw_len:
                raise StorageError(
                    f"corrupt record payload: deflate envelope declares "
                    f"{raw_len} bytes, holds {len(inflated)}"
                )
            view = inflated
            if len(view) == 0:
                raise StorageError("corrupt record payload: empty envelope")
            tag = view[0]
            if tag == TAG_DEFLATE:
                raise StorageError(
                    "corrupt record payload: nested deflate envelope"
                )
        if tag == TAG_PICKLE_RAW or tag == TAG_PICKLE:
            body = view if tag == TAG_PICKLE_RAW else view[1:]
            try:
                return pickle.loads(body)
            # Corrupt payloads raise whatever opcode pickle trips over;
            # translate them all into the stack's corruption error.
            except Exception as exc:
                raise StorageError(f"corrupt record payload: {exc}") from exc
        try:
            if tag == TAG_STEP:
                obj, pos = self._decode_step(view, 1)
            elif tag == TAG_MATERIAL:
                obj, pos = self._decode_material(view, 1)
            elif tag == TAG_HISTORY_NODE:
                obj, pos = self._decode_history(view, 1)
            elif tag == TAG_PLAIN:
                obj, pos = _read_value(view, 1, [])
            else:
                raise StorageError(
                    f"corrupt record payload: unknown codec tag {tag:#04x}"
                )
        except IndexError:
            raise StorageError("corrupt record payload: truncated") from None
        if pos != len(view):
            raise StorageError(
                f"corrupt record payload: {len(view) - pos} trailing bytes"
            )
        return obj

    def _decode_step(
        self, view: "bytes | memoryview", pos: int
    ) -> tuple[dict, int]:
        memo: list[str] = []
        class_version, pos = _read_value(view, pos, memo)
        valid_time, pos = _read_value(view, pos, memo)
        count, pos = _read_uvarint(view, pos)
        results = []
        for _ in range(count):
            ident = view[pos]
            pos += 1
            if ident & 0x80:
                ident, pos = _read_uvarint(view, pos - 1)
            value, pos = _read_value(view, pos, memo)
            results.append((self._intern_name(ident), value))
        involves, pos = _read_value(view, pos, memo)
        return {
            "kind": _KIND_STEP,
            "class_version": class_version,
            "valid_time": valid_time,
            "results": results,
            "involves": involves,
        }, pos

    def _decode_material(
        self, view: "bytes | memoryview", pos: int
    ) -> tuple[dict, int]:
        memo: list[str] = []
        class_name, pos = _read_value(view, pos, memo)
        key, pos = _read_value(view, pos, memo)
        created, pos = _read_value(view, pos, memo)
        history_head, pos = _read_value(view, pos, memo)
        history_len, pos = _read_value(view, pos, memo)
        count, pos = _read_uvarint(view, pos)
        recent: dict[str, list] = {}
        for _ in range(count):
            ident = view[pos]
            pos += 1
            if ident & 0x80:
                ident, pos = _read_uvarint(view, pos - 1)
            valid_time, pos = _read_value(view, pos, memo)
            step_oid, pos = _read_value(view, pos, memo)
            inlined, pos = _read_value(view, pos, memo)
            value, pos = _read_value(view, pos, memo)
            recent[self._intern_name(ident)] = [
                valid_time, step_oid, inlined, value,
            ]
        state, pos = _read_value(view, pos, memo)
        state_since, pos = _read_value(view, pos, memo)
        return {
            "kind": _KIND_MATERIAL,
            "class_name": class_name,
            "key": key,
            "created": created,
            "history_head": history_head,
            "history_len": history_len,
            "recent": recent,
            "state": state,
            "state_since": state_since,
        }, pos

    def _decode_history(
        self, view: "bytes | memoryview", pos: int
    ) -> tuple[dict, int]:
        memo: list[str] = []
        step_oids, pos = _read_value(view, pos, memo)
        next_node, pos = _read_value(view, pos, memo)
        return {
            "kind": _KIND_HISTORY_NODE,
            "step_oids": step_oids,
            "next": next_node,
        }, pos

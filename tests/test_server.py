"""Tests for the served session layer (repro.server).

Covers the protocol codecs, the commit coordinator, the service core's
unit-of-work / lock / retry semantics, the socket round trip with four
concurrent clients, and the A6 acceptance property: four sessions
through group commit cost strictly less I/O per committed step than the
same work committed one unit at a time.
"""

import os
import socket
import struct
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateKeyError,
    LabBaseError,
    LockError,
    ProtocolError,
    SchemaError,
    ServerError,
    SessionError,
    TransactionError,
    UnknownMaterialError,
)
from repro.labbase import LabBase, model
from repro.server import (
    Channel,
    ClientRunner,
    CommitCoordinator,
    LabFlowService,
    LocalClient,
    Request,
    Response,
    ServiceClient,
    ServiceRunner,
    apply_request,
    bootstrap_schema,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    run_concurrent_clients,
)
from repro.server.communicator import (
    DATA_OPS,
    MAX_MESSAGE_BYTES,
    OPS,
    RECV_BYTES,
    FrameBuffer,
)
from repro.storage import ObjectStoreSM, TexasSM


def _served_db(tmp_path=None, **sm_kwargs):
    path = None if tmp_path is None else os.path.join(str(tmp_path), "db.pages")
    sm = ObjectStoreSM(path=path, **sm_kwargs)
    db = LabBase(sm)
    bootstrap_schema(db)
    return db


# -- communicator ----------------------------------------------------------


def test_request_roundtrip():
    request = Request(op="record_step", session="alice", args={"involves": [3]})
    assert decode_request(encode_request(request)) == request


def test_response_roundtrip():
    response = Response(ok=False, error="nope", error_type="LockError")
    assert decode_response(encode_response(response)) == response


def _frame(body):
    """A frame around ``body``: its u32 little-endian length first."""
    return struct.pack("<I", len(body)) + body


def _q(value):
    return struct.pack("<q", value)


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError):
        decode_request(b"not json\n")
    with pytest.raises(ProtocolError):
        decode_request(_frame(b"\x00\x01\x00x\x00\x00"))  # no op
    with pytest.raises(ProtocolError):
        # ping, with args [1]: args not an object
        decode_request(_frame(b"\x09\x01\x00q\x07\x01\x00\x00\x00\x03" + _q(1)))
    with pytest.raises(ProtocolError):
        decode_response(_frame(b"\x03\x03" + _q(1)))  # no ok flag


def test_encoding_is_deterministic():
    """Fixed layouts, sorted keys, UTF-8: the exact bytes, so a captured
    exchange byte-compares across runs and across hosts."""
    request = Request(
        op="set_state", session="s",
        args={"material_oid": 7, "state": "\u00b5", "valid_time": 2},
    )
    assert encode_request(request) == _frame(
        b"\x03"                  # op code: set_state
        + b"\x01\x00s"          # session
        + _q(7)                  # material_oid
        + b"\x02\x00\xc2\xb5"    # state
        + _q(2)                  # valid_time
    )
    tagged = Request(op="q", session="s", args={"b": 1, "a": [2, "\u00b5"]})
    assert encode_request(tagged) == _frame(
        b"\x00\x01\x00s\x01\x00q"   # op code 0: named op "q"
        + b"\x08\x02\x00\x00\x00"   # a dict of two, keys sorted
        + b"\x01\x00\x00\x00a\x07\x02\x00\x00\x00\x03" + _q(2)
        + b"\x06\x02\x00\x00\x00\xc2\xb5"
        + b"\x01\x00\x00\x00b\x03" + _q(1)
    )
    response = Response(ok=True, value={"n": 7, "m": None, "f": 0.5})
    assert encode_response(response) == _frame(
        b"\x01\x08\x03\x00\x00\x00"
        + b"\x01\x00\x00\x00f\x05" + struct.pack("<d", 0.5)
        + b"\x01\x00\x00\x00m\x00"
        + b"\x01\x00\x00\x00n\x03" + _q(7)
    )
    refusal = Response(ok=False, error="page 3", error_type="LockError")
    assert encode_response(refusal) == _frame(
        b"\x00\x09\x00LockError\x06\x00\x00\x00page 3\x00"
    )


# A valid frame of each of the sixteen ops (and of the two ways a
# request leaves the table) and of each response shape.
_VALID_REQUESTS = [
    Request("create_material", "s", {
        "class_name": "clone", "key": "k-1", "valid_time": 1, "state": "active",
    }),
    Request("create_material", "s", {
        "class_name": "clone", "key": "k-2", "valid_time": 2, "state": None,
    }),
    Request("record_step", "s", {
        "class_name": "measure", "valid_time": 3, "involves": [5, 9],
        "results": {"value": 7, "note": "\u00b5"},
    }),
    Request("set_state", "s", {"material_oid": 5, "state": "busy", "valid_time": 4}),
    Request("most_recent", "s", {"material_oid": 5, "attribute": "value"}),
    Request("state_of", "s", {"material_oid": 5}),
    Request("lookup", "s", {"class_name": "clone", "key": "k-1"}),
    Request("in_state", "s", {"state": "busy"}),
    Request("history_len", "s", {"material_oid": 5}),
    Request("ping"),
    Request("bye"),
    Request("open_session", "s"),
    Request("close_session", "s", {"failed": True}),
    Request("drain"),
    Request("stats"),
    Request("sample"),
    Request("verify"),
    Request("state_of", "s", {"material_oid": 1.5}),  # a data op, tagged body
    Request("q", "s", {"nested": [[1, "x"], {"k": 2**70}], "f": -0.25}),
]
_VALID_RESPONSES = [
    Response(ok=True, value=7),
    Response(ok=True),
    Response(ok=True, value="active"),
    Response(ok=True, value=[3, 1, 2]),
    Response(ok=True, value={"ok": False, "problems": ["page 3"]}),
    Response(ok=True, value=[True, 1.5, -(2**70), []]),
    Response(ok=False, error="page 3", error_type="LockError"),
]
_VALID_FRAMES = [
    (decode_request, encode_request(request)) for request in _VALID_REQUESTS
] + [
    (decode_response, encode_response(response)) for response in _VALID_RESPONSES
]
_FRAME_IDS = [r.op for r in _VALID_REQUESTS] + [
    f"response-{i}" for i in range(len(_VALID_RESPONSES))
]


def _decoded_or_refused(decode, frame):
    """The only way a decoder may fail is a ProtocolError."""
    try:
        decode(frame)
    except ProtocolError:
        pass


def test_every_op_has_a_valid_frame():
    assert {r.op for r in _VALID_REQUESTS} >= set(OPS)
    for decode, frame in _VALID_FRAMES:
        decode(frame)


# The exact frames of _VALID_REQUESTS and _VALID_RESPONSES, in order: the
# wire format is a contract with every deployed client, so a codec
# rewrite must reproduce it byte for byte.
_GOLDEN_REQUESTS = [
    "21000000010100730500636c6f6e6503006b2d3101000000000000000106006163746976"
    "65",
    "19000000010100730500636c6f6e6503006b2d32020000000000000000",
    "4f0000000201007307006d65617375726503000000000000000200000005000000000000"
    "0009000000000000000802000000040000006e6f74650602000000c2b50500000076616c"
    "7565030700000000000000",
    "1a0000000301007305000000000000000400627573790400000000000000",
    "13000000040100730500000000000000050076616c7565",
    "0c000000050100730500000000000000",
    "10000000060100730500636c6f6e6503006b2d31",
    "0a00000007010073040062757379",
    "0c000000080100730500000000000000",
    "080000000900000800000000",
    "080000000a00000800000000",
    "090000000b0100730800000000",
    "140000000c0100730801000000060000006661696c656402",
    "080000000d00000800000000",
    "080000000e00000800000000",
    "080000000f00000800000000",
    "080000001000000800000000",
    "220000008501007308010000000c0000006d6174657269616c5f6f696405000000000000"
    "f83f",
    "62000000000100730100710802000000010000006605000000000000d0bf060000006e65"
    "737465640702000000070200000003010000000000000006010000007808010000000100"
    "00006b041600000031313830353931363230373137343131333033343234",
]
_GOLDEN_RESPONSES = [
    "0a00000001030700000000000000",
    "020000000100",
    "0c000000010606000000616374697665",
    "1e000000010903000000030000000000000001000000000000000200000000000000",
    "29000000010802000000020000006f6b010800000070726f626c656d7307010000000606"
    "000000706167652033",
    "310000000107040000000205000000000000f83f04170000002d31313830353931363230"
    "3731373431313330333432340700000000",
    "170000000009004c6f636b4572726f720600000070616765203300",
]


def test_golden_frames_are_the_wire_format():
    assert len(_GOLDEN_REQUESTS) == len(_VALID_REQUESTS)
    assert len(_GOLDEN_RESPONSES) == len(_VALID_RESPONSES)
    for request, golden in zip(_VALID_REQUESTS, _GOLDEN_REQUESTS):
        assert encode_request(request).hex() == golden, request
    for response, golden in zip(_VALID_RESPONSES, _GOLDEN_RESPONSES):
        assert encode_response(response).hex() == golden, response


@pytest.mark.parametrize("decode,frame", _VALID_FRAMES, ids=_FRAME_IDS)
def test_malformed_frame_prefixes_and_byte_changes_raise_only_protocol_error(
    decode, frame
):
    for end in range(len(frame)):
        with pytest.raises(ProtocolError):
            decode(frame[:end])
    for index in range(len(frame)):
        for byte in range(256):
            _decoded_or_refused(
                decode, frame[:index] + bytes((byte,)) + frame[index + 1:]
            )


@settings(max_examples=300, deadline=None)
@given(
    which=st.integers(0, len(_VALID_FRAMES) - 1),
    cut=st.integers(0, 200),
    garbage=st.binary(max_size=64),
)
def test_arbitrary_bytes_in_a_frame_raise_only_protocol_error(which, cut, garbage):
    """Arbitrary bytes alone, and spliced into a valid body under a
    header that matches, so the body decoders see them too."""
    decode, frame = _VALID_FRAMES[which]
    _decoded_or_refused(decode, garbage)
    body = frame[4:4 + cut] + garbage
    _decoded_or_refused(decode, _frame(body))
    _decoded_or_refused(decode, _frame(frame[4:] + garbage))


_HUGE = struct.pack("<I", 2**32 - 1)
_PING = b"\x09\x00\x00"
# Frames whose one count needs more bytes than are left.
_OVERCOUNTED = {
    "session": (decode_request, _frame(b"\x09\xff\xff" + b"ab")),
    "str": (decode_request, _frame(_PING + b"\x06" + _HUGE + b"x")),
    "list": (decode_request, _frame(_PING + b"\x07" + _HUGE + b"\x00")),
    "dict": (decode_request, _frame(_PING + b"\x08" + _HUGE + b"\x00")),
    "int-array": (decode_request, _frame(_PING + b"\x09" + _HUGE + _q(1))),
    "big-int": (decode_request, _frame(_PING + b"\x04" + _HUGE + b"1")),
    "involves": (decode_request, _frame(
        b"\x02\x00\x00\x07\x00measure" + _q(3) + _HUGE + _q(5) + b"\x00"
    )),
    "error-type": (decode_response, _frame(b"\x00\xff\xff" + b"LockError")),
    "error": (decode_response, _frame(b"\x00\x00\x00" + _HUGE + b"page 3\x00")),
    "reply-ints": (
        decode_response, _frame(b"\x01\x09" + struct.pack("<I", 2) + _q(1))
    ),
}


@pytest.mark.parametrize(
    "decode,frame", list(_OVERCOUNTED.values()), ids=list(_OVERCOUNTED)
)
def test_a_count_past_the_bytes_left_is_refused_before_allocating(decode, frame):
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="a count of"):
            decode(frame)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


_PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_I64S = st.integers(-(2**63), 2**63 - 1)
_NAMES = st.text(max_size=12)
_LAID_OUT = st.one_of(
    st.tuples(st.just("create_material"), st.fixed_dictionaries({
        "class_name": _NAMES, "key": _NAMES, "valid_time": _I64S,
        "state": st.none() | _NAMES,
    })),
    st.tuples(st.just("record_step"), st.fixed_dictionaries({
        "class_name": _NAMES, "valid_time": _I64S,
        "involves": st.lists(_I64S, max_size=4), "results": _PLAIN,
    })),
    st.tuples(st.just("set_state"), st.fixed_dictionaries({
        "material_oid": _I64S, "state": _NAMES, "valid_time": _I64S,
    })),
    st.tuples(st.sampled_from(["state_of", "history_len"]),
              st.fixed_dictionaries({"material_oid": _I64S})),
    st.tuples(st.just("most_recent"), st.fixed_dictionaries({
        "material_oid": _I64S, "attribute": _NAMES,
    })),
    st.tuples(st.just("lookup"), st.fixed_dictionaries({
        "class_name": _NAMES, "key": _NAMES,
    })),
    st.tuples(st.just("in_state"), st.fixed_dictionaries({"state": _NAMES})),
)
_TAGGED = st.tuples(
    st.sampled_from(["state_of", "record_step", "ping", "close_session", "q"]),
    st.dictionaries(st.text(max_size=8), _PLAIN, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(op_args=st.one_of(_LAID_OUT, _TAGGED), session=_NAMES)
def test_plain_data_requests_round_trip(op_args, session):
    op, args = op_args
    request = Request(op=op, session=session, args=args)
    assert decode_request(encode_request(request)) == request


@settings(max_examples=200, deadline=None)
@given(
    value=_PLAIN,
    error=st.none() | st.tuples(st.text(max_size=12), st.text()),
)
def test_plain_data_responses_round_trip(value, error):
    if error is None:
        response = Response(ok=True, value=value)
    else:
        error_type, message = error
        response = Response(
            ok=False, value=value, error=message, error_type=error_type
        )
    assert decode_response(encode_response(response)) == response


def test_frame_buffer_refuses_an_oversized_header_as_it_arrives():
    header = struct.pack("<I", MAX_MESSAGE_BYTES + 1)
    frames = FrameBuffer()
    frames.feed(header[:3])
    assert frames.take() is None
    frames.feed(header[3:] + b"x" * RECV_BYTES)
    assert len(frames) <= 4 + RECV_BYTES
    with pytest.raises(ProtocolError):
        frames.take()


def test_frame_buffer_hands_out_pipelined_frames_in_order():
    first = encode_request(Request(op="ping"))
    second = encode_request(Request(op="state_of", session="s",
                                    args={"material_oid": 3}))
    frames = FrameBuffer()
    frames.feed(first + second[:5])
    assert frames.take() == first
    assert frames.take() is None
    frames.feed(second[5:])
    assert frames.take() == second
    assert frames.take() is None and len(frames) == 0


# -- commit coordinator ------------------------------------------------------


def test_group_closes_at_cap():
    db = _served_db()
    coordinator = CommitCoordinator(db, cap=3)
    coordinator.note_unit("a")
    coordinator.note_unit("b")
    assert not coordinator.should_close()
    coordinator.note_unit("a")
    assert coordinator.should_close()
    assert coordinator.close() == ["a", "b"]
    stats = db.storage.stats
    assert stats.group_commits == 1
    assert stats.sessions_per_group == 2
    assert stats.commits == 1
    db.storage.close()


def test_disabled_coordinator_closes_every_unit():
    db = _served_db()
    coordinator = CommitCoordinator(db, cap=1)  # cap 1 is "no grouping"
    assert not coordinator.should_close()  # nothing pending
    coordinator.note_unit("solo")
    assert coordinator.should_close()
    assert coordinator.close() == ["solo"]
    assert coordinator.close() == []  # idempotent when empty
    assert db.storage.stats.group_commits == 1
    db.storage.close()


# -- service core ------------------------------------------------------------


def test_service_refuses_open_transaction():
    db = _served_db()
    db.begin()
    with pytest.raises(TransactionError):
        LabFlowService(db)
    db.abort()
    db.storage.close()


def test_session_lifecycle_and_validation():
    db = _served_db()
    service = LabFlowService(db)
    service.open_session("alice")
    with pytest.raises(LabBaseError):
        service.open_session("alice")  # duplicate
    with pytest.raises(SessionError):
        service.submit("nobody", "state_of", {"material_oid": 1})
    with pytest.raises(ProtocolError):
        service.submit("alice", "drop_table", {})
    service.close_session("alice")
    service.close_session("alice")  # idempotent
    service.shutdown()
    db.storage.close()


def test_units_execute_and_group_commits(tmp_path):
    db = _served_db(tmp_path, checkpoint_every=1)
    service = LabFlowService(db, group_cap=2)
    alice = LocalClient(service, "alice")
    oid = alice.create_material("clone", "a-0", 1, state="active")
    assert service._coordinator.pending_units == 1  # not yet durable
    alice.record_step("measure", 2, [oid], {"value": 7})
    assert service._coordinator.pending_units == 0  # cap 2 closed the group
    assert alice.most_recent(oid, "value") == 7
    assert alice.state_of(oid) == "active"
    assert alice.lookup("clone", "a-0") == oid
    assert alice.history_len(oid) == 1
    assert oid in alice.in_state("active")
    stats = db.storage.stats
    assert stats.group_commits == 1
    assert stats.sessions_per_group == 1
    alice.close()
    service.shutdown()
    db.storage.close()


def test_duplicate_create_fails_without_allocating():
    db = _served_db()
    service = LabFlowService(db)
    alice = LocalClient(service, "alice")
    alice.create_material("clone", "dup", 1)
    oids_before = sorted(db.storage.oids())
    with pytest.raises(DuplicateKeyError):
        alice.create_material("clone", "dup", 2)
    assert sorted(db.storage.oids()) == oids_before  # pre-check: no orphan
    service.shutdown()
    db.storage.close()


def test_a_fractional_oid_or_time_is_refused_not_truncated():
    """An argument that should be an integer and is a fraction is a
    protocol error; it used to be truncated onto a neighbouring oid or
    an earlier valid time."""
    db = _served_db()
    service = LabFlowService(db, group_cap=1)
    client = LocalClient(service, "c")
    oid = client.create_material("clone", "m-0", 1, state="active")
    with pytest.raises(ProtocolError):
        client.call("state_of", material_oid=oid + 0.7)
    with pytest.raises(ProtocolError):
        client.call(
            "set_state", material_oid=oid + 0.9, state="done", valid_time=2.5
        )
    with pytest.raises(ProtocolError):
        client.call("set_state", material_oid=oid, state="done", valid_time=2.5)
    assert client.state_of(oid) == "active"
    assert client.call("state_of", material_oid=float(oid)) == "active"
    service.shutdown()
    db.storage.close()


def test_a_string_argument_must_be_a_string():
    """A string field takes a ``str`` and nothing else; it used to be
    coerced with ``str()``, so ``None`` became the state "None" and 7
    answered for the state "7"."""
    db = _served_db()
    service = LabFlowService(db, group_cap=1)
    client = LocalClient(service, "c")
    oid = client.create_material("clone", "m-0", 1, state="active")
    with pytest.raises(ProtocolError):
        client.set_state(oid, None, 2)
    assert client.state_of(oid) == "active"
    with pytest.raises(ProtocolError):
        client.in_state(7)
    with pytest.raises(ProtocolError):
        client.create_material("clone", 123, 3)
    with pytest.raises(UnknownMaterialError):
        client.lookup("clone", "123")
    # a str UTF-8 cannot encode is refused before LabBase sees it
    with pytest.raises(ProtocolError):
        client.create_material("clone", "a\udc80", 3)
    assert db.count_materials("clone") == 1
    assert client.state_of(client.create_material("clone", "m-1", 4)) is None
    service.shutdown()
    db.storage.close()


def test_a_query_checks_the_page_and_takes_no_lock():
    """A served query's conflict check is all a SHARED grant returned at
    the unit's end would have done: no grant is counted, none is left."""
    db = _served_db()
    service = LabFlowService(db, group_cap=1)
    client = LocalClient(service, "c")
    oid = client.create_material("clone", "m-0", 1, state="active")
    stats = db.storage.stats
    before = stats.snapshot()
    assert client.state_of(oid) == "active"
    assert client.history_len(oid) == 0
    delta = stats.delta(before)
    assert delta["lock_acquisitions"] == 0 and delta["lock_waits"] == 0
    assert db.storage.lock_manager.held_pages("c") == set()
    service.shutdown()
    db.storage.close()


def test_failed_unit_discards_writes_and_restores_locks():
    db = _served_db()
    service = LabFlowService(db)
    alice = LocalClient(service, "alice")
    bob = LocalClient(service, "bob")
    oid = alice.create_material("clone", "a-0", 1, state="active")
    alice.drain()  # release alice's creation group
    with pytest.raises(SchemaError):
        # invalid results attribute: validated before anything is written
        bob.record_step("measure", 2, [oid], {"no_such_attr": 1})
    assert db.cache.dirty_objects == 0
    # the failed unit's locks were restored: alice can write immediately
    alice.set_state(oid, "busy", 3)
    service.shutdown()
    db.storage.close()


def test_unit_dying_of_a_bug_is_discarded_like_any_other(monkeypatch):
    """A unit that dies of a non-ReproError never happened either: the
    cache leaves buffering mode and the unit's locks go back, so the
    other stations keep their server (they were refused forever with
    "a unit of work is already buffering")."""
    db = _served_db()
    service = LabFlowService(db)
    a = LocalClient(service, "a")
    b = LocalClient(service, "b")
    oid = a.create_material("clone", "a-0", 1, state="active")
    service.drain()
    set_state = LabBase.set_state
    armed = [True]

    def fails_once(self, material_oid, state, valid_time):
        if armed:
            armed.clear()
            self.cache.write(material_oid, self.cache.read(material_oid))
            raise ValueError("a bug, with a write buffered")
        set_state(self, material_oid, state, valid_time)

    monkeypatch.setattr(LabBase, "set_state", fails_once)
    with pytest.raises(ValueError):
        a.set_state(oid, "busy", 2)
    assert db.cache.dirty_objects == 0
    a.close()  # what the loop does with the connection

    assert b.state_of(oid) == "active"  # the next query ...
    b.set_state(oid, "done", 3)  # ... and the next update, on the same page
    service.drain()
    for name in ("a", "b"):
        assert db.storage.lock_manager.held_pages(name) == set()
    assert db.verify_storage().ok
    assert [(s, op) for s, op, _args in service.completed_units()] == [
        ("a", "create_material"), ("b", "set_state"),
    ]
    service.shutdown()
    db.storage.close()


def test_a_query_after_another_sessions_update_reads_the_warm_cache():
    """One cache and one owner thread serve every session, so a lock
    grant has nothing to invalidate: c1's query finds c0's committed
    update in the cache, without a miss or a storage read."""
    db = _served_db()
    service = LabFlowService(db, group_cap=1)
    c0 = LocalClient(service, "c0")
    c1 = LocalClient(service, "c1")
    oid = c0.create_material("clone", "m-0", 1, state="active")
    c0.record_step("measure", 2, [oid], {"value": 7})
    stats = db.storage.stats
    misses, reads = stats.cache_misses, stats.objects_read
    assert c1.most_recent(oid, "value") == 7
    assert (stats.cache_misses, stats.objects_read) == (misses, reads)
    service.shutdown()
    db.storage.close()


def test_a_discarded_unit_leaves_no_in_place_mutation_behind(monkeypatch):
    """A unit that mutated a cached record in place and then failed
    never happened: neither the locked material nor the key-index
    bucket, which ``lookup`` reads under no lock, keeps the mutation."""
    db = _served_db()
    service = LabFlowService(db)
    a = LocalClient(service, "a")
    b = LocalClient(service, "b")
    oid = a.create_material("clone", "a-0", 1, state="active")
    service.drain()
    assert b.state_of(oid) == "active"
    assert b.lookup("clone", "a-0") == oid  # both records now cached

    def mutate_material(self, material_oid, state, valid_time):
        self.material(material_oid)["state"] = state
        raise LabBaseError("refused after an in-place mutation")

    def mutate_bucket(self, material_oid, state, valid_time):
        bucket = self.cache.read(self.bucket_oid("clone", "a-0", create=False))
        bucket["entries"]["a-0"] = material_oid + 1
        raise LabBaseError("refused after an in-place mutation")

    for mutate in (mutate_material, mutate_bucket):
        monkeypatch.setattr(LabBase, "set_state", mutate)
        with pytest.raises(LabBaseError):
            a.set_state(oid, "busy", 2)
        assert b.state_of(oid) == "active"
        assert b.lookup("clone", "a-0") == oid
    service.shutdown()
    db.storage.close()


_HOT_QUERIES = {
    "history_len": lambda client, oid: client.history_len(oid) == 3,
    "state_of": lambda client, oid: client.state_of(oid) == "active",
    "lookup": lambda client, oid: client.lookup("clone", "m-0") == oid,
    "most_recent": lambda client, oid: client.most_recent(oid, "value") == 2,
}


@pytest.mark.parametrize("op", sorted(_HOT_QUERIES))
def test_a_served_query_on_a_cold_cache_stays_in_the_hot_segments(op):
    """A served query answers from the hot record its lock covers (or a
    catalog index): one object read, and no page of the material's
    steps or history nodes is brought into the pool.  Only a Q7-style
    call walks the cold history segment."""
    db = _served_db()
    sm = db.storage
    service = LabFlowService(db, group_cap=1)
    client = LocalClient(service, "c")
    oid = client.create_material("clone", "m-0", 1, state="active")
    for value in range(3):
        client.record_step("measure", 2 + value, [oid], {"value": value})
    history = db.material(oid)["history_head"]
    cold_oids = []
    while history != model.NIL:
        cold_oids.append(history)
        history = db.cache.read(history)["next"]
    cold_oids += [step for step, _record in db.material_history(oid)]
    cold_pages = {page for cold in cold_oids for page in sm.pages_of(cold)}
    assert len(cold_oids) == 4 and cold_pages
    db.cache.invalidate()
    sm.drop_buffer()
    reads = sm.stats.objects_read

    assert _HOT_QUERIES[op](client, oid)
    assert sm.stats.objects_read - reads == 1
    assert not [page for page in cold_pages if sm._pool.is_resident(page)]
    service.shutdown()
    sm.close()


def _alice_pending_on_a_page_bob_wants():
    """alice's update pending in the open group, holding page P
    EXCLUSIVE; returns a material on P for bob to go after."""
    db = _served_db()
    service = LabFlowService(db, group_cap=100)
    alice = LocalClient(service, "alice")
    bob = LocalClient(service, "bob")
    # consecutive creates pack onto the same page: a conflict source
    a = alice.create_material("clone", "a-0", 1, state="active")
    b = bob.create_material("clone", "b-0", 2, state="active")
    service.drain()
    alice.set_state(a, "busy", 3)  # pending: X lock held until group close
    page = db.storage.pages_of(a)[0]
    # distinct pages: contend on the same material directly
    target = b if page in db.storage.pages_of(b) else a
    return db, service, alice, bob, target, page


def test_pending_group_blocks_then_stall_flushes():
    """Strict 2PL for whoever observes: a group-pending unit's X locks
    stall a conflicting query; the conflict force-closes the group (a
    commit_stall) and the retry answers."""
    db, service, _alice, bob, target, _page = _alice_pending_on_a_page_bob_wants()
    stats = db.storage.stats
    stalls_before, commits_before = stats.commit_stalls, stats.commits
    expected = db.state_of(target)
    # same page: must stall-flush, then read what is now durable
    assert bob.state_of(target) == expected
    assert stats.commit_stalls == stalls_before + 1
    assert stats.commits == commits_before + 1
    assert service._coordinator.pending_units == 0
    service.shutdown()
    db.storage.close()


def test_commit_mates_update_shares_the_page_without_a_stall():
    """bob's update meets the lock of a session whose unit sits in the
    group bob's is about to join: no conflict — both hold the page, both
    units are in one group, and one commit at drain makes them durable."""
    db, service, _alice, bob, target, page = _alice_pending_on_a_page_bob_wants()
    stats = db.storage.stats
    before = stats.snapshot()
    bob.set_state(target, "done", 4)
    assert stats.delta(before)["commit_stalls"] == 0
    assert stats.delta(before)["lock_waits"] == 0
    assert stats.delta(before)["commits"] == 0
    assert service._coordinator.pending_units == 2
    assert set(db.storage.lock_manager.holders(page)) == {"alice", "bob"}
    assert service.drain() == 2
    delta = stats.delta(before)
    assert delta["commits"] == delta["group_commits"] == 1
    assert delta["sessions_per_group"] == 2
    assert db.storage.lock_manager.holders(page) == set()
    assert db.verify_storage().ok
    assert bob.state_of(target) == "done"
    service.shutdown()
    db.storage.close()


def test_co_holder_query_stalls_like_any_observer():
    """Sharing a page to write it is not a licence to read it: bob's
    query on the page he co-holds with alice closes the group first."""
    db, service, _alice, bob, target, page = _alice_pending_on_a_page_bob_wants()
    bob.set_state(target, "done", 4)
    stats = db.storage.stats
    before = stats.snapshot()
    assert bob.state_of(target) == "done"
    delta = stats.delta(before)
    assert delta["commit_stalls"] == 1 and delta["commits"] == 1
    assert delta["sessions_per_group"] == 2
    assert db.storage.lock_manager.holders(page) == set()
    service.shutdown()
    db.storage.close()


def test_unit_dying_on_a_shared_page_gives_back_only_its_own_hold():
    db, service, alice, bob, target, page = _alice_pending_on_a_page_bob_wants()
    stalls_before = db.storage.stats.commit_stalls
    with pytest.raises(SchemaError):
        bob.record_step("measure", 4, [target], {"no_such_attr": 1})
    assert db.storage.stats.commit_stalls == stalls_before
    assert set(db.storage.lock_manager.holders(page)) == {"alice"}
    assert db.storage.lock_manager.held_pages("bob") == set()
    assert service._coordinator.pending_units == 1  # alice's, untouched
    alice.set_state(target, "done", 5)
    service.drain()
    assert db.storage.lock_manager.holders(page) == set()
    service.shutdown()
    db.storage.close()


def test_retry_budget_exhausts_against_foreign_lock():
    """A lock held outside any group (a foreign client on the same SM)
    cannot be flushed away: the bounded retry gives up with LockError."""
    db = _served_db()
    service = LabFlowService(db)
    alice = LocalClient(service, "alice")
    oid = alice.create_material("clone", "a-0", 1, state="active")
    alice.drain()
    sm = db.storage
    sm.attach_client("outsider")
    page = sm.pages_of(oid)[0]
    sm.lock_page("outsider", page)
    with pytest.raises(LockError):
        alice.set_state(oid, "busy", 2)
    sm.unlock_all("outsider")
    sm.detach_client("outsider")
    alice.set_state(oid, "busy", 3)  # free again
    service.shutdown()
    sm.close()


def test_completed_units_replay_in_completion_order():
    db = _served_db()
    service = LabFlowService(db, group_cap=4)
    alice = LocalClient(service, "alice")
    bob = LocalClient(service, "bob")
    a = alice.create_material("clone", "a-0", 1, state="active")
    bob.create_material("clone", "b-0", 2, state="busy")
    alice.record_step("measure", 3, [a], {"value": 5})
    alice.most_recent(a, "value")  # queries are not replayable state
    completed = service.completed_units()
    assert [op for _s, op, _a in completed] == [
        "create_material", "create_material", "record_step",
    ]
    assert completed[0][0] == "alice" and completed[1][0] == "bob"
    service.shutdown()
    db.storage.close()


def test_completed_units_log_is_bounded(monkeypatch):
    """A long-running server keeps the last N units, not all of them."""
    from repro.server import service_runner

    monkeypatch.setattr(service_runner, "COMPLETED_LOG_UNITS", 3)
    db = _served_db()
    service = LabFlowService(db, group_cap=4)
    alice = LocalClient(service, "alice")
    for n in range(5):
        alice.create_material("clone", f"a-{n}", n + 1, state="active")
    assert [args["key"] for _s, _op, args in service.completed_units()] == [
        "a-2", "a-3", "a-4",
    ]
    service.shutdown()
    db.storage.close()


def test_close_session_keeps_group_pending_units():
    """A session dying after completing units does not retract them:
    its close makes them durable in the one commit of their group."""
    db = _served_db()
    service = LabFlowService(db, group_cap=100)
    alice = LocalClient(service, "alice")
    oid = alice.create_material("clone", "a-0", 1, state="active")
    alice.record_step("measure", 2, [oid], {"value": 9})
    alice.close()
    assert service._coordinator.pending_units == 0
    service.drain()
    bob = LocalClient(service, "bob")
    assert bob.most_recent(oid, "value") == 9
    assert db.storage.stats.commits == 1
    service.shutdown()
    db.storage.close()


def test_closing_a_session_commits_its_pending_units_before_its_locks_go():
    """a's locks are what keep b from reading a's pending step; closing
    a must not drop them while that unit waits in the group.  The close
    makes the unit durable first, so b's query reads a committed value
    (it read the uncommitted one, with no stall, while the close only
    dropped the locks)."""
    db = _served_db()
    stats = db.storage.stats
    service = LabFlowService(db, group_cap=100)
    a = LocalClient(service, "a")
    b = LocalClient(service, "b")
    m = a.create_material("clone", "m", 1, state="active")
    a.record_step("measure", 2, [m], {"value": 1})
    service.drain()
    a.record_step("measure", 3, [m], {"value": 2})
    assert service._coordinator.pending_units == 1
    commits, stalls = stats.commits, stats.commit_stalls
    a.close()
    assert service._coordinator.pending_units == 0
    assert stats.commits == commits + 1
    assert db.storage.lock_manager.held_pages("a") == set()
    assert b.most_recent(m, "value") == 2
    assert stats.commit_stalls == stalls
    b.close()
    service.shutdown()
    db.storage.close()


def test_texas_serves_one_session_only():
    sm = TexasSM()
    db = LabBase(sm)
    bootstrap_schema(db)
    service = LabFlowService(db)
    solo = LocalClient(service, "solo")
    solo.create_material("clone", "only", 1)
    from repro.errors import ConcurrencyUnsupportedError
    with pytest.raises(ConcurrencyUnsupportedError):
        LocalClient(service, "second")
    service.shutdown()
    sm.close()


# -- the A6 acceptance property ---------------------------------------------


def _spread_clients(service, clients, fillers=40):
    """One material per client, each on its own page (filler-padded)."""
    tick = 0
    oids = []
    for index, client in enumerate(clients):
        tick += 1
        oids.append(
            client.create_material(
                "clone", f"{client.session}-m", tick, state="active"
            )
        )
        for filler in range(fillers):
            tick += 1
            clients[0].create_material("clone", f"fill-{index}-{filler}", tick)
    sm = service.db.storage
    pages = [sm.pages_of(oid)[0] for oid in oids]
    assert len(set(pages)) == len(pages), "expected one page per client"
    return oids, tick


def _commit_cost(tmp_path, label, group, sessions=4, rounds=6):
    # codec="pickle": the page-per-client spread (and the in-place record
    # growth it relies on) needs pickle's looser packing — the schema-aware
    # codec packs materials densely enough to share pages and relocate on
    # update, which would manufacture lock conflicts this test must not see.
    sm = ObjectStoreSM(
        path=os.path.join(str(tmp_path), f"{label}.pages"),
        checkpoint_every=1,
        codec="pickle",
    )
    db = LabBase(sm)
    bootstrap_schema(db)
    service = LabFlowService(db, group_cap=sessions if group else 1)
    clients = [LocalClient(service, f"c{i}") for i in range(sessions)]
    oids, tick = _spread_clients(service, clients)
    service.drain()
    before = sm.stats.snapshot()
    units = 0
    for _round in range(rounds):
        for client, oid in zip(clients, oids):
            tick += 1
            client.record_step("measure", tick, [oid], {"value": "x" * 200})
            units += 1
    service.drain()
    delta = sm.stats.delta(before)
    stalls = delta["commit_stalls"]
    service.shutdown()
    sm.close()
    return delta, units, stalls


def test_group_commit_costs_less_io_per_step(tmp_path):
    """Acceptance: 4 concurrent sessions through group commit cost
    strictly fewer io_batches + meta writes per committed step than the
    same 4 sessions committing one unit at a time."""
    grouped, units_on, stalls = _commit_cost(tmp_path, "grouped", group=True)
    sequential, units_off, _ = _commit_cost(tmp_path, "sequential", group=False)
    assert units_on == units_off and units_on > 0
    assert stalls == 0  # page-per-client spread: clean full-width groups
    assert grouped["commits"] < sequential["commits"]
    assert grouped["sessions_per_group"] / grouped["group_commits"] > 1.0

    grouped_cost = (grouped["io_batches"] + grouped["meta_bytes_written"]) / units_on
    sequential_cost = (
        sequential["io_batches"] + sequential["meta_bytes_written"]
    ) / units_off
    assert grouped_cost < sequential_cost
    # both addends move the right way on their own as well
    assert grouped["meta_bytes_written"] < sequential["meta_bytes_written"]
    assert grouped["io_batches"] <= sequential["io_batches"]


# -- socket layer ------------------------------------------------------------


@pytest.fixture
def served(tmp_path):
    db = _served_db(tmp_path, checkpoint_every=1)
    service = LabFlowService(db, group_cap=4)
    runner = ServiceRunner(service)
    host, port = runner.start()
    yield host, port, service, db
    runner.stop()
    db.storage.close()


def test_socket_roundtrip(served):
    host, port, _service, _db = served
    alice = ServiceClient(host, port, "alice")
    oid = alice.create_material("clone", "a-0", 1, state="active")
    alice.record_step("measure", 2, [oid], {"value": 11})
    assert alice.most_recent(oid, "value") == 11
    with pytest.raises(DuplicateKeyError):  # typed errors survive the wire
        alice.create_material("clone", "a-0", 3)
    stats = alice.stats()
    assert stats["objects_written"] > 0
    alice.drain()
    assert alice.verify_ok()
    alice.close()


# Per data op: a valid call's args on a database holding one material
# (oid ``m``, key "k-1", one step) and one argument to mistype in them.
_BOTH_PATHS = {
    "create_material": (
        lambda m: {"class_name": "clone", "key": "k-2", "valid_time": 5,
                   "state": "busy"},
        {"key": 123},
    ),
    "record_step": (
        lambda m: {"class_name": "measure", "valid_time": 5, "involves": [m],
                   "results": {"value": 3}},
        {"involves": ["x"]},
    ),
    "set_state": (
        lambda m: {"material_oid": m, "state": "done", "valid_time": 5},
        {"state": None},
    ),
    "most_recent": (
        lambda m: {"material_oid": m, "attribute": "value"},
        {"attribute": 7},
    ),
    "state_of": (lambda m: {"material_oid": m}, {"material_oid": 1.5}),
    "lookup": (
        lambda m: {"class_name": "clone", "key": "k-1"}, {"class_name": None}
    ),
    "in_state": (lambda m: {"state": "active"}, {"state": ["active"]}),
    "history_len": (lambda m: {"material_oid": m}, {"material_oid": "seven"}),
}


def _both_paths_outcome(client, op):
    """What a valid call answers and what a mistyped one raises."""
    oid = client.create_material("clone", "k-1", 1, state="active")
    client.record_step("measure", 2, [oid], {"value": 7})
    valid, mistyped = _BOTH_PATHS[op]
    args = valid(oid)
    with pytest.raises(ProtocolError) as refused:
        client.call(op, **{**args, **mistyped})
    return client.call(op, **args), type(refused.value)


def test_the_op_table_holds_the_first_op_codes():
    assert [row.name for row in DATA_OPS] == list(OPS[:len(DATA_OPS)]) == [
        "create_material", "record_step", "set_state", "most_recent",
        "state_of", "lookup", "in_state", "history_len",
    ]
    assert set(_BOTH_PATHS) == {row.name for row in DATA_OPS}


@pytest.mark.parametrize("op", [row.name for row in DATA_OPS])
def test_local_and_socket_clients_agree(op):
    """The in-process client and the socket client answer a data op
    alike, and refuse its mistyped argument alike."""
    db = _served_db()
    service = LabFlowService(db, group_cap=1)
    local = _both_paths_outcome(LocalClient(service, "c"), op)
    service.shutdown()
    db.storage.close()

    db = _served_db()
    runner = ServiceRunner(LabFlowService(db, group_cap=1))
    host, port = runner.start()
    client = ServiceClient(host, port, "c")
    try:
        served = _both_paths_outcome(client, op)
    finally:
        client.close()
        runner.stop()
        db.storage.close()
    assert local == served


def _ask(host, port, op):
    """One sessionless request on a connection of its own."""
    channel = Channel(socket.create_connection((host, port)))
    try:
        response = channel.roundtrip(Request(op=op))
    finally:
        channel.close()
    assert response.ok, response.error
    return response.value


def test_four_concurrent_socket_clients(served):
    host, port, _service, _db = served
    summary = run_concurrent_clients(host, port, clients=4, units=16)
    assert summary["creates"] == 16  # 4 clients x 4 materials
    assert summary["steps"] + summary["state_sets"] + summary["queries"] > 0
    assert summary["conflicts"] == 0  # retries absorbed every conflict
    _ask(host, port, "drain")
    assert _ask(host, port, "verify")["ok"]
    assert _ask(host, port, "sample")["open_sessions"] == 0  # all detached cleanly


def test_server_stop_is_clean(tmp_path):
    db = _served_db(tmp_path)
    service = LabFlowService(db)
    runner = ServiceRunner(service)
    host, port = runner.start()
    client = ServiceClient(host, port, "c")
    client.create_material("clone", "x", 1)
    runner.stop()  # drains and closes remaining sessions
    assert service.open_sessions() == []
    with pytest.raises((ServerError, OSError, ProtocolError)):
        client.create_material("clone", "y", 2)
    db.storage.close()


# -- one owning thread -------------------------------------------------------


def _in_thread(call):
    """Run ``call`` on a thread named ``intruder``; what it returned, or
    the exception it raised."""
    outcome = []

    def run():
        try:
            outcome.append(call())
        except Exception as exc:  # handed back to the asserting thread
            outcome.append(exc)

    thread = threading.Thread(target=run, name="intruder")
    thread.start()
    thread.join(10.0)
    assert not thread.is_alive()
    return outcome[0]


#: Every entry point that reads or changes service state.
_ENTRY_POINTS = {
    "open_sessions": lambda service, oid: service.open_sessions(),
    "completed_units": lambda service, oid: service.completed_units(),
    "stats_snapshot": lambda service, oid: service.stats_snapshot(),
    "sample": lambda service, oid: service.sample(),
    "open_session": lambda service, oid: service.open_session("mallory"),
    "close_session": lambda service, oid: service.close_session("alice"),
    "submit": lambda service, oid: service.submit(
        "alice", "set_state",
        {"material_oid": oid, "state": "done", "valid_time": 9},
    ),
    "drain": lambda service, oid: service.drain(),
    "shutdown": lambda service, oid: service.shutdown(),
}


def _service_state(service, db):
    lock_manager = db.storage.lock_manager
    locks = {
        page: lock_manager.holders(page)
        for page in sorted(lock_manager.held_pages("alice"))
    }
    return (
        service.open_sessions(),
        service.completed_units(),
        locks,
        service.stats_snapshot(),
    )


def test_a_second_thread_is_refused_before_it_touches_anything(tmp_path):
    db = _served_db(tmp_path, checkpoint_every=1)
    service = LabFlowService(db, group_cap=4)
    alice = LocalClient(service, "alice")
    oid = alice.create_material("clone", "a-0", 1, state="active")
    alice.set_state(oid, "busy", 2)  # pending in the open group: X lock held
    before = _service_state(service, db)
    assert before[2], "alice should hold her page until the group closes"
    for name, call in _ENTRY_POINTS.items():
        refused = _in_thread(lambda: call(service, oid))
        assert isinstance(refused, ServerError), name
        assert "'MainThread'" in str(refused) and "'intruder'" in str(refused)
    assert _service_state(service, db) == before
    alice.close()
    service.shutdown()
    db.storage.close()


def test_the_loop_owns_the_running_service_and_the_stopper_after(tmp_path):
    db = _served_db(tmp_path)
    service = LabFlowService(db)
    runner = ServiceRunner(service)
    host, port = runner.start()
    alice = ServiceClient(host, port, "alice")
    oid = alice.create_material("clone", "a-0", 1, state="active")
    # The thread that built the service is refused like any other...
    with pytest.raises(ServerError, match="'labflow-loop'"):
        service.open_sessions()
    # ...and so would a thread per connection be, applying its own frames.
    refused = _in_thread(lambda: apply_request(service, Request(
        op="state_of", session="alice", args={"material_oid": oid},
    )))
    assert isinstance(refused, ServerError)
    assert alice.state_of(oid) == "active"  # the loop serves as ever
    alice.close()
    assert _in_thread(lambda: (runner.stop(), service.open_sessions())[1]) == []
    with pytest.raises(ServerError):  # the stopper took it, not this thread
        service.drain()
    db.storage.close()


def test_client_runner_is_deterministic(tmp_path):
    tallies = []
    for run in range(2):
        db = _served_db()
        service = LabFlowService(db)
        client = LocalClient(service, "det")
        tallies.append(ClientRunner(client, seed=42).run(20))
        service.shutdown()
        db.storage.close()
    assert tallies[0] == tallies[1]

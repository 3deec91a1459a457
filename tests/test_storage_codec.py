"""Unit + property tests for the schema-aware record codec.

The codec is the storage stack's wire format (ISSUE 9): fixed layouts
for the three closed-schema record kinds behind one-byte tags, raw
protocol-4 pickle for everything else, and an attribute-name intern
table persisted with the meta blob.  The safety net here is the PR's
acceptance contract:

* encode/decode identity for random plain data under both codecs,
* exact StorageError translation for truncated / corrupt payloads on
  every fast-path tag,
* identical query answers on every server version under both
  codecs,
* per-codec bit-identical determinism of the database files, and
* a mixed-era database (written under ``pickle``, extended under
  ``labf``) that keeps answering.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.labbase import LabBase, model
from repro.storage import SERVER_VERSIONS, ObjectStoreSM
from repro.storage.codec import (
    CODEC_NAMES,
    COMPRESS_MIN_BYTES,
    DEFAULT_CODEC,
    TAG_DEFLATE,
    TAG_HISTORY_NODE,
    TAG_MATERIAL,
    TAG_PICKLE,
    TAG_PICKLE_RAW,
    TAG_PLAIN,
    TAG_STEP,
    RecordCodec,
)
from repro.storage.stats import StorageStats

from tests.test_readahead_equivalence import _answers, _run_workload


def _codec(mode: str) -> RecordCodec:
    return RecordCodec(mode, StorageStats())


def _step() -> dict:
    return model.make_step(
        3, 1_234_567,
        [("quality", 0.5), ("state", "active"), ("sequence", "ACGT" * 40)],
        [101, 203, 207],
    )


def _material() -> dict:
    material = model.make_material("tclone", "clone-000123", 1234)
    material["recent"] = {
        "state": [1234, 55, True, "active"],
        "quality": [1300, 60, True, 0.5],
        "length": [1300, 60, True, 160],
    }
    material["history_head"] = 77
    material["history_len"] = 19
    return material


def _history() -> dict:
    return model.make_history_node([1000 + 3 * i for i in range(32)], model.NIL)


FAST_RECORDS = {
    TAG_STEP: _step,
    TAG_MATERIAL: _material,
    TAG_HISTORY_NODE: _history,
}


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", sorted(FAST_RECORDS))
def test_fast_path_round_trip_uses_its_tag(tag):
    codec = _codec("labf")
    record = FAST_RECORDS[tag]()
    payload = codec.encode(record)
    assert payload[0] == tag
    assert codec.decode(payload) == record
    assert codec.decode(memoryview(payload)) == record
    assert codec._stats.records_fast_path == 1


def test_pickle_mode_never_takes_the_fast_path():
    codec = _codec("pickle")
    for build in FAST_RECORDS.values():
        payload = codec.encode(build())
        assert payload[0] == TAG_PICKLE_RAW  # a protocol-4 pickle
    assert codec._stats.records_fast_path == 0
    assert codec._stats.records_fallback == len(FAST_RECORDS)


def test_cross_codec_decode_is_mode_independent():
    """Either codec decodes any payload: dispatch is by tag, not mode."""
    for enc_mode in CODEC_NAMES:
        for dec_mode in CODEC_NAMES:
            encoder, decoder = _codec(enc_mode), _codec(dec_mode)
            decoder.restore_intern(encoder.intern_names())
            for build in FAST_RECORDS.values():
                record = build()
                payload = encoder.encode(record)
                decoder.restore_intern(encoder.intern_names())
                assert decoder.decode(payload) == record


def test_large_fast_payloads_deflate_and_round_trip():
    codec = _codec("labf")
    record = model.make_step(
        1, 10, [("sequence", "ACGTTGCA" * 300)], [5]
    )
    payload = codec.encode(record)
    assert payload[0] == TAG_DEFLATE
    assert len(payload) < COMPRESS_MIN_BYTES * 4
    assert codec.decode(payload) == record
    assert codec.decode(memoryview(payload)) == record


_plain = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.floats(allow_nan=False)
    | st.text(max_size=40)
    | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(obj=_plain, mode=st.sampled_from(CODEC_NAMES))
def test_round_trip_fuzz_property(obj, mode):
    codec = _codec(mode)
    payload = codec.encode(obj)
    assert codec.decode(payload) == obj
    assert codec.decode(memoryview(payload)) == obj
    assert codec.decode(bytearray(payload)) == obj


@settings(max_examples=75, deadline=None)
@given(obj=_plain)
def test_encode_is_deterministic_per_codec(obj):
    for mode in CODEC_NAMES:
        assert _codec(mode).encode(obj) == _codec(mode).encode(obj)


@settings(max_examples=50, deadline=None)
@given(
    results=st.lists(
        st.tuples(
            st.text(min_size=1, max_size=12),
            st.one_of(
                st.integers(min_value=-(2**40), max_value=2**40),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=60),
                st.none(),
                st.booleans(),
            ),
        ),
        max_size=8,
    ),
    involves=st.lists(st.integers(min_value=0, max_value=2**40), max_size=6),
    valid_time=st.integers(min_value=0, max_value=2**48),
)
def test_step_fuzz_takes_fast_path_and_round_trips(results, involves, valid_time):
    codec = _codec("labf")
    record = model.make_step(2, valid_time, results, involves)
    payload = codec.encode(record)
    assert codec._stats.records_fast_path == 1
    assert codec.decode(payload) == record


# ---------------------------------------------------------------------------
# corruption: every fast-path tag must fail closed with StorageError
# ---------------------------------------------------------------------------


def _fast_payloads() -> "tuple[RecordCodec, dict[int, bytes]]":
    codec = _codec("labf")
    payloads = {
        tag: codec.encode(build()) for tag, build in FAST_RECORDS.items()
    }
    big = model.make_step(1, 10, [("sequence", "ACGTTGCA" * 300)], [5])
    payloads[TAG_DEFLATE] = codec.encode(big)
    for tag, payload in payloads.items():
        assert payload[0] == tag
    decoder = _codec("labf")
    decoder.restore_intern(codec.intern_names())
    return decoder, payloads


def test_truncated_payloads_raise_storage_error():
    decoder, payloads = _fast_payloads()
    for tag, payload in payloads.items():
        for cut in range(1, len(payload)):
            truncated = payload[:cut]
            try:
                decoded = decoder.decode(truncated)
            except StorageError:
                continue
            # A prefix that still parses may only happen if it is a
            # complete value — never silently half a record.
            raise AssertionError(
                f"tag {tag:#04x} cut at {cut} decoded to {decoded!r}"
            )


def test_trailing_garbage_raises_storage_error():
    decoder, payloads = _fast_payloads()
    for tag, payload in payloads.items():
        if tag == TAG_DEFLATE:
            continue  # trailing bytes there break the deflate stream
        with pytest.raises(StorageError, match="trailing"):
            decoder.decode(payload + b"\x00")


def test_unknown_tag_raises_storage_error():
    with pytest.raises(StorageError, match="unknown codec tag"):
        _codec("labf").decode(b"\x7f\x00\x00")


def test_empty_payload_raises_storage_error():
    with pytest.raises(StorageError, match="empty"):
        _codec("labf").decode(b"")


def test_bad_deflate_envelope_raises_storage_error():
    decoder, payloads = _fast_payloads()
    payload = payloads[TAG_DEFLATE]
    clobbered = payload[:4] + bytes(len(payload) - 4)
    with pytest.raises(StorageError, match="corrupt record payload"):
        decoder.decode(clobbered)


def test_intern_id_beyond_table_raises_storage_error():
    encoder = _codec("labf")
    payload = encoder.encode(_step())
    # A decoder that never saw the meta blob has an empty intern table.
    with pytest.raises(StorageError, match="intern"):
        _codec("labf").decode(payload)


def test_corrupt_pickle_fallback_raises_storage_error():
    for lead in (bytes((TAG_PICKLE_RAW,)), bytes((TAG_PICKLE,))):
        with pytest.raises(StorageError, match="corrupt"):
            _codec("labf").decode(lead + b"not a pickle at all")


def test_plain_tag_decodes_the_value_grammar():
    # TAG_PLAIN is decode-only compatibility: accept it, round-trip by
    # re-encoding the decoded value.
    codec = _codec("labf")
    with pytest.raises(StorageError):
        codec.decode(bytes((TAG_PLAIN,)))


# ---------------------------------------------------------------------------
# intern table lifecycle
# ---------------------------------------------------------------------------


def test_intern_table_persists_and_restores():
    encoder = _codec("labf")
    record = _step()
    payload = encoder.encode(record)
    names = encoder.intern_names()
    assert set(names) >= {"quality", "state", "sequence"}

    restored = _codec("labf")
    restored.restore_intern(names)
    assert restored.decode(payload) == record
    # Re-encoding under the restored table is bit-identical.
    assert restored.encode(record) == payload


# ---------------------------------------------------------------------------
# whole-database properties
# ---------------------------------------------------------------------------

def _open(cls, directory: str, codec: str):
    if not cls.persistent:
        return cls(codec=codec)
    return cls(
        path=os.path.join(directory, "db.pages"),
        buffer_pages=64,
        readahead_pages=0,
        codec=codec,
    )


def _file_bytes(directory: str) -> dict[str, bytes]:
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(codes=st.lists(st.integers(0, 9999), min_size=6, max_size=30))
def test_codec_choice_preserves_answers_on_every_backend(codes):
    """Same answers on every server version under both codecs."""
    snapshots = {}
    with tempfile.TemporaryDirectory() as workdir:
        for cls in SERVER_VERSIONS:
            for codec in CODEC_NAMES:
                directory = os.path.join(workdir, f"{cls.name}-{codec}")
                os.makedirs(directory)
                sm = _open(cls, directory, codec)
                db = LabBase(sm)
                _run_workload(db, codes)
                snapshots[(cls.name, codec)] = _answers(db)
                sm.close()
    reference = snapshots[(SERVER_VERSIONS[0].name, CODEC_NAMES[0])]
    for key, snapshot in snapshots.items():
        assert snapshot == reference, key


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(codes=st.lists(st.integers(0, 9999), min_size=6, max_size=30))
def test_each_codec_is_bit_identical_across_runs(codes):
    """Determinism floor: same workload, same codec => same files."""
    with tempfile.TemporaryDirectory() as workdir:
        for codec in CODEC_NAMES:
            images = []
            for attempt in range(2):
                directory = os.path.join(workdir, f"{codec}-{attempt}")
                os.makedirs(directory)
                sm = ObjectStoreSM(
                    path=os.path.join(directory, "db.pages"),
                    buffer_pages=64,
                    codec=codec,
                )
                db = LabBase(sm)
                _run_workload(db, codes)
                sm.close()
                images.append(_file_bytes(directory))
            assert images[0] == images[1], codec


def test_mixed_codec_era_database_reopens_and_extends(tmp_path):
    """A pickle-era database keeps working when reopened under labf."""
    path = os.path.join(tmp_path, "db.pages")
    codes = list(range(0, 40, 3))

    sm = ObjectStoreSM(path=path, buffer_pages=64, codec="pickle")
    db = LabBase(sm)
    _run_workload(db, codes)
    before = _answers(db)
    assert sm.stats.records_fast_path == 0
    sm.close()

    # Reopen under labf: old pickle records decode by tag, new writes
    # take the fast path, and the intern table starts filling in.
    sm = ObjectStoreSM(path=path, buffer_pages=64, codec="labf")
    db = LabBase(sm)
    assert _answers(db) == before
    oid = db.create_material("clone", "era-2", 100, state="active")
    for t in range(101, 110):
        db.record_step("assay", t, [oid], {"q": t, "r": "mixed"})
    db.set_state(oid, "done", 110)
    extended = _answers(db)
    assert sm.stats.records_fast_path > 0
    assert db.verify_storage().ok
    sm.close()

    # And once more under labf: the intern table round-trips the meta
    # blob, so the mixed-era records still answer identically.
    sm = ObjectStoreSM(path=path, buffer_pages=64, codec="labf")
    db = LabBase(sm)
    assert _answers(db) == extended
    sm.close()


def test_default_codec_is_labf():
    assert DEFAULT_CODEC == "labf"
    with tempfile.TemporaryDirectory() as workdir:
        sm = ObjectStoreSM(path=os.path.join(workdir, "db.pages"))
        assert sm.codec_name == "labf"
        sm.close()


# ---------------------------------------------------------------------------
# the commit-batched most-recent index
# ---------------------------------------------------------------------------


def _recent_snapshot(db: LabBase, oid: int) -> dict:
    return {
        "attrs": db.current_attributes(oid),
        "state": db.state_of(oid),
        "history_len": db.history_length(oid),
    }


def test_batched_index_matches_autocommit_installs(tmp_path):
    """One transaction's batched install == the same steps autocommitted."""
    snapshots = {}
    for label, transactional in (("txn", True), ("auto", False)):
        sm = ObjectStoreSM(
            path=os.path.join(tmp_path, f"{label}.pages"), buffer_pages=64
        )
        db = LabBase(sm)
        db.define_material_class("clone")
        db.define_step_class("assay", ["q", "r"], ["clone"])
        oid = db.create_material("clone", "c-1", 1, state="active")
        if transactional:
            db.begin()
        for t in range(2, 12):
            db.record_step("assay", t, [oid], {"q": t, "r": f"v{t}"})
        if transactional:
            db.commit()
        snapshots[label] = _recent_snapshot(db, oid)
        sm.close()
    assert snapshots["txn"] == snapshots["auto"]


def test_batched_index_discarded_on_abort(tmp_path):
    sm = ObjectStoreSM(path=os.path.join(tmp_path, "db.pages"), buffer_pages=64)
    db = LabBase(sm)
    db.define_material_class("clone")
    db.define_step_class("assay", ["q"], ["clone"])
    oid = db.create_material("clone", "c-1", 1, state="active")
    db.record_step("assay", 2, [oid], {"q": 10})
    before = _recent_snapshot(db, oid)
    db.begin()
    db.record_step("assay", 3, [oid], {"q": 99})
    db.abort()
    assert _recent_snapshot(db, oid) == before
    sm.close()

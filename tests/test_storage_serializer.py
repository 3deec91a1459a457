"""Unit + property tests for the plain-data grammar and for record
round trips through :class:`RecordCodec` in both codec modes."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError
from repro.storage import serializer
from repro.storage.codec import CODEC_NAMES, RecordCodec
from repro.storage.stats import StorageStats

_CODECS = [RecordCodec(mode, StorageStats()) for mode in CODEC_NAMES]


def _round_trip(value, wrap=bytes):
    """``value`` decoded from each mode's encoding, ``wrap``ped."""
    return [codec.decode(wrap(codec.encode(value))) for codec in _CODECS]


def _encode_raises(value, match=None):
    for codec in _CODECS:
        with pytest.raises(StorageError, match=match):
            codec.encode(value)


class _NotPlain:
    pass


def test_round_trip_scalars():
    for value in (None, True, False, 0, -5, 3.25, "text", b"bytes"):
        assert _round_trip(value) == [value, value]


def test_round_trip_collections():
    value = {"a": [1, 2, (3, 4)], "b": {"nested": {5, 6}}, 7: "int key"}
    assert _round_trip(value) == [value, value]


def test_rejects_class_instances():
    _encode_raises(_NotPlain(), match="plain data")


def test_rejects_instances_nested_in_collections():
    _encode_raises({"ok": [1, 2, _NotPlain()]})


def test_rejects_instance_dict_keys():
    _encode_raises({(1, _NotPlain()): "x"})


def test_rejects_excessive_nesting():
    deep: list = []
    current = deep
    for _ in range(200):
        inner: list = []
        current.append(inner)
        current = inner
    _encode_raises(deep, match="100 levels")


def test_corrupt_payload_raises_storage_error():
    for codec in _CODECS:
        with pytest.raises(StorageError, match="corrupt"):
            codec.decode(b"\x00not a pickle")


_plain = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=30)
    | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(_plain)
def test_round_trip_property(obj):
    assert _round_trip(obj) == [obj, obj]


@given(_plain)
def test_serialization_is_deterministic(obj):
    for codec in _CODECS:
        assert codec.encode(obj) == codec.encode(obj)


# ---------------------------------------------------------------------------
# the documented grammar, exactly (ISSUE 9 satellite)
# ---------------------------------------------------------------------------


class _IntSubclass(int):
    pass


class _StrSubclass(str):
    pass


def test_accepts_scalar_subclasses():
    # Subclasses survive a pickle round-trip as their subclass, which is
    # all the storage contract promises.
    for value in (_IntSubclass(7), _StrSubclass("x"), True):
        serializer.validate_plain_data(value)
        assert _round_trip(value) == [value, value]


def test_accepts_frozenset_containers():
    value = {"tags": frozenset({"a", "b"}), "sets": [frozenset({1, 2})]}
    assert _round_trip(value) == [value, value]


def test_accepts_container_dict_keys():
    # Hashable plain data is a legal dict key: tuples and frozensets of
    # plain data pass through the validator.
    value = {
        (1, "pair"): "tuple key",
        frozenset({"a"}): "frozenset key",
        ((1, 2), (3,)): "nested tuple key",
    }
    assert _round_trip(value) == [value, value]


_hashable_plain = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.text(max_size=12)
    | st.binary(max_size=12),
    lambda children: st.lists(children, max_size=3).map(tuple)
    | st.frozensets(st.integers(0, 99) | st.text(max_size=6), max_size=3),
    max_leaves=8,
)


@given(st.dictionaries(_hashable_plain, _plain, max_size=4))
def test_container_dict_keys_property(obj):
    """Any hashable-plain-data key round-trips, per the grammar."""
    assert _round_trip(obj) == [obj, obj]


@given(_plain)
def test_deserialize_accepts_memoryview_and_bytearray(obj):
    assert _round_trip(obj, memoryview) == [obj, obj]
    assert _round_trip(obj, bytearray) == [obj, obj]


def test_memoryview_deserialize_is_zero_copy_compatible():
    # A non-trivial offset view must decode without the caller
    # materializing bytes.
    value = {"k": list(range(50))}
    assert _round_trip(value, lambda p: memoryview(b"\xff\xff" + p)[2:]) == [
        value, value
    ]


# ---------------------------------------------------------------------------
# the swept validator against the element-by-element walk it replaced
# ---------------------------------------------------------------------------


def _reference_validate(obj: object, _depth: int = 0) -> None:
    """The original recursive walk, one Python call per element — kept
    here as the reference the C-speed sweep must agree with."""
    if _depth > 100:
        raise StorageError("record nests deeper than 100 levels (cycle?)")
    if isinstance(obj, (type(None), bool, int, float, str, bytes)):
        return
    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            _reference_validate(item, _depth + 1)
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            _reference_validate(key, _depth + 1)
            _reference_validate(value, _depth + 1)
        return
    raise StorageError(f"records must be plain data; got {type(obj).__name__}")


def _verdict(validate, obj) -> str:
    try:
        validate(obj)
    except StorageError as exc:
        return str(exc)
    return "accepted"


def _nest(leaf: object, levels: int, wrap) -> object:
    for _ in range(levels):
        leaf = wrap(leaf)
    return leaf


class _Hashable:
    def __hash__(self) -> int:
        return 7


_maybe_plain = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.binary(max_size=6)
    | st.builds(_IntSubclass, st.integers(0, 9))
    | st.builds(_StrSubclass, st.text(max_size=3))
    | st.builds(_NotPlain)
    | st.builds(_Hashable)
    | st.just(object),  # a type, not an instance
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(
        st.integers(0, 9) | st.text(max_size=3) | st.builds(_Hashable),
        children,
        max_size=3,
    )
    | st.frozensets(st.integers(0, 99) | st.builds(_Hashable), max_size=3)
    | st.sets(st.text(max_size=3), max_size=3),
    max_leaves=12,
)


@given(_maybe_plain)
def test_swept_validator_agrees_with_reference_walk(obj):
    """Accept/reject — and the message of the first error found — are
    those of the element-by-element walk."""
    assert _verdict(serializer.validate_plain_data, obj) == _verdict(
        _reference_validate, obj
    )


@given(
    st.integers(0, 5000),
    st.sampled_from([_NotPlain(), _Hashable(), [_NotPlain()], {1: _NotPlain()}]),
    st.sampled_from([list, tuple]),
)
def test_offender_hidden_in_a_long_flat_list_is_found(position, offender, kind):
    flat = list(range(5000))
    flat.insert(position, offender)
    obj = {"members": kind(flat)}
    verdict = _verdict(serializer.validate_plain_data, obj)
    assert verdict == _verdict(_reference_validate, obj)
    assert "plain data" in verdict


@pytest.mark.parametrize("levels", [99, 100, 101, 102])
@pytest.mark.parametrize(
    "wrap",
    [lambda x: [x], lambda x: (x,), lambda x: {"k": x}],
    ids=["list", "tuple", "dict-value"],
)
@pytest.mark.parametrize(
    "leaf", [0, (), [], {}, _IntSubclass(1), "pad"], ids=repr
)
def test_depth_bound_is_where_the_reference_puts_it(levels, wrap, leaf):
    obj = _nest(leaf, levels, wrap)
    verdict = _verdict(serializer.validate_plain_data, obj)
    assert verdict == _verdict(_reference_validate, obj)
    if levels >= 102:
        assert "deeper than 100" in verdict
    if levels <= 99:
        assert verdict == "accepted"


@pytest.mark.parametrize("levels", [98, 99, 100, 101])
def test_depth_bound_applies_to_dict_keys(levels):
    obj = {_nest(0, levels, lambda x: (x,)): "deep key"}
    assert _verdict(serializer.validate_plain_data, obj) == _verdict(
        _reference_validate, obj
    )


def test_long_flat_containers_are_swept_not_walked():
    """The point of the sweep: no Python-level call per element."""
    import sys

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "validate_plain_data":
            calls += 1

    record = {"members": list(range(5000)), "by_state": {"a": tuple(range(5000))}}
    sys.setprofile(count)
    try:
        serializer.validate_plain_data(record)
    finally:
        sys.setprofile(None)
    assert calls <= 5

"""Unit + property tests for the deterministic RNG."""

import hashlib
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmark import TINY, LabFlowWorkload, server_spec
from repro.labbase import LabBase
from repro.util.rng import DeterministicRng


def reference_dna(rng, length):
    """The per-base loop ``DeterministicRng.dna`` must reproduce word for
    word: one ``random.choice`` over the four bases per base."""
    return "".join(rng.choice("ACGT") for _ in range(length))


def test_same_seed_same_stream():
    a = DeterministicRng(42)
    b = DeterministicRng(42)
    assert [a.randint(0, 1000) for _ in range(50)] == [
        b.randint(0, 1000) for _ in range(50)
    ]


def test_different_seeds_differ():
    a = [DeterministicRng(1).randint(0, 10**9) for _ in range(5)]
    b = [DeterministicRng(2).randint(0, 10**9) for _ in range(5)]
    assert a != b


def test_substreams_are_independent_of_draw_order():
    """Drawing from one substream must not perturb another."""
    a = DeterministicRng(7)
    a.substream("x").randint(0, 10**9)  # extra draw on x
    from_a = a.substream("y").randint(0, 10**9)

    b = DeterministicRng(7)
    from_b = b.substream("y").randint(0, 10**9)
    assert from_a == from_b


def test_substream_is_cached():
    rng = DeterministicRng(1)
    assert rng.substream("s") is rng.substream("s")


def test_dna_alphabet_and_length():
    seq = DeterministicRng(3).dna(500)
    assert len(seq) == 500
    assert set(seq) <= set("ACGT")


def test_identifier_shape():
    ident = DeterministicRng(3).identifier("clone")
    prefix, _, digits = ident.rpartition("-")
    assert prefix == "clone"
    assert len(digits) == 6 and digits.isdigit()


def test_gaussian_int_respects_minimum():
    rng = DeterministicRng(9)
    values = [rng.gaussian_int(2, 10, minimum=0) for _ in range(200)]
    assert all(v >= 0 for v in values)


def test_weighted_choice_respects_zero_weight():
    rng = DeterministicRng(5)
    picks = {rng.weighted_choice(("a", "b"), (1.0, 0.0)) for _ in range(50)}
    assert picks == {"a"}


def test_chance_extremes():
    rng = DeterministicRng(5)
    assert not any(rng.chance(0.0) for _ in range(20))
    assert all(rng.chance(1.0) for _ in range(20))


@given(st.integers(min_value=0, max_value=2**32), st.text(string.ascii_lowercase, min_size=1, max_size=8))
def test_substream_reproducible_property(seed, name):
    first = DeterministicRng(seed).substream(name).randint(0, 10**9)
    second = DeterministicRng(seed).substream(name).randint(0, 10**9)
    assert first == second


@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 100), st.integers(0, 100))
def test_randint_within_bounds(seed, low, span):
    value = DeterministicRng(seed).randint(low, low + span)
    assert low <= value <= low + span


# -- dna draws the per-base loop's words, in bulk ----------------------------

_OTHER_DRAWS = {
    "gaussian_int": lambda rng: rng.gaussian_int(400, 120, minimum=50),
    "identifier": lambda rng: rng.identifier("gb"),
    "randint": lambda rng: rng.randint(0, 10_000),
    "chance": lambda rng: rng.chance(0.3),
}


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64),
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=2_000),
            st.sampled_from(sorted(_OTHER_DRAWS)),
        ),
        max_size=8,
    ),
)
def test_dna_matches_the_per_base_loop_and_leaves_the_same_state(seed, draws):
    shipped, reference = DeterministicRng(seed), DeterministicRng(seed)
    for draw in draws:
        if isinstance(draw, int):
            assert shipped.dna(draw) == reference_dna(reference, draw)
        else:
            assert _OTHER_DRAWS[draw](shipped) == _OTHER_DRAWS[draw](reference)
    # The generators are still aligned: whatever is drawn next agrees.
    assert shipped.dna(17) == reference_dna(reference, 17)
    assert shipped.randint(0, 2**64) == reference.randint(0, 2**64)


def _stream_files(tmp_path, server, monkeypatch, dna):
    monkeypatch.setattr(DeterministicRng, "dna", dna)
    config = TINY.with_(db_dir=str(tmp_path))
    sm = server_spec(server).make(config)
    LabFlowWorkload(LabBase(sm), config).run_all()
    stats = sm.stats.snapshot()
    sm.close()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    return digests, stats


@pytest.mark.parametrize("server", ["OStore", "Texas"])
def test_whole_stream_is_the_per_base_loops_byte_for_byte(tmp_path, server, monkeypatch):
    """The E1 stream written with the reference ``dna`` and with the
    shipped one: the same database files and the same counters."""
    calls = []

    def counted_reference(rng, length):
        calls.append(length)
        return reference_dna(rng, length)

    shipped = _stream_files(tmp_path / "shipped", server, monkeypatch, DeterministicRng.dna)
    reference = _stream_files(tmp_path / "reference", server, monkeypatch, counted_reference)
    assert calls, "the stream drew no DNA"
    assert {name.rsplit(".", 1)[-1] for name in shipped[0]} >= {"db", "meta"}
    assert shipped == reference

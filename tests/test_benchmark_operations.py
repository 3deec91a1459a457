"""Unit tests for the query mix and registry."""

import pytest

from repro.benchmark.operations import (
    CLASS_ATTRIBUTES,
    QUERY_MIX,
    MaterialRegistry,
    OperationTally,
    QueryRunner,
)
from repro.errors import ConfigError
from repro.labbase import LabBase, LabClock
from repro.storage import OStoreMM
from repro.util.rng import DeterministicRng


@pytest.fixture
def setup():
    db = LabBase(OStoreMM())
    clock = LabClock()
    db.define_material_class("clone")
    db.define_material_class("tclone", parent="clone")
    db.define_material_class("gel")
    db.define_step_class("determine_sequence", ["sequence", "quality", "read_length"], ["tclone"])
    db.define_step_class("blast_search", ["hits"], ["clone"])
    registry = MaterialRegistry()
    clone = db.create_material("clone", "c-1", clock.tick(), state="waiting_for_assembly")
    tclone = db.create_material("tclone", "tc-1", clock.tick(), state="waiting_for_sequencing")
    registry.add("clone", "c-1", clone)
    registry.add("tclone", "tc-1", tclone)
    db.record_step("determine_sequence", clock.tick(), [tclone], {"quality": 0.8})
    db.record_step("blast_search", clock.tick(), [clone], {"hits": [{"s": 1}, {"s": 2}]})
    runner = QueryRunner(db, registry, DeterministicRng(5))
    return db, registry, runner, clone, tclone


def test_query_mix_weights_are_normalized_enough():
    total = sum(weight for _op, weight in QUERY_MIX)
    assert abs(total - 1.0) < 1e-9
    assert all(weight > 0 for _op, weight in QUERY_MIX)


def test_registry_random_and_counts():
    registry = MaterialRegistry()
    rng = DeterministicRng(1)
    assert registry.random(rng) is None
    registry.add("clone", "c-1", 10)
    assert registry.random(rng) == ("clone", "c-1", 10)
    assert registry.random(rng, "tclone") is None
    assert registry.count() == 1


def test_q1_lookup(setup):
    _db, _registry, runner, clone, tclone = setup
    assert runner.run_q1() in (clone, tclone)
    assert runner.tally.counts["Q1"] == 1


def test_q2_most_recent_tolerates_missing(setup):
    _db, _registry, runner, *_ = setup
    for _ in range(10):
        runner.run_q2()  # must never raise, attrs often absent
    assert runner.tally.counts["Q2"] == 10


def test_q3_state_population(setup):
    _db, _registry, runner, *_ = setup
    populations = [runner.run_q3() for _ in range(10)]
    assert any(p > 0 for p in populations)


def test_q4_hit_list_length(setup):
    _db, _registry, runner, *_ = setup
    lengths = {runner.run_q4() for _ in range(5)}
    assert 2 in lengths  # the stored two-hit list


def test_q5_counts(setup):
    _db, _registry, runner, *_ = setup
    for _ in range(10):
        assert runner.run_q5() >= 0


def test_q6_report(setup):
    _db, _registry, runner, *_ = setup
    rows = [runner.run_q6() for _ in range(10)]
    assert any(r > 0 for r in rows)


def test_q7_history(setup):
    _db, _registry, runner, *_ = setup
    lengths = [runner.run_q7() for _ in range(5)]
    assert any(length and length > 0 for length in lengths)


def test_run_random_query_covers_mix(setup):
    _db, _registry, runner, *_ = setup
    seen = {runner.run_random_query() for _ in range(300)}
    assert seen == {op for op, _w in QUERY_MIX}


def test_dql_and_api_paths_agree(setup):
    db, registry, _runner, clone, tclone = setup
    api = QueryRunner(db, registry, DeterministicRng(9), query_path="api")
    dql = QueryRunner(db, registry, DeterministicRng(9), query_path="dql")
    with pytest.raises(ConfigError):
        QueryRunner(db, registry, DeterministicRng(9), query_path="sql")
    for _ in range(20):
        assert api.run_q1() == dql.run_q1()
        assert api.run_q2() == dql.run_q2()
        assert api.run_q3() == dql.run_q3()
        assert api.run_q5() == dql.run_q5()


def test_class_attributes_reference_genome_schema():
    from repro.workflow.genome import build_genome_spec

    spec = build_genome_spec()
    declared = {
        attr.name for step in spec.steps for attr in step.attributes
    }
    for attrs in CLASS_ATTRIBUTES.values():
        assert set(attrs) <= declared


def test_tally_merge():
    a = OperationTally({"Q1": 2})
    b = OperationTally({"Q1": 1, "U1": 5})
    merged = a.merged(b)
    assert merged.counts == {"Q1": 3, "U1": 5}
    assert merged.total() == 8

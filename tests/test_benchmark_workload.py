"""Tests for the LabFlow-1 stream generator."""

import pytest

from repro.benchmark.config import TINY
from repro.benchmark.operations import QueryRunner
from repro.benchmark.workload import (
    BLAST_MAX_HITS,
    BLAST_MEAN_HITS,
    LabFlowWorkload,
    benchmark_value_factory,
)
from repro.labbase import LabBase
from repro.storage import OStoreMM, ObjectStoreSM
from repro.util.rng import DeterministicRng
from repro.workflow.spec import AttributeSpec, StepSpec, ValueKind


def _workload(config=TINY, sm=None):
    db = LabBase(sm or OStoreMM())
    return db, LabFlowWorkload(db, config)


def test_run_interval_creates_configured_clones():
    db, workload = _workload()
    workload.setup_schema()
    tally = workload.run_interval("0.5X")
    assert tally.clones_created == TINY.clones_per_interval
    assert tally.steps_executed > 0
    assert tally.queries_executed == TINY.clones_per_interval * TINY.queries_per_intake
    assert db.count_materials("clone", include_subclasses=False) == TINY.clones_per_interval


def test_run_all_covers_every_interval():
    _db, workload = _workload()
    tallies = workload.run_all()
    assert [t.label for t in tallies] == list(TINY.interval_labels)


def test_operation_tally_shape():
    _db, workload = _workload()
    tallies = workload.run_all()
    ops = set()
    for tally in tallies:
        ops.update(tally.operations.counts)
    assert "U1" in ops and "U2" in ops and "U3" in ops
    assert any(op.startswith("Q") for op in ops)


def test_integrity_counters_match_scans():
    _db, workload = _workload()
    workload.run_all()
    counts = workload.check_integrity()
    assert counts["materials"] > 0 and counts["steps"] > 0


def test_integrity_reports_a_history_len_bumped_by_hand():
    db, workload = _workload()
    workload.run_all()
    assert db.check_history_lengths() == []
    oid, record = next(
        (oid, record) for oid, record in db.iter_materials()
        if record["history_len"]
    )
    walked = len(db.material_history(oid))
    record["history_len"] += 1
    db.cache.write(oid, record)
    db.commit()
    assert db.history_length(oid) == walked + 1
    assert db.check_history_lengths() == [
        f"material {oid}: history_len {walked + 1} but {walked} steps"
        " in its chain"
    ]
    with pytest.raises(AssertionError, match=f"material {oid}"):
        workload.check_integrity()


def test_same_seed_same_stream_across_stores():
    """The cross-server guarantee: identical logical databases."""
    db_a, workload_a = _workload(sm=OStoreMM())
    db_b, workload_b = _workload(sm=ObjectStoreSM(buffer_pages=32))
    workload_a.run_all()
    workload_b.run_all()
    assert db_a.catalog.material_counts == db_b.catalog.material_counts
    assert db_a.catalog.step_counts == db_b.catalog.step_counts
    assert db_a.sets.state_census() == db_b.sets.state_census()
    # spot-check a material's attributes end to end
    oid_a = db_a.lookup("clone", "clone-000001")
    oid_b = db_b.lookup("clone", "clone-000001")
    assert db_a.current_attributes(oid_a) == db_b.current_attributes(oid_b)


def test_different_seed_different_stream():
    db_a, workload_a = _workload(TINY.with_(seed=1))
    db_b, workload_b = _workload(TINY.with_(seed=2))
    workload_a.run_all()
    workload_b.run_all()
    attrs_a = db_a.current_attributes(db_a.lookup("clone", "clone-000001"))
    attrs_b = db_b.current_attributes(db_b.lookup("clone", "clone-000001"))
    assert attrs_a != attrs_b


def test_drain_quiesces_workflow():
    db, workload = _workload()
    workload.run_all()
    workload.drain()
    graph = workload.graph
    for state in graph.states():
        if not graph.is_terminal(state):
            assert db.in_state(state) == []


def test_benchmark_value_factory_sizes_hit_lists():
    step = StepSpec("blast_search", (), ("clone",))
    attribute = AttributeSpec("hits", ValueKind.HIT_LIST)
    rng = DeterministicRng(3)
    lists = [benchmark_value_factory(step, attribute, "c-1", rng) for _ in range(50)]
    assert all(len(hits) <= BLAST_MAX_HITS for hits in lists)
    assert any(len(hits) > BLAST_MEAN_HITS // 2 for hits in lists)


def test_registry_tracks_created_materials():
    _db, workload = _workload()
    workload.run_all()
    assert workload.registry.count() >= workload.tallies[0].clones_created
    assert "tclone" in workload.registry.by_class


def test_dql_query_path_runs():
    db, workload = _workload()
    workload.run_all()
    dql = QueryRunner(db, workload.registry, DeterministicRng(5), query_path="dql")
    ops = [dql.run_random_query() for _ in range(20)]
    assert dql.tally.total() == 20
    assert {"Q1", "Q2", "Q3", "Q5"} & set(ops)  # the DQL-routed queries

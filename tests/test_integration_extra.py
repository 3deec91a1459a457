"""Second-round integration tests: traces x servers, DSL x benchmark,
sessions x workload, DOT rendering."""

import pytest

from repro.benchmark import (
    TINY,
    LabFlowWorkload,
    Trace,
    TracingServer,
    all_servers,
    replay,
)
from repro.labbase import LabBase
from repro.server import LabFlowService, LocalClient
from repro.storage import ObjectStoreSM, OStoreMM
from repro.util.rng import DeterministicRng
from repro.workflow import WorkflowEngine, build_genome_workflow, load_workflow
from repro.workflow.dsl import render_workflow
from repro.workflow.genome import build_genome_spec


def test_one_trace_replays_onto_all_five_servers(tmp_path):
    """The portable same-stream guarantee, across every server version."""
    source = LabBase(OStoreMM())
    traced = TracingServer(source)
    LabFlowWorkload(traced, TINY.with_(clones_per_interval=3)).run_all()
    reference = None
    for spec in all_servers():
        sm = spec.make(TINY.with_(db_dir=str(tmp_path)))
        db = LabBase(sm)
        replay(traced.trace, db)
        census = db.sets.state_census()
        counts = dict(db.catalog.material_counts)
        if reference is None:
            reference = (census, counts)
        else:
            assert (census, counts) == reference, spec.name
        sm.close()


def test_benchmark_runs_on_a_dsl_defined_workflow():
    """The workload generator is not genome-specific: the engine can
    pump any valid workflow loaded from text."""
    graph = load_workflow(render_workflow(build_genome_spec()))
    db = LabBase(OStoreMM())
    engine = WorkflowEngine(db, graph, DeterministicRng(7))
    engine.install_schema()
    for _ in range(4):
        engine.create_material("clone")
    executed = engine.pump(1_000_000)
    assert executed > 30
    assert len(db.in_state("clone_done")) == 4
    # and it behaves identically to the Python-defined graph
    reference_db = LabBase(OStoreMM())
    reference = WorkflowEngine(
        reference_db, load_workflow(render_workflow(build_genome_spec())),
        DeterministicRng(7),
    )
    reference.install_schema()
    for _ in range(4):
        reference.create_material("clone")
    reference.pump(1_000_000)
    assert reference.counters.per_step == engine.counters.per_step


def test_sessions_over_a_benchmark_database(tmp_path):
    sm = ObjectStoreSM(path=str(tmp_path / "lab.db"))
    db = LabBase(sm)
    workload = LabFlowWorkload(db, TINY.with_(clones_per_interval=4))
    workload.run_all()
    service = LabFlowService(db)
    analyst = LocalClient(service, "analyst")
    key, oid = workload.registry.by_class["clone"][0]
    assert analyst.lookup("clone", key) == oid
    assert analyst.state_of(oid) == db.material(oid)["state"]
    analyst.close()
    service.shutdown()
    sm.close()


def test_dot_rendering_of_genome_graph():
    dot = build_genome_workflow().to_dot()
    assert dot.startswith("digraph")
    assert '"waiting_for_sequencing"' in dot
    assert "style=dashed" in dot          # the failure edges
    assert "doublecircle" in dot          # terminal states
    assert dot.count("->") >= 11          # 9 success + 2 failure edges


def test_index_off_database_replays_identically_to_index_on():
    """Traces are index-agnostic: the ablation backends agree."""
    source = LabBase(OStoreMM())
    traced = TracingServer(source)
    LabFlowWorkload(traced, TINY.with_(clones_per_interval=2)).run_all()

    indexed = LabBase(OStoreMM(), use_most_recent_index=True)
    scanning = LabBase(OStoreMM(), use_most_recent_index=False)
    replay(traced.trace, indexed)
    replay(traced.trace, scanning)
    for oid, record in indexed.iter_materials():
        other = scanning.lookup(record["class_name"], record["key"])
        assert indexed.current_attributes(oid) == \
            scanning.current_attributes(other)


def test_chronicle_agrees_with_engine_counters_after_replay():
    from repro.labbase import Chronicle

    source = LabBase(OStoreMM())
    traced = TracingServer(source)
    workload = LabFlowWorkload(traced, TINY.with_(clones_per_interval=3))
    workload.run_all()

    target = LabBase(OStoreMM())
    replay(traced.trace, target)
    profiles = {p.class_name: p.executions
                for p in Chronicle(target).step_profiles()}
    assert profiles == dict(workload.engine.counters.per_step)

"""Soak test: a larger end-to-end run with every invariant checked.

Slower than the unit tests (a few seconds) but still in the default
suite: it is the closest thing to "run the whole paper" in one test.
"""

from repro.benchmark import BenchmarkConfig, LabFlowWorkload
from repro.benchmark.analysis import check_shapes, failed_checks, render_checks
from repro.benchmark import run_comparison
from repro.labbase import Chronicle, LabBase
from repro.storage import ObjectStoreSM
from repro.storage.integrity import verify
from repro.storage.report import segment_stats

from tests.conftest import frozen_heap


def test_soak_single_server(tmp_path):
    """One bigger run on the flagship configuration, fully validated."""
    config = BenchmarkConfig(
        clones_per_interval=20,
        intervals=(0.5, 1.0),
        db_dir=str(tmp_path),
        buffer_pages=96,
    )
    sm = ObjectStoreSM(
        path=f"{tmp_path}/soak.db", buffer_pages=config.buffer_pages,
        checkpoint_every=50,
    )
    db = LabBase(sm)
    workload = LabFlowWorkload(db, config)
    workload.run_all()
    workload.drain()

    # 1. physical integrity
    verify(sm).raise_if_bad()

    # 2. logical integrity: counters match scans
    workload.check_integrity()

    # 3. every clone completed with the full attribute set
    done = db.in_state("clone_done")
    assert len(done) == config.total_clones()
    for oid in done:
        attrs = db.current_attributes(oid)
        assert {"contig", "hits", "map_position"} <= set(attrs), attrs.keys()

    # 4. chronicle totals agree with catalog counters
    profiles = {p.class_name: p.executions
                for p in Chronicle(db).step_profiles()}
    assert profiles == {
        name: count for name, count in db.catalog.step_counts.items() if count
    }

    # 5. the hot/cold layout holds at this scale too
    stats = segment_stats(sm)
    assert stats[0].name == "labbase.history"

    # 6. survives crash-recovery from the rolling checkpoint
    path = sm._disk.path
    # (no close: simulate the crash)
    recovered = ObjectStoreSM(path=path, buffer_pages=96)
    outcome = recovered.recover()
    verify(recovered).raise_if_bad()
    # recovery reconciles: anything dropped was post-checkpoint churn
    assert outcome["dropped_objects"] < 100
    recovered.close()


def test_soak_comparison_shapes(tmp_path):
    """A mid-scale five-server comparison must satisfy every claim."""
    config = BenchmarkConfig(
        clones_per_interval=12,
        intervals=(0.5, 1.0, 1.5),
        db_dir=str(tmp_path),
        buffer_pages=128,
    )
    with frozen_heap():
        comparison = run_comparison(config)
    failures = failed_checks(check_shapes(comparison))
    assert not failures, render_checks(failures)
"""Tests for the harness and report rendering."""

import pytest

from repro.benchmark import (
    TINY,
    render_comparison,
    render_run,
    render_stats,
    run_comparison,
    run_server,
    server_spec,
)
from repro.benchmark.config import SERVER_ORDER
from repro.benchmark.harness import RunResult
from repro.errors import UnknownBackendError


@pytest.fixture(scope="module")
def comparison(tmp_path_factory):
    config = TINY.with_(db_dir=str(tmp_path_factory.mktemp("dbs")))
    return run_comparison(config)


def test_all_registered_servers_run(comparison):
    """The comparison covers every server version, in column order."""
    assert tuple(run.server for run in comparison.runs) == SERVER_ORDER
    # The paper's Section 10 table, left to right.
    assert SERVER_ORDER == (
        "OStore", "Texas+TC", "Texas", "OStore-mm", "Texas-mm",
    )


def test_intervals_metered(comparison):
    for run in comparison.runs:
        assert [i.label for i in run.intervals] == list(TINY.interval_labels)
        for interval in run.intervals:
            assert interval.usage.elapsed_sec >= 0
            assert interval.tally.transactions > 0


def test_identical_workload_across_servers(comparison):
    """Object-level reads/writes must match exactly between servers."""
    reference = comparison.runs[0].final_stats
    for run in comparison.runs[1:]:
        assert run.final_stats["objects_read"] == reference["objects_read"]
        assert run.final_stats["objects_written"] == reference["objects_written"]


def test_memory_versions_report_no_size_or_faults(comparison):
    for name in ("OStore-mm", "Texas-mm"):
        run = comparison.run_for(name)
        total = run.total_usage()
        assert total.size_bytes == 0
        assert total.majflt == 0


def test_texas_database_larger(comparison):
    # Strictly larger, not a fixed multiple: the schema-aware codec packs
    # records densely enough that power-of-two charging's waste over the
    # exact-charge OStore narrows well below the pickle-era 1.2x floor.
    ostore = comparison.run_for("OStore").intervals[-1].usage.size_bytes
    texas = comparison.run_for("Texas").intervals[-1].usage.size_bytes
    assert texas > ostore


def test_database_grows_across_intervals(comparison):
    for name in ("OStore", "Texas", "Texas+TC"):
        sizes = [i.usage.size_bytes for i in comparison.run_for(name).intervals]
        assert sizes == sorted(sizes)
        assert sizes[0] > 0


def test_usage_lookup_by_label(comparison):
    run = comparison.runs[0]
    assert run.usage_for("0.5X") is run.intervals[0].usage
    with pytest.raises(KeyError):
        run.usage_for("9.9X")
    with pytest.raises(KeyError):
        comparison.run_for("DB2")


def test_render_comparison_layout(comparison):
    text = render_comparison(comparison)
    assert "Database Server Version" in text
    for resource in ("elapsed sec", "user cpu sec", "sys cpu sec", "majflt", "size (bytes)"):
        assert resource in text
    for label in TINY.interval_labels:
        assert label in text
    for server in ("OStore", "Texas+TC", "Texas-mm"):
        assert server in text
    # mm size column renders "-"
    assert "-" in text


def test_render_run_and_stats_and_workload(comparison):
    run = comparison.runs[0]
    assert "OStore" in render_run(run)
    stats = render_stats(comparison)
    assert "major_faults" in stats and "swizzle_operations" in stats
    # the operation mix each interval ran stays on the run
    assert run.intervals[0].tally.operations.counts["U1"] > 0


def test_run_server_keep_db_returns_open_database(tmp_path):
    config = TINY.with_(db_dir=str(tmp_path))
    result, db = run_server(server_spec("OStore"), config, keep_db=True)
    assert isinstance(result, RunResult)
    assert db.count_materials("clone") > 0  # still open and queryable
    db.storage.close()


def test_unknown_server_rejected():
    with pytest.raises(UnknownBackendError) as excinfo:
        server_spec("Oracle7")
    # The error names every server version, so a typo is a one-glance
    # fix at the CLI.
    for name in SERVER_ORDER:
        assert name in str(excinfo.value)


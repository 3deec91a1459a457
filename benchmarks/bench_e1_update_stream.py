"""E1 — the paper's Section 10 results table.

Regenerates "Database Server Version / Intvl / Resource": the identical
seeded LabFlow-1 stream against OStore, Texas+TC, Texas, OStore-mm and
Texas-mm, with elapsed / user cpu / sys cpu / majflt / size(bytes) per
interval 0.5X..2.0X.

Attested anchor (the paper's quoted 0.5X row): elapsed within a few
percent across versions (the stream is CPU-bound), Texas-family size
~1.45x OStore, OStore fewest faults among persistent versions.
"""

from __future__ import annotations

import pytest

from repro.benchmark import (
    BenchmarkConfig,
    SERVER_ORDER,
    render_comparison,
    render_stats,
    run_comparison,
    run_server,
    server_spec,
)

from _common import emit

_CONFIG = BenchmarkConfig(clones_per_interval=25, buffer_pages=192)


@pytest.mark.parametrize("server", SERVER_ORDER)
def test_e1_stream_per_server(benchmark, server, tmp_path):
    """Per-server wall time of the full stream (the elapsed column)."""
    config = _CONFIG.with_(db_dir=str(tmp_path))

    def run():
        return run_server(server_spec(server), config)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.total_usage().elapsed_sec > 0
    assert len(result.intervals) == len(config.intervals)


def test_e1_full_table(benchmark, tmp_path):
    """The complete five-version table, plus the counters behind it."""
    config = _CONFIG.with_(db_dir=str(tmp_path))
    comparison = benchmark.pedantic(
        run_comparison, args=(config,), rounds=1, iterations=1
    )

    from repro.benchmark.analysis import check_shapes, failed_checks, render_checks

    checks = check_shapes(comparison)
    text = "\n\n".join(
        [
            render_comparison(comparison),
            render_stats(comparison),
            "Reproduction claims:\n" + render_checks(checks),
        ]
    )
    emit("e1_update_stream", text, payload={
        run.server: {"counters": run.final_stats, "gauges": run.final_gauges}
        for run in comparison.runs
    })
    assert not failed_checks(checks), render_checks(failed_checks(checks))

    # shape assertions from the attested row
    final = config.interval_labels[-1]
    ostore = comparison.run_for("OStore").usage_for(final)
    texas = comparison.run_for("Texas").usage_for(final)
    texas_tc = comparison.run_for("Texas+TC").usage_for(final)
    # Strictly larger with the paper's 2.2x ceiling: the schema-aware
    # codec narrows the power-of-two charge waste below the old 1.2x
    # floor (see claim S2 in repro.benchmark.analysis).
    assert 1.0 < texas.size_bytes / ostore.size_bytes < 2.2
    assert 1.0 < texas_tc.size_bytes / ostore.size_bytes < 2.2
    for name in ("OStore-mm", "Texas-mm"):
        assert comparison.run_for(name).total_usage().majflt == 0
    # identical logical workload everywhere
    reads = {run.final_stats["objects_read"] for run in comparison.runs}
    assert len(reads) == 1

"""Tests for the executable shape checks."""

import pytest

from repro.benchmark import TINY, run_comparison
from repro.benchmark.analysis import check_shapes, failed_checks, render_checks
from repro.benchmark.harness import run_server
from repro.benchmark.servers import server_spec

from tests.conftest import frozen_heap


@pytest.fixture(scope="module")
def comparison(tmp_path_factory):
    """One run of every server — and, for the two whose CPU time S5
    compares, the cheapest of three interleaved runs (OStore, TC, OStore,
    TC, ...): the totals are ~0.1 s on a CPU whose speed drifts by a
    quarter, and every count of a rerun is the first run's."""

    def config(label):
        return TINY.with_(
            db_dir=str(tmp_path_factory.mktemp(label)), clones_per_interval=8
        )

    with frozen_heap():
        result = run_comparison(config("shape_dbs"))
        for round_ in range(2):
            for index, kept in enumerate(result.runs):
                if kept.server not in ("OStore", "Texas+TC"):
                    continue
                rerun = run_server(server_spec(kept.server), config(f"rerun{round_}"))
                assert rerun.final_stats == kept.final_stats
                if rerun.total_usage().user_cpu_sec < kept.total_usage().user_cpu_sec:
                    result.runs[index] = rerun
    return result


def test_every_claim_holds_on_a_real_run(comparison):
    checks = check_shapes(comparison)
    assert checks, "no checks ran"
    failures = failed_checks(checks)
    assert not failures, render_checks(failures)


def test_claim_coverage(comparison):
    """All seven claim families are evaluated."""
    ids = {check.claim_id for check in check_shapes(comparison)}
    assert ids == {"S1", "S2", "S3", "S4", "S5", "S6", "S7"}


def test_render_is_readable(comparison):
    text = render_checks(check_shapes(comparison))
    assert "[PASS]" in text
    assert "S2" in text and "1.4" in text or "x" in text


def test_subset_comparison_skips_inapplicable_claims(tmp_path):
    config = TINY.with_(db_dir=str(tmp_path))
    partial = run_comparison(config, servers=("OStore-mm", "Texas-mm"))
    checks = check_shapes(partial)
    ids = {check.claim_id for check in checks}
    assert "S2" not in ids  # no persistent versions to compare
    assert "S4" in ids
    assert not failed_checks(checks)

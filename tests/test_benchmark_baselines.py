"""Tests for the TPC-style debit/credit contrast (Section 9 / E7)."""

from repro.benchmark.tpc_contrast import (
    DebitCreditWorkload,
    labflow_stream_statistics,
)
from repro.benchmark.config import TINY
from repro.benchmark.workload import LabFlowWorkload
from repro.labbase import LabBase
from repro.storage import OStoreMM


def test_debit_credit_runs_and_balances_chain():
    db = LabBase(OStoreMM())
    workload = DebitCreditWorkload(db, seed=1, accounts=10)
    workload.setup()
    result = workload.run(transactions=50)
    assert result.transactions == 50
    assert result.material_classes_used == 1
    assert result.step_classes_used == 1
    assert result.query_kinds_used == 1
    assert result.states_used == 1
    # every account's balance equals the sum of its amounts
    for index in range(10):
        oid = db.lookup("account", f"acct-{index:06d}")
        history = db.material_history(oid)
        amounts = sum(step["results"][0][1] for _oid, step in history)
        assert db.most_recent(oid, "balance") == amounts


def test_debit_credit_history_grows_only_on_touched_accounts():
    db = LabBase(OStoreMM())
    workload = DebitCreditWorkload(db, seed=2, accounts=5)
    workload.setup()
    result = workload.run(transactions=30)
    assert result.max_history_length >= result.mean_history_length
    assert result.mean_history_length == (30 + 5) / 5  # +5 opening steps


def test_contrast_with_labflow_stream():
    """The Section 9 point: LabFlow uses many kinds, TPC uses one."""
    labflow_db = LabBase(OStoreMM())
    labflow = LabFlowWorkload(labflow_db, TINY)
    tallies = labflow.run_all()
    labflow_stats = labflow_stream_statistics(labflow_db, tallies)

    tpc_db = LabBase(OStoreMM())
    tpc = DebitCreditWorkload(tpc_db, seed=1, accounts=20)
    tpc.setup()
    tpc_stats = tpc.run(transactions=labflow_stats["transactions"])

    assert labflow_stats["material_classes_used"] > tpc_stats.material_classes_used
    assert labflow_stats["step_classes_used"] > tpc_stats.step_classes_used
    assert labflow_stats["query_kinds_used"] > tpc_stats.query_kinds_used
    assert labflow_stats["states_used"] > tpc_stats.states_used

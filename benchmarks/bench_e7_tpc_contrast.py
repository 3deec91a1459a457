"""E7 — the Section 9 workload contrast: LabFlow-1 vs TPC debit/credit.

"These benchmarks have one kind of material (bank accounts), and one
kind of event (change account balance).  They also have one kind of
query."  The bench runs both streams through the identical LabBase
stack with matched transaction counts and tabulates the structural
differences that make LabFlow-1 a different benchmark.
"""

from __future__ import annotations

import pytest

from repro.benchmark import BenchmarkConfig, LabFlowWorkload
from repro.benchmark.tpc_contrast import (
    DebitCreditWorkload,
    labflow_stream_statistics,
)
from repro.labbase import LabBase
from repro.storage import OStoreMM
from repro.util.fmt import format_table

from _common import emit

_CONFIG = BenchmarkConfig(clones_per_interval=12, intervals=(0.5, 1.0))


@pytest.fixture(scope="module")
def contrast():
    labflow_db = LabBase(OStoreMM())
    labflow = LabFlowWorkload(labflow_db, _CONFIG)
    tallies = labflow.run_all()
    labflow_stats = labflow_stream_statistics(labflow_db, tallies)

    tpc_db = LabBase(OStoreMM())
    tpc = DebitCreditWorkload(tpc_db, seed=_CONFIG.seed, accounts=50)
    tpc.setup()
    tpc_result = tpc.run(transactions=labflow_stats["transactions"])
    return labflow_stats, tpc_result


def test_e7_emit_contrast_table(benchmark, contrast):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    labflow_stats, tpc_result = contrast
    rows = [
        ["transactions", labflow_stats["transactions"], tpc_result.transactions],
        ["material kinds used", labflow_stats["material_classes_used"],
         tpc_result.material_classes_used],
        ["event (step) kinds used", labflow_stats["step_classes_used"],
         tpc_result.step_classes_used],
        ["query kinds used", labflow_stats["query_kinds_used"],
         tpc_result.query_kinds_used],
        ["workflow states used", labflow_stats["states_used"],
         tpc_result.states_used],
        ["mean history length", f"{labflow_stats['mean_history_length']:.1f}",
         f"{tpc_result.mean_history_length:.1f}"],
        ["max history length", labflow_stats["max_history_length"],
         tpc_result.max_history_length],
    ]
    text = format_table(
        ["stream property", "LabFlow-1", "debit/credit"],
        rows,
        title="E7: graph-driven stream vs single-kind TPC stream",
        align_right=(1, 2),
    )
    emit("e7_tpc_contrast", text, payload={
        "labflow": dict(labflow_stats),
        "debit_credit": {
            "transactions": tpc_result.transactions,
            "material_classes_used": tpc_result.material_classes_used,
            "step_classes_used": tpc_result.step_classes_used,
            "query_kinds_used": tpc_result.query_kinds_used,
            "states_used": tpc_result.states_used,
            "mean_history_length": tpc_result.mean_history_length,
            "max_history_length": tpc_result.max_history_length,
        },
    })

    assert labflow_stats["material_classes_used"] >= 3
    assert tpc_result.material_classes_used == 1
    assert labflow_stats["query_kinds_used"] >= 5
    assert tpc_result.query_kinds_used == 1


def test_e7_debit_credit_throughput(benchmark):
    """Debit/credit transactions per second on the same stack."""
    db = LabBase(OStoreMM())
    workload = DebitCreditWorkload(db, seed=3, accounts=20)
    workload.setup()
    benchmark(lambda: workload.run(transactions=20))


def test_e7_labflow_throughput(benchmark):
    """LabFlow-1 transactions per second (same stack, richer stream)."""
    db = LabBase(OStoreMM())
    workload = LabFlowWorkload(
        db, BenchmarkConfig(clones_per_interval=2, intervals=(0.5,))
    )
    workload.setup_schema()
    counter = [0]

    def interval():
        counter[0] += 1
        return workload.run_interval(f"{counter[0]}")

    tally = benchmark(interval)
    assert tally.transactions > 0

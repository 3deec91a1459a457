"""A1 (ablation) — the most-recent index on a realistic workload.

E10 isolates the index on a synthetic material; this ablation runs the
full LabFlow-1 stream with the index disabled and measures what the
whole benchmark pays: object reads, elapsed time, and the Q2-heavy
query phase.  The index is the paper's "structures for rapid access
into history lists"; this is the experiment that justifies them.

Both legs run with the object cache off: the cache would answer Q2's
repeated reads from memory on either leg (0 object reads with the index
and without), and the index, not the cache, is what A1 ablates.
"""

from __future__ import annotations

import time

import pytest

from repro.benchmark import BenchmarkConfig, LabFlowWorkload
from repro.benchmark.operations import QueryRunner
from repro.labbase import LabBase
from repro.storage import OStoreMM
from repro.util.fmt import format_table
from repro.util.rng import DeterministicRng

from _common import emit

_CONFIG = BenchmarkConfig(clones_per_interval=10, intervals=(0.5, 1.0))
_QUERIES = 300


def _build(use_index: bool) -> tuple[LabBase, LabFlowWorkload]:
    db = LabBase(
        OStoreMM(), use_most_recent_index=use_index, object_cache=False
    )
    return db, LabFlowWorkload(db, _CONFIG)


def _run(use_index: bool) -> dict:
    db, workload = _build(use_index)
    started = time.perf_counter()
    workload.run_all()
    stream_sec = time.perf_counter() - started

    runner = QueryRunner(db, workload.registry, DeterministicRng(5))
    reads_before = db.storage.stats.objects_read
    started = time.perf_counter()
    for _ in range(_QUERIES):
        runner.run_q2()
    query_sec = time.perf_counter() - started
    return {
        "stream_sec": stream_sec,
        "q2_us": query_sec / _QUERIES * 1e6,
        "q2_reads": (db.storage.stats.objects_read - reads_before) / _QUERIES,
    }


@pytest.fixture(scope="module")
def ablation():
    return {"on": _run(True), "off": _run(False)}


def _payload(ablation: dict) -> dict:
    """The committed counts: Q2's object reads per leg."""
    return {leg: {"q2_reads": ablation[leg]["q2_reads"]} for leg in ("on", "off")}


def test_a1_emit_table(benchmark, ablation):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [
        ["stream elapsed (s)", f"{ablation['on']['stream_sec']:.2f}",
         f"{ablation['off']['stream_sec']:.2f}"],
        ["Q2 latency (us)", f"{ablation['on']['q2_us']:.0f}",
         f"{ablation['off']['q2_us']:.0f}"],
        ["Q2 object reads", f"{ablation['on']['q2_reads']:.1f}",
         f"{ablation['off']['q2_reads']:.1f}"],
    ]
    text = format_table(
        ["metric", "index on", "index off"],
        rows,
        title="A1: most-recent index ablation (full LabFlow-1 stream)",
        align_right=(1, 2),
    )
    emit("a1_most_recent_index", text, payload=_payload(ablation))
    # the index must win the query side decisively
    assert ablation["off"]["q2_reads"] > ablation["on"]["q2_reads"] * 2


@pytest.mark.parametrize("use_index", [True, False], ids=["index_on", "index_off"])
def test_a1_q2_latency(benchmark, use_index):
    db, workload = _build(use_index)
    workload.run_all()
    runner = QueryRunner(db, workload.registry, DeterministicRng(5))
    benchmark(runner.run_q2)

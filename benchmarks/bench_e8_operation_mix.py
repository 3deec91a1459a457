"""E8 — per-operation cost of the Section 8 repertoire (U1-U4, Q1-Q7).

Each operation is benchmarked in isolation against a warmed LabBase on
the ObjectStore-style store, giving the per-operation latency profile
behind the aggregate interval numbers of E1.

The payload is counts, not latencies: what one untimed call of each of
U1-U3 and Q1-Q7 reads and writes against a freshly built warm store.
The timed rounds cannot supply it — pytest-benchmark chooses how many
there are — while one call on a fresh store repeats exactly.
"""

from __future__ import annotations

import itertools

import pytest

from repro.benchmark import BenchmarkConfig, LabFlowWorkload
from repro.benchmark.operations import QueryRunner
from repro.labbase import LabBase
from repro.storage import ObjectStoreSM
from repro.util.fmt import format_table
from repro.util.rng import DeterministicRng

from _common import emit

_CONFIG = BenchmarkConfig(clones_per_interval=10, intervals=(0.5, 1.0))

#: The StorageStats counters the payload records per operation.
_COUNTERS = (
    "objects_read",
    "objects_written",
    "cache_hits",
    "cache_misses",
    "buffer_hits",
    "major_faults",
)


def _warm():
    """A populated in-memory-paged LabBase plus query infrastructure."""
    sm = ObjectStoreSM(buffer_pages=512)
    db = LabBase(sm)
    workload = LabFlowWorkload(db, _CONFIG)
    workload.run_all()
    runner = QueryRunner(db, workload.registry, DeterministicRng(99))
    return db, workload, runner


@pytest.fixture(scope="module")
def warm():
    return _warm()


def _operation_counts() -> dict[str, dict[str, int]]:
    """Counter deltas of one call of each operation, in order, on a fresh
    warm store."""
    db, workload, runner = _warm()
    _key, first = workload.registry.by_class["tclone"][0]
    _key, second = workload.registry.by_class["tclone"][1]
    operations = {
        "U1": lambda: db.record_step(
            "determine_sequence", 1_000_000, [first], {"quality": 0.5}
        ),
        "U2": lambda: db.create_material("clone", "bench-counts", 2_000_000),
        "U3": lambda: db.set_state(second, "bench_state_a", 3_000_000),
        "Q1": runner.run_q1,
        "Q2": runner.run_q2,
        "Q3": runner.run_q3,
        "Q4": runner.run_q4,
        "Q5": runner.run_q5,
        "Q6": runner.run_q6,
        "Q7": runner.run_q7,
    }
    stats = db.storage.stats
    counts = {}
    for name, operation in operations.items():
        before = stats.snapshot()
        operation()
        delta = stats.delta(before)
        counts[name] = {counter: delta[counter] for counter in _COUNTERS}
    return counts


_fresh_ids = itertools.count(1)


def test_e8_u1_record_step(benchmark, warm):
    db, workload, _runner = warm
    _key, oid = workload.registry.by_class["tclone"][0]
    times = itertools.count(1_000_000)
    benchmark(lambda: db.record_step(
        "determine_sequence", next(times), [oid], {"quality": 0.5}
    ))


def test_e8_u2_create_material(benchmark, warm):
    db, _workload, _runner = warm
    times = itertools.count(2_000_000)
    benchmark(lambda: db.create_material(
        "clone", f"bench-{next(_fresh_ids):08d}", next(times)
    ))


def test_e8_u3_state_transition(benchmark, warm):
    db, workload, _runner = warm
    _key, oid = workload.registry.by_class["tclone"][1]
    times = itertools.count(3_000_000)
    states = itertools.cycle(["bench_state_a", "bench_state_b"])
    benchmark(lambda: db.set_state(oid, next(states), next(times)))


def test_e8_u4_schema_change(benchmark, warm):
    db, _workload, _runner = warm
    attrs = itertools.count(1)
    # bounded rounds: every call adds a version, and letting the
    # auto-calibrator run thousands of rounds would grow the catalog
    # itself into the thing being measured
    benchmark.pedantic(
        lambda: db.define_step_class(
            "determine_sequence",
            ["sequence", "quality", "read_length", f"extra_{next(attrs)}"],
            ["tclone"],
        ),
        rounds=20,
        iterations=1,
    )


def test_e8_q1_lookup(benchmark, warm):
    _db, _workload, runner = warm
    benchmark(runner.run_q1)


def test_e8_q2_most_recent(benchmark, warm):
    _db, _workload, runner = warm
    benchmark(runner.run_q2)


def test_e8_q3_state_set(benchmark, warm):
    _db, _workload, runner = warm
    benchmark(runner.run_q3)


def test_e8_q4_hit_list(benchmark, warm):
    _db, _workload, runner = warm
    benchmark(runner.run_q4)


def test_e8_q5_counting(benchmark, warm):
    _db, _workload, runner = warm
    benchmark(runner.run_q5)


def test_e8_q6_report(benchmark, warm):
    _db, _workload, runner = warm
    benchmark(runner.run_q6)


def test_e8_q7_history_scan(benchmark, warm):
    _db, _workload, runner = warm
    benchmark(runner.run_q7)


def test_e8_emit_note(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    counts = _operation_counts()
    table = format_table(
        ["operation", *_COUNTERS],
        [[name, *(block[counter] for counter in _COUNTERS)]
         for name, block in counts.items()],
        title="E8: counters moved by one call of each operation (warm store)",
        align_right=tuple(range(1, len(_COUNTERS) + 1)),
    )
    emit("e8_operation_mix",
         "E8 per-operation latencies are in the pytest-benchmark table\n"
         "(test_e8_u* are updates U1-U4; test_e8_q* are queries Q1-Q7).\n"
         "Expected profile: U1/U2 dominated by record+index writes; Q1-Q3\n"
         "near-constant (hash bucket / hot index / set read); Q6 ~ cohort\n"
         "size x Q2; Q7 linear in history length.\n\n" + table,
         payload=counts)

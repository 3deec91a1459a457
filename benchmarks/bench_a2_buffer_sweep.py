"""A2 (ablation) — buffer-pool size sweep.

On 1996 hardware the pool/RAM size determined how much locality
mattered; this sweep varies the simulated pool and shows where each
server version's working set stops fitting.  The hot working set of the
clustered store (OStore) fits in far fewer pages than Texas's
interleaved layout — the same effect as E5, parameterized by memory.

Read-ahead is pinned off, as in E5: Texas's allocation-order scan is the
prefetcher's best case, and what it absorbs is experiment A5's subject,
not the raw locality this sweep measures.
"""

from __future__ import annotations

import os

import pytest

from repro.benchmark import BenchmarkConfig, LabFlowWorkload, server_spec
from repro.labbase import LabBase
from repro.storage import server_class
from repro.util.fmt import format_table

from _common import emit

_POOL_SIZES = (16, 48, 128, 384)
_SERVERS = ("OStore", "Texas")


def _faults(server: str, pool_pages: int, tmp_path: str) -> int:
    config = BenchmarkConfig(
        clones_per_interval=15,
        intervals=(0.5,),
        queries_per_intake=0,
    )
    sm = server_class(server)(
        path=os.path.join(tmp_path, f"{server.lower()}_{pool_pages}.db"),
        buffer_pages=pool_pages,
        readahead_pages=0,
    )
    db = LabBase(sm)
    workload = LabFlowWorkload(db, config)
    workload.run_all()
    sm.drop_buffer()
    before = sm.stats.major_faults
    # the hot query mix of E5
    for class_name, items in workload.registry.by_class.items():
        for key, oid in items:
            db.lookup(class_name, key)
            db.state_of(oid)
    faults = sm.stats.major_faults - before
    sm.close()
    return faults


def _sweep(tmp_path: str) -> dict[tuple[str, int], int]:
    """faults[(server, pool pages)] for every server and pool size."""
    return {
        (server, pool): _faults(server, pool, tmp_path)
        for server in _SERVERS
        for pool in _POOL_SIZES
    }


def _payload(sweep: dict[tuple[str, int], int]) -> dict:
    """The committed counts: faults per server, keyed by pool size."""
    return {
        server: {str(pool): sweep[(server, pool)] for pool in _POOL_SIZES}
        for server in _SERVERS
    }


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _sweep(str(tmp_path_factory.mktemp("a2")))


def test_a2_emit_sweep_table(benchmark, sweep):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for pool in _POOL_SIZES:
        row = [pool] + [f"{sweep[(server, pool)]:,}" for server in _SERVERS]
        rows.append(row)
    text = format_table(
        ["pool pages"] + list(_SERVERS),
        rows,
        title="A2: cold-cache hot-query faults vs buffer-pool size",
        align_right=(0, 1, 2),
    )
    emit("a2_buffer_sweep", text, payload=_payload(sweep))

    # monotone: more memory, fewer or equal faults
    for server in _SERVERS:
        series = [sweep[(server, pool)] for pool in _POOL_SIZES]
        assert all(a >= b for a, b in zip(series, series[1:])), (server, series)
    # clustering dominates at every pool size
    for pool in _POOL_SIZES:
        assert sweep[("OStore", pool)] <= sweep[("Texas", pool)], pool


@pytest.mark.parametrize("pool_pages", _POOL_SIZES)
def test_a2_stream_time_vs_pool(benchmark, pool_pages, tmp_path):
    """Stream wall time as the pool shrinks (OStore)."""
    config = BenchmarkConfig(
        clones_per_interval=6,
        intervals=(0.5,),
        buffer_pages=pool_pages,
        db_dir=str(tmp_path / str(pool_pages)),
        queries_per_intake=0,
    )
    os.makedirs(config.db_dir, exist_ok=True)

    def run():
        sm = server_spec("OStore").make(config)
        db = LabBase(sm)
        LabFlowWorkload(db, config).run_all()
        sm.close()

    benchmark.pedantic(run, rounds=1, iterations=1)

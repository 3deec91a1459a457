"""A5 (ablation) — segment-aware read-ahead and vectored commit I/O.

A cold Q7-style history scan touches the pages of a material's step
chain in exactly the order the clustering policy laid them down, so a
store that notices the sequential fault pattern can pull whole
contiguous runs of the segment in one vectored read.  This ablation
builds each persistent server version on disk, drops the buffer pool,
and replays the full history-scan query family cold — once with the
read-ahead window at its default and once with batching disabled — and
reports elapsed time, major faults (the paper's majflt), and the new
prefetch/batch counters.  A second section reports the commit path:
the same bulk load's vectored write batches.

Equivalence (bit-identical files, identical answers) is pinned by
test_readahead_equivalence.py; this bench measures only the speed and
the fault absorption.
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

from repro.benchmark import BenchmarkConfig, LabFlowWorkload
from repro.labbase import LabBase
from repro.storage import (
    DEFAULT_READAHEAD_PAGES,
    ObjectStoreSM,
    TexasSM,
    TexasTCSM,
)
from repro.util.fmt import format_table

from _common import emit

_CONFIG = BenchmarkConfig(clones_per_interval=12, intervals=(0.5, 1.0))

#: Small pool, as in the equivalence test: cold means the scan faults.
_POOL_PAGES = 64

#: The acceptance floor: read-ahead must absorb at least half the major
#: faults of the cold scan on at least one persistent server version.
_FAULT_FLOOR = 2.0

_SERVERS = [
    ("OStore", ObjectStoreSM),
    ("Texas+TC", TexasTCSM),
    ("Texas", TexasSM),
]


def _run(cls, window: int) -> tuple[dict, float]:
    """Build a file-backed store, then scan every history cold: the
    counts, and the scan's wall clock (ms)."""
    with tempfile.TemporaryDirectory() as workdir:
        sm = cls(
            path=os.path.join(workdir, "db.pages"),
            buffer_pages=_POOL_PAGES,
            readahead_pages=window,
        )
        db = LabBase(sm)
        before_load = sm.stats.snapshot()
        workload = LabFlowWorkload(db, _CONFIG)
        workload.run_all()
        load = sm.stats.delta(before_load)

        oids = [oid for oid, _record in db.iter_materials()]
        sm.drop_buffer()  # chill: every page of the scan starts on disk
        before_scan = sm.stats.snapshot()
        started = time.perf_counter()
        steps_seen = 0
        for oid in oids:
            for _step_oid, _step in db.material_history(oid):
                steps_seen += 1
        elapsed = time.perf_counter() - started
        scan = sm.stats.delta(before_scan)
        sm.close()
    counts = {
        "window": window,
        "steps_seen": steps_seen,
        "major_faults": scan["major_faults"],
        "buffer_hits": scan["buffer_hits"],
        "prefetch_hits": scan["prefetch_hits"],
        "pages_prefetched": scan["pages_prefetched"],
        "io_batches": scan["io_batches"],
        "load_page_writes": load["page_writes"],
        "load_io_batches": load["io_batches"],
        "load_meta_bytes": load["meta_bytes_written"],
    }
    return counts, elapsed * 1e3


@pytest.fixture(scope="module")
def ablation():
    return {
        name: {"on": _run(cls, DEFAULT_READAHEAD_PAGES), "off": _run(cls, 0)}
        for name, cls in _SERVERS
    }


def _payload(ablation: dict) -> dict:
    """The committed counts: each server's two legs, and how many times
    fewer faults the scan took with read-ahead on."""
    counts: dict[str, dict[str, dict]] = {}
    fault_ratios: dict[str, float] = {}
    for name, _cls in _SERVERS:
        on, off = ablation[name]["on"][0], ablation[name]["off"][0]
        counts[name] = {"on": on, "off": off}
        fault_ratios[name] = off["major_faults"] / max(1, on["major_faults"])
    return {"servers": counts, "fault_ratios": fault_ratios}


def test_a5_emit_table(benchmark, ablation):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    payload = _payload(ablation)
    counts, fault_ratios = payload["servers"], payload["fault_ratios"]
    scan_rows, load_rows = [], []
    for name, _cls in _SERVERS:
        (on, on_ms), (off, off_ms) = ablation[name]["on"], ablation[name]["off"]
        ratio = fault_ratios[name]
        scan_rows.append([
            name,
            f"{off_ms:.1f}",
            f"{on_ms:.1f}",
            f"{off['major_faults']}",
            f"{on['major_faults']}",
            f"{on['prefetch_hits']}",
            f"{on['io_batches']}",
            f"{ratio:.2f}x",
        ])
        load_rows.append([
            name,
            f"{off['load_page_writes']}",
            f"{on['load_page_writes']}",
            f"{on['load_io_batches']}",
            f"{on['load_meta_bytes']:,}",
        ])
    scan_text = format_table(
        ["server", "off ms", "on ms", "off majflt", "on majflt",
         "prefetch hits", "read batches", "fault ratio"],
        scan_rows,
        title=(
            "A5: cold history scan (Q7 over every material), "
            f"read-ahead {DEFAULT_READAHEAD_PAGES} vs off"
        ),
        align_right=tuple(range(1, 8)),
    )
    load_text = format_table(
        ["server", "off page writes", "on page writes",
         "on write batches", "on meta bytes"],
        load_rows,
        title="A5: bulk load commit path (vectored writes)",
        align_right=(1, 2, 3, 4),
    )
    emit("a5_readahead", scan_text + "\n\n" + load_text, payload=payload)

    # ≥2x fault absorption on at least one persistent server version —
    # asserted on majflt (deterministic) rather than wall clock.
    assert max(fault_ratios.values()) >= _FAULT_FLOOR, (
        f"best fault ratio {max(fault_ratios.values()):.2f}x "
        f"below {_FAULT_FLOOR}x floor: {fault_ratios}"
    )
    for name, _cls in _SERVERS:
        on, off = counts[name]["on"], counts[name]["off"]
        # the accounting balance the property test pins, re-checked on
        # the real workload: absorbed faults became prefetch hits
        assert on["major_faults"] + on["prefetch_hits"] == off["major_faults"]
        # both runs scanned the same chains
        assert on["steps_seen"] == off["steps_seen"]
        # batching off means exactly that
        assert off["prefetch_hits"] == 0 and off["io_batches"] == 0
        assert off["load_io_batches"] == 0
        # the bulk load writes the same pages, batched or not
        assert on["load_page_writes"] == off["load_page_writes"]
        # and the commit path did coalesce something
        assert on["load_io_batches"] > 0


@pytest.mark.parametrize(
    "window",
    [DEFAULT_READAHEAD_PAGES, 0],
    ids=["readahead_on", "readahead_off"],
)
@pytest.mark.parametrize("name,cls", _SERVERS, ids=[n for n, _ in _SERVERS])
def test_a5_cold_scan_latency(benchmark, name, cls, window, tmp_path):
    """Timed cold scan per server version and window (pytest-benchmark)."""
    sm = cls(
        path=os.path.join(tmp_path, "db.pages"),
        buffer_pages=_POOL_PAGES,
        readahead_pages=window,
    )
    db = LabBase(sm)
    LabFlowWorkload(db, _CONFIG).run_all()
    oids = [oid for oid, _record in db.iter_materials()]

    def cold_scan():
        sm.drop_buffer()
        for oid in oids:
            for _pair in db.material_history(oid):
                pass

    benchmark(cold_scan)
    sm.close()

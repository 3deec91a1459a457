"""E6 — the database-size comparison (the paper's size column).

Attested numbers at interval 0.5X: OStore 16,629,760 B; Texas+TC
24,281,088 B; Texas 24,600,576 B — i.e. the Texas family ~1.46-1.48x
the ObjectStore size, caused by Texas's power-of-two allocation cells.
We verify the ratio band and decompose where the bytes go.
"""

from __future__ import annotations

import os

import pytest

from repro.benchmark import BenchmarkConfig, LabFlowWorkload, server_spec
from repro.labbase import LabBase
from repro.storage.page import PAGE_SIZE
from repro.util.fmt import format_bytes, format_table

from _common import emit

_SERVERS = ("OStore", "Texas+TC", "Texas")
_CONFIG = BenchmarkConfig(
    clones_per_interval=25,
    intervals=(0.5,),
    queries_per_intake=0,  # load phase only, like the paper's size column
)

#: Paper-attested sizes at 0.5X (bytes).
PAPER_SIZES = {"OStore": 16_629_760, "Texas+TC": 24_281_088, "Texas": 24_600_576}


def _load(server: str, tmp_path) -> tuple[int, int, int]:
    config = _CONFIG.with_(db_dir=os.path.join(tmp_path, server.replace("+", "_")))
    os.makedirs(config.db_dir, exist_ok=True)
    sm = server_spec(server).make(config)
    db = LabBase(sm)
    LabFlowWorkload(db, config).run_all()
    size = sm.size_bytes()
    pages = sm._disk.page_count
    payload = sm.stats.bytes_written
    sm.close()
    return size, pages, payload


def _payload(sizes: dict[str, tuple[int, int, int]]) -> dict:
    """The committed counts: bytes, pages and payload bytes per server."""
    return {
        server: {
            "size_bytes": sizes[server][0],
            "pages": sizes[server][1],
            "payload_bytes": sizes[server][2],
        }
        for server in _SERVERS
    }


@pytest.fixture(scope="module")
def sizes(tmp_path_factory):
    tmp_path = str(tmp_path_factory.mktemp("e6"))
    return {server: _load(server, tmp_path) for server in _SERVERS}


def test_e6_emit_size_table(benchmark, sizes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ostore_size = sizes["OStore"][0]
    rows = []
    for server in _SERVERS:
        size, pages, payload = sizes[server]
        rows.append([
            server,
            f"{size:,}",
            format_bytes(size),
            f"{pages:,}",
            f"{size / ostore_size:.2f}x",
            f"{PAPER_SIZES[server] / PAPER_SIZES['OStore']:.2f}x",
        ])
    text = format_table(
        ["version", "size (bytes)", "human", "pages", "ratio", "paper ratio"],
        rows,
        title=f"E6: database size after the 0.5X load (page size {PAGE_SIZE} B)",
        align_right=(1, 2, 3, 4, 5),
    )
    emit("e6_db_size", text, payload=_payload(sizes))

    for server in ("Texas", "Texas+TC"):
        ratio = sizes[server][0] / ostore_size
        paper_ratio = PAPER_SIZES[server] / PAPER_SIZES["OStore"]
        assert abs(ratio - paper_ratio) < 0.55, (server, ratio, paper_ratio)


def test_e6_fragmentation_is_the_cause(benchmark, sizes):
    """Same logical payload everywhere; only allocation differs."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    payloads = {server: sizes[server][2] for server in _SERVERS}
    # identical stream => identical serialized payload bytes
    assert len(set(payloads.values())) == 1, payloads
    # so the size gap is pure allocation overhead
    assert sizes["Texas"][1] > sizes["OStore"][1]

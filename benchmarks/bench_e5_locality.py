"""E5 — locality of reference: the paper's headline finding.

"These tests ... highlighted the critical importance of being able to
control locality of reference to persistent data."

After building the same database on each persistent server version, the
bench drops the buffer pool and runs query phases against a cold cache:

* a **hot phase** touching only LabBase's three small hot segments
  (key lookups Q1, state sets Q3, inlined most-recent values Q2);
* a **cold phase** that must visit the bulky history segment
  (history scans Q7, hit-list fetches Q4).

With segments (OStore, and Texas+TC's client clustering) the hot data
occupies few pages, so the hot phase faults little.  Plain Texas
interleaves everything in allocation order and faults across the whole
database.  The cold phase touches the big segment everywhere, so the
gap narrows — exactly the clustering story.

Read-ahead is pinned off, as in the tier-1 twin
(``test_cold_cache_locality_ostore_beats_texas``): it absorbs exactly the
sequential faults plain Texas pays for its allocation-order layout (that
is experiment A5's subject), while this bench measures the raw locality
of reference the 1996 hardware saw as ``majflt``.
"""

from __future__ import annotations

import os

import pytest

from repro.benchmark import BenchmarkConfig, LabFlowWorkload
from repro.labbase import LabBase
from repro.storage import server_class
from repro.util.fmt import format_table

from _common import emit

_SERVERS = ("OStore", "Texas+TC", "Texas")
_CONFIG = BenchmarkConfig(
    clones_per_interval=20,
    intervals=(0.5, 1.0),
    buffer_pages=48,          # small pool: cold reads must fault
    queries_per_intake=0,     # build phase only; queries measured below
)


def _build(server: str, tmp_path) -> tuple:
    sm = server_class(server)(
        path=os.path.join(tmp_path, server.replace("+", "_").lower() + ".db"),
        buffer_pages=_CONFIG.buffer_pages,
        readahead_pages=0,
    )
    db = LabBase(sm)
    workload = LabFlowWorkload(db, _CONFIG)
    workload.run_all()
    return sm, db, workload


def _hot_phase(db, workload) -> None:
    for class_name, items in workload.registry.by_class.items():
        for key, oid in items:
            db.lookup(class_name, key)          # Q1
            db.state_of(oid)                    # Q2-ish hot read
    for state in ("clone_done", "tclone_done", "waiting_for_assembly"):
        db.in_state(state)                      # Q3


def _cold_phase(db, workload) -> None:
    for _key, oid in workload.registry.by_class["clone"]:
        db.material_history(oid)                # Q7: walks history segment
        try:
            db.most_recent(oid, "hits")         # Q4: large cold values
        except Exception:
            pass


def _fault_profile(tmp_path: str) -> dict:
    """faults[(server, phase)] measured against a cold cache, plus the
    servers' segment layouts as text under ``"layouts"``."""
    from repro.storage.report import segment_report

    faults: dict[tuple[str, str], int] = {}
    layouts: list[str] = []
    for server in _SERVERS:
        sm, db, workload = _build(server, tmp_path)
        layouts.append(segment_report(sm, title=f"Segment layout: {server}"))
        for phase_name, phase in (("hot", _hot_phase), ("cold", _cold_phase)):
            sm.drop_buffer()
            before = sm.stats.major_faults
            phase(db, workload)
            faults[(server, phase_name)] = sm.stats.major_faults - before
        sm.close()
    faults["layouts"] = "\n\n".join(layouts)  # type: ignore[assignment]
    return faults


def _payload(profile: dict) -> dict:
    """The committed counts: faults per server and query phase."""
    return {
        server: {phase: profile[(server, phase)] for phase in ("hot", "cold")}
        for server in _SERVERS
    }


@pytest.fixture(scope="module")
def fault_profile(tmp_path_factory):
    return _fault_profile(str(tmp_path_factory.mktemp("e5")))


def test_e5_emit_locality_table(benchmark, fault_profile):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # artefact bench
    rows = []
    for phase in ("hot", "cold"):
        rows.append(
            [phase] + [f"{fault_profile[(server, phase)]:,}" for server in _SERVERS]
        )
    ostore_hot = fault_profile[("OStore", "hot")]
    texas_hot = fault_profile[("Texas", "hot")]
    rows.append([])
    rows.append(["hot-phase ratio vs OStore"]
                + [f"{fault_profile[(s, 'hot')] / max(1, ostore_hot):.2f}x"
                   for s in _SERVERS])
    text = format_table(
        ["query phase (cold cache)"] + list(_SERVERS),
        rows,
        title="E5: major faults by query phase and server version",
        align_right=(1, 2, 3),
    )
    text += "\n\n" + fault_profile["layouts"]
    emit("e5_locality", text, payload=_payload(fault_profile))

    # the headline: clustering wins the hot phase decisively, and the
    # server's own segments beat clustering done from the client
    assert ostore_hot < fault_profile[("Texas+TC", "hot")] < texas_hot, fault_profile


@pytest.mark.parametrize("server", _SERVERS)
def test_e5_hot_query_latency(benchmark, server, tmp_path):
    """Wall time of the hot query phase, cold cache, per server."""
    sm, db, workload = _build(server, str(tmp_path))

    def run():
        sm.drop_buffer()
        _hot_phase(db, workload)

    benchmark.pedantic(run, rounds=3, iterations=1)
    sm.close()

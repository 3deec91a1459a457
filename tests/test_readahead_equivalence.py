"""Property test: batched I/O is invisible to disk and to queries.

The A5 ablation is only honest if the read-ahead window changes *speed*
and nothing else.  Read-ahead stages raw page images outside the buffer
pool and vectored commit writes keep page-id order, so a random workload
must produce **bit-identical database files** and identical query
answers with batching on or off, on every persistent server version —
and the same answers again on the main-memory versions.

On top of byte identity, the fault accounting must balance: every page
the un-batched run faulted in is served in the batched run either as a
major fault or as a prefetch hit, never both, never dropped.
"""

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.labbase import LabBase
from repro.storage import (
    ObjectStoreSM,
    OStoreMM,
    TexasSM,
    TexasTCSM,
    TexasMM,
)

PERSISTENT = [
    ("ostore", ObjectStoreSM),
    ("texas", TexasSM),
    ("texas_tc", TexasTCSM),
]
STATES = ("arrived", "assayed", "filed")

#: Small pool so random workloads actually fault; the paper's discipline.
POOL_PAGES = 24


def _run_workload(db: LabBase, codes: list[int]) -> None:
    """Deterministic interpreter: the integer stream fixes every choice."""
    db.define_material_class("clone")
    db.define_step_class("assay", ["q", "r"], ["clone"])
    materials: list[int] = []
    steps: list[int] = []
    t = 0
    for code in codes:
        t += 1
        kind = code % 7
        if kind == 0 or not materials:
            oid = db.create_material(
                "clone", f"c-{t}", t, state=STATES[code % len(STATES)]
            )
            materials.append(oid)
        elif kind == 1:
            target = materials[code % len(materials)]
            steps.append(
                db.record_step(
                    "assay", t, [target],
                    {"q": code, "r": "x" * (code % 40)},
                )
            )
        elif kind == 2:
            target = materials[code % len(materials)]
            db.set_state(target, STATES[code % len(STATES)], t)
        elif kind == 3:
            # A transaction block rewriting the same material repeatedly
            # — the vectored-commit case byte-identity must survive.
            target = materials[code % len(materials)]
            db.begin()
            steps.append(db.record_step("assay", t, [target], {"q": code}))
            db.set_state(target, STATES[code % len(STATES)], t)
            steps.append(db.record_step("assay", t + 1, [target], {"r": "y"}))
            db.commit()
            t += 1
        elif kind == 4:
            # An aborted transaction: nothing of it may reach disk, with
            # or without batching.
            target = materials[code % len(materials)]
            db.begin()
            db.record_step("assay", t, [target], {"q": -code})
            db.abort()
            steps = [oid for oid in steps if db.storage.exists(oid)]
        elif kind == 5:
            # A cold sequential re-read: the prefetcher's bread and
            # butter, interleaved with the write mix.  (Main-memory
            # stores have no buffer to chill; the read still runs.)
            drop_buffer = getattr(db.storage, "drop_buffer", None)
            if drop_buffer is not None:
                drop_buffer()
            target = materials[code % len(materials)]
            for _oid, _step in db.material_history(target):
                pass
        elif steps:
            db.retract_step(steps.pop(code % len(steps)))


def _answers(db: LabBase) -> dict:
    """Every query family's full answer set, keyed by material."""
    snapshot: dict = {"states": {}, "materials": {}}
    for state in STATES:
        snapshot["states"][state] = sorted(db.in_state(state))
    for oid, record in db.iter_materials():
        snapshot["materials"][record["key"]] = {
            "state": db.state_of(oid),
            "attrs": db.current_attributes(oid),
            "history_len": db.history_length(oid),
            "history": [
                (step["valid_time"], step["results"])
                for _oid, step in db.material_history(oid)
            ],
        }
    snapshot["counts"] = (
        db.count_materials("clone"), db.count_steps("assay"),
    )
    return snapshot


def _file_bytes(directory: str) -> dict[str, bytes]:
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(codes=st.lists(st.integers(0, 9999), min_size=8, max_size=50))
def test_readahead_on_off_equivalence(codes):
    answers: dict[tuple, dict] = {}
    files: dict[tuple, dict[str, bytes]] = {}
    counters: dict[tuple, dict] = {}

    with tempfile.TemporaryDirectory() as workdir:
        for server_name, cls in PERSISTENT:
            for window in (8, 0):
                directory = os.path.join(workdir, f"{server_name}_{window}")
                os.makedirs(directory)
                sm = cls(
                    path=os.path.join(directory, "db.pages"),
                    buffer_pages=POOL_PAGES,
                    readahead_pages=window,
                )
                db = LabBase(sm)
                _run_workload(db, codes)
                answers[(server_name, window)] = _answers(db)
                counters[(server_name, window)] = sm.stats.snapshot()
                sm.close()
                files[(server_name, window)] = _file_bytes(directory)

        for server_name, _cls in PERSISTENT:
            assert files[(server_name, 8)] == files[(server_name, 0)], (
                f"{server_name}: read-ahead on/off databases differ on disk"
            )
            assert answers[(server_name, 8)] == answers[(server_name, 0)]
            on, off = counters[(server_name, 8)], counters[(server_name, 0)]
            # Each page the plain run faulted is served exactly once in
            # the batched run too — as a fault or as a prefetch hit.
            assert (
                on["major_faults"] + on["prefetch_hits"] == off["major_faults"]
            ), f"{server_name}: fault accounting out of balance"
            # The stage lives outside the pool: hits and writes identical.
            assert on["buffer_hits"] == off["buffer_hits"]
            assert on["page_writes"] == off["page_writes"]
            assert off["pages_prefetched"] == 0 and off["io_batches"] == 0

    # answers also agree across every server version (incl. main-memory)
    reference = answers[("ostore", 8)]
    for key, snapshot in answers.items():
        assert snapshot == reference, f"{key} disagrees with OStore"
    for cls in (OStoreMM, TexasMM):
        db = LabBase(cls())
        _run_workload(db, codes)
        assert _answers(db) == reference

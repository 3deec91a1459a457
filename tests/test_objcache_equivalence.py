"""Property test: the object cache is invisible to disk and to queries.

The A4 ablation is only honest if turning the cache off changes *speed*
and nothing else.  Both settings run the same unit-of-work write path
(capacity 0 merely disables read caching), so a random workload must
produce **bit-identical database files** and identical query answers on
every persistent server version — and the same answers again on the
main-memory versions.
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


def _run_workload(db: LabBase, codes: list[int]) -> None:
    """Deterministic interpreter: the integer stream fixes every choice."""
    db.define_material_class("clone")
    db.define_step_class("assay", ["q", "r"], ["clone"])
    materials: list[int] = []
    steps: list[int] = []
    t = 0
    for code in codes:
        t += 1
        kind = code % 6
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
            # A transaction block that rewrites the same material several
            # times — the write-coalescing case byte-identity must survive.
            target = materials[code % len(materials)]
            db.begin()
            steps.append(db.record_step("assay", t, [target], {"q": code}))
            db.set_state(target, STATES[code % len(STATES)], t)
            steps.append(db.record_step("assay", t + 1, [target], {"r": "y"}))
            db.commit()
            t += 1
        elif kind == 4:
            # An aborted transaction: buffered writes must vanish equally
            # with and without read caching.
            target = materials[code % len(materials)]
            db.begin()
            db.record_step("assay", t, [target], {"q": -code})
            db.abort()
            steps = [oid for oid in steps if db.storage.exists(oid)]
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
def test_cache_on_off_equivalence(codes):
    answers: dict[tuple, dict] = {}
    files: dict[tuple, dict[str, bytes]] = {}

    with tempfile.TemporaryDirectory() as workdir:
        for server_name, cls in PERSISTENT:
            for cached in (True, False):
                directory = os.path.join(workdir, f"{server_name}_{cached}")
                os.makedirs(directory)
                sm = cls(path=os.path.join(directory, "db.pages"))
                db = LabBase(sm, object_cache=cached)
                _run_workload(db, codes)
                answers[(server_name, cached)] = _answers(db)
                sm.close()
                files[(server_name, cached)] = _file_bytes(directory)

        for server_name, _cls in PERSISTENT:
            assert files[(server_name, True)] == files[(server_name, False)], (
                f"{server_name}: cache on/off databases differ on disk"
            )
            assert answers[(server_name, True)] == answers[(server_name, False)]

    # answers also agree across every server version (incl. main-memory)
    reference = answers[("ostore", True)]
    for key, snapshot in answers.items():
        assert snapshot == reference, f"{key} disagrees with OStore"
    for cls in (OStoreMM, TexasMM):
        db = LabBase(cls())
        _run_workload(db, codes)
        assert _answers(db) == reference

"""The per-class counters are durable with the checkpoint.

LabBase's counters record (``repro.labbase.catalog``) is written at
durability boundaries — a commit that checkpoints, ``checkpoint()``,
``close()`` — not by every update.  So the record on disk always counts
what the checkpointed directory holds: after a killed process and
``recover_storage()`` the counters agree with the materials and steps
that survived.  And since the record may be older than the last commit,
an abort puts the counters back as the transaction found them instead
of re-reading it.
"""

import os
import subprocess
import sys

import pytest

from repro.labbase import LabBase
from repro.labbase.catalog import COUNTERS_ROOT
from repro.server import LabFlowService, LocalClient, bootstrap_schema
from repro.storage import SERVER_VERSIONS, ObjectStoreSM

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

#: Eight committed units, a checkpoint every five commits, then the
#: process dies without close(): the reopened directory is the one the
#: fifth commit checkpointed.
CRASHING_STREAM = """
import os, sys
from repro.labbase import LabBase
from repro.server import bootstrap_schema
from repro.storage import ObjectStoreSM

db = LabBase(ObjectStoreSM(sys.argv[1], checkpoint_every=5))
bootstrap_schema(db)
for unit in range(8):
    db.begin()
    oid = db.create_material("clone", f"c{unit}", unit)
    db.record_step("measure", unit, [oid], {"value": unit})
    db.commit()
os._exit(0)
"""


def _counts(db):
    return dict(db.catalog.material_counts), dict(db.catalog.step_counts)


def _found(db):
    materials, steps = {}, {}
    for _oid, record in db.iter_materials():
        materials[record["class_name"]] = materials.get(record["class_name"], 0) + 1
    for _oid, record in db.iter_steps():
        name = db.catalog.step_version(record["class_version"]).name
        steps[name] = steps.get(name, 0) + 1
    return materials, steps


def test_counters_agree_with_the_recovered_store(tmp_path):
    path = str(tmp_path / "lab.db")
    done = subprocess.run(
        [sys.executable, "-c", CRASHING_STREAM, path],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    sm = ObjectStoreSM(path)
    try:
        db = LabBase(sm)
        db.recover_storage()
        assert db.verify_storage().ok
        materials, steps = _found(db)
        assert 0 < materials["clone"] < 8  # the crash lost the last units
        assert (db.catalog.material_counts, db.catalog.step_counts) == (
            materials,
            steps,
        )
    finally:
        sm.close()


def _open(cls, path):
    if cls.persistent:
        return cls(path=path, checkpoint_every=0)
    return cls()


@pytest.mark.parametrize("cls", SERVER_VERSIONS, ids=lambda cls: cls.name)
def test_abort_keeps_the_last_committed_counts(cls, tmp_path):
    path = str(tmp_path / "lab.db")
    sm = _open(cls, path)
    db = LabBase(sm)
    bootstrap_schema(db)
    for unit in range(3):
        db.begin()
        oid = db.create_material("clone", f"c{unit}", unit)
        db.record_step("measure", unit, [oid], {"value": unit})
        db.commit()
    committed = _counts(db)
    assert committed == ({"clone": 3}, {"measure": 3})

    db.begin()
    db.record_step("measure", 9, [oid], {"value": 9})
    db.abort()
    assert _counts(db) == committed
    assert db.count_steps("measure") == 3
    sm.close()
    if cls.persistent:
        reopened = cls(path=path)
        assert _counts(LabBase(reopened)) == committed
        reopened.close()


def test_recovering_a_live_store_keeps_its_committed_counts(tmp_path):
    sm = ObjectStoreSM(str(tmp_path / "lab.db"))
    db = LabBase(sm)
    bootstrap_schema(db)
    for unit in range(3):
        db.begin()
        db.create_material("clone", f"c{unit}", unit)
        db.commit()
    db.recover_storage()
    assert db.count_materials("clone") == 3
    sm.close()


def _stored_counters(sm):
    return sm.read(sm.get_root(COUNTERS_ROOT))["material_counts"]


def test_the_record_is_written_at_the_checkpoint_not_per_commit(tmp_path):
    sm = ObjectStoreSM(str(tmp_path / "lab.db"), checkpoint_every=2)
    db = LabBase(sm)
    bootstrap_schema(db)
    assert _stored_counters(sm) == {"clone": 0}
    for unit in range(3):
        db.begin()
        db.create_material("clone", f"c{unit}", unit)
        db.commit()
        # the second commit checkpoints; the first and third leave the
        # stored record as the last checkpoint wrote it
        assert _stored_counters(sm) == {"clone": 2 if unit else 0}
    sm.checkpoint()
    assert _stored_counters(sm) == {"clone": 3}
    sm.close()


def test_a_served_group_writes_the_record_at_its_close(tmp_path):
    """A served unit buffers like a transaction: its counters wait for
    the checkpoint that closes its group."""
    sm = ObjectStoreSM(str(tmp_path / "lab.db"), checkpoint_every=1)
    db = LabBase(sm)
    bootstrap_schema(db)
    service = LabFlowService(db, group_cap=100)
    client = LocalClient(service, "alice")
    for unit in range(3):
        client.create_material("clone", f"c{unit}", unit)
    assert _stored_counters(sm) == {"clone": 0}
    assert service.drain() == 3
    assert _stored_counters(sm) == {"clone": 3}
    service.shutdown()
    sm.close()

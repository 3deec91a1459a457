"""Behavioural tests for the LabBase facade — the paper's operations.

Runs over every storage manager via the ``any_sm`` fixture: the paper's
central claim is that the identical LabBase works over each store.
"""

import pytest

from repro.errors import (
    DuplicateKeyError,
    SchemaError,
    UnknownAttributeError,
    UnknownClassError,
    UnknownMaterialError,
)
from repro.labbase import LabBase, LabClock


@pytest.fixture
def db(any_sm):
    database = LabBase(any_sm)
    database.define_material_class("clone")
    database.define_material_class("tclone", parent="clone")
    database.define_step_class(
        "determine_sequence", ["sequence", "quality"], ["tclone"]
    )
    return database


def test_create_and_lookup(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick())
    assert db.lookup("tclone", "tc-1") == oid
    assert db.material_exists("tclone", "tc-1")
    assert not db.material_exists("tclone", "tc-2")


def test_duplicate_key_rejected(db, clock):
    db.create_material("tclone", "tc-1", clock.tick())
    with pytest.raises(DuplicateKeyError):
        db.create_material("tclone", "tc-1", clock.tick())


def test_same_key_allowed_in_different_classes(db, clock):
    db.create_material("clone", "x", clock.tick())
    db.create_material("tclone", "x", clock.tick())  # fine


def test_unknown_class_rejected(db, clock):
    with pytest.raises(UnknownClassError):
        db.create_material("plasmid", "p-1", clock.tick())
    with pytest.raises(UnknownClassError):
        db.lookup("plasmid", "p-1")


def test_lookup_missing_key(db, clock):
    db.create_material("tclone", "tc-1", clock.tick())
    with pytest.raises(UnknownMaterialError):
        db.lookup("tclone", "tc-404")


def test_record_step_builds_history_and_index(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick())
    step = db.record_step(
        "determine_sequence", clock.tick(), [oid],
        {"sequence": "ACGT", "quality": 0.8},
    )
    assert db.most_recent(oid, "quality") == 0.8
    assert db.history_length(oid) == 1
    record = db.step(step)
    assert record["involves"] == [oid]


def test_most_recent_respects_valid_time(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick())
    db.record_step("determine_sequence", 100, [oid], {"quality": 0.9})
    db.record_step("determine_sequence", 50, [oid], {"quality": 0.2})  # late entry
    assert db.most_recent(oid, "quality") == 0.9


def test_large_value_served_from_step(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick())
    sequence = "ACGT" * 500
    db.record_step("determine_sequence", clock.tick(), [oid], {"sequence": sequence})
    assert db.most_recent(oid, "sequence") == sequence


def test_missing_attribute_raises(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick())
    with pytest.raises(UnknownAttributeError):
        db.most_recent(oid, "quality")
    assert not db.has_attribute(oid, "quality")


def test_undeclared_attribute_rejected(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick())
    with pytest.raises(SchemaError):
        db.record_step("determine_sequence", clock.tick(), [oid], {"zzz": 1})


def test_step_involving_many_materials(db, clock):
    first = db.create_material("tclone", "tc-1", clock.tick())
    second = db.create_material("tclone", "tc-2", clock.tick())
    db.record_step("determine_sequence", clock.tick(), [first, second], {"quality": 1.0})
    assert db.most_recent(first, "quality") == 1.0
    assert db.most_recent(second, "quality") == 1.0
    assert db.history_length(first) == db.history_length(second) == 1


def test_states_and_sets(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick(), state="waiting")
    assert db.state_of(oid) == "waiting"
    assert db.in_state("waiting") == [oid]
    db.set_state(oid, "done", clock.tick())
    assert db.in_state("waiting") == []
    assert db.in_state("done") == [oid]
    assert db.clear_state(oid) == "done"
    assert db.state_of(oid) is None


def test_counts_with_subclasses(db, clock):
    db.create_material("clone", "c-1", clock.tick())
    db.create_material("tclone", "tc-1", clock.tick())
    assert db.count_materials("clone") == 2
    assert db.count_materials("clone", include_subclasses=False) == 1
    assert db.count_materials("tclone") == 1


def test_count_steps(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick())
    for _ in range(3):
        db.record_step("determine_sequence", clock.tick(), [oid], {"quality": 0.5})
    assert db.count_steps("determine_sequence") == 3
    with pytest.raises(UnknownClassError):
        db.count_steps("nope")


def test_schema_evolution_versions_coexist(db, clock):
    """The U4/E9 behaviour: new versions coexist with old data."""
    old_version = db.catalog.step_class("determine_sequence").current
    oid = db.create_material("tclone", "tc-1", clock.tick())
    db.record_step("determine_sequence", clock.tick(), [oid], {"quality": 0.7})

    new_version = db.define_step_class(
        "determine_sequence", ["sequence", "quality", "read_length"], ["tclone"]
    )
    assert new_version.version_id != old_version.version_id

    # new-format steps work
    db.record_step("determine_sequence", clock.tick(), [oid], {"read_length": 500})
    # old software still writes old-format steps
    db.record_step(
        "determine_sequence", clock.tick(), [oid], {"quality": 0.9},
        version_id=old_version.version_id,
    )
    # but the old version does not accept new attributes
    with pytest.raises(SchemaError):
        db.record_step(
            "determine_sequence", clock.tick(), [oid], {"read_length": 1},
            version_id=old_version.version_id,
        )
    assert db.most_recent(oid, "quality") == 0.9
    assert db.most_recent(oid, "read_length") == 500
    # old data still reports its original version
    oldest_step = db.material_history(oid)[-1][1]
    assert oldest_step["class_version"] == old_version.version_id


def test_history_ordered_by_valid_time(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick())
    db.record_step("determine_sequence", 10, [oid], {"quality": 0.1})
    db.record_step("determine_sequence", 30, [oid], {"quality": 0.3})
    db.record_step("determine_sequence", 20, [oid], {"quality": 0.2})
    times = [step["valid_time"] for _oid, step in db.material_history(oid)]
    assert times == [30, 20, 10]


def test_retract_step_resurfaces_older_value(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick())
    db.record_step("determine_sequence", 10, [oid], {"quality": 0.1})
    newest = db.record_step("determine_sequence", 20, [oid], {"quality": 0.9})
    db.retract_step(newest)
    assert db.most_recent(oid, "quality") == 0.1
    assert db.history_length(oid) == 1
    assert db.count_steps("determine_sequence") == 1


def test_current_attributes_reflect_history(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick())
    assert db.current_attributes(oid) == {}
    db.record_step("determine_sequence", clock.tick(), [oid], {"quality": 0.5})
    assert db.current_attributes(oid) == {"quality": 0.5}


def test_report_rows(db, clock):
    first = db.create_material("tclone", "tc-1", clock.tick(), state="waiting")
    second = db.create_material("tclone", "tc-2", clock.tick(), state="waiting")
    db.record_step("determine_sequence", clock.tick(), [first], {"quality": 0.5})
    rows = db.report([first, second], ["quality", "sequence"])
    assert rows[0]["key"] == "tc-1" and rows[0]["quality"] == 0.5
    assert rows[0]["sequence"] is None
    assert rows[1]["quality"] is None
    assert all(row["state"] == "waiting" for row in rows)


def test_transactions_roll_back_labbase_state(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick(), state="waiting")
    db.commit()
    db.begin()
    db.record_step("determine_sequence", clock.tick(), [oid], {"quality": 0.4})
    db.set_state(oid, "done", clock.tick())
    other = db.create_material("tclone", "tc-2", clock.tick())
    db.abort()
    assert db.state_of(oid) == "waiting"
    assert db.history_length(oid) == 0
    assert not db.material_exists("tclone", "tc-2")
    assert db.count_steps("determine_sequence") == 0
    assert db.count_materials("tclone") == 1
    # and the database still works after the abort
    db.record_step("determine_sequence", clock.tick(), [oid], {"quality": 0.6})
    assert db.most_recent(oid, "quality") == 0.6


def test_most_recent_without_index_scans_history(any_sm, clock):
    db = LabBase(any_sm, use_most_recent_index=False)
    db.define_material_class("clone")
    db.define_step_class("s", ["a"], ["clone"])
    oid = db.create_material("clone", "c", clock.tick())
    db.record_step("s", 10, [oid], {"a": "first"})
    db.record_step("s", 5, [oid], {"a": "late"})
    assert db.most_recent(oid, "a") == "first"
    assert db.current_attributes(oid) == {"a": "first"}
    with pytest.raises(UnknownAttributeError):
        db.most_recent(oid, "b")


def test_iteration_helpers(db, clock):
    oid = db.create_material("tclone", "tc-1", clock.tick())
    db.record_step("determine_sequence", clock.tick(), [oid], {"quality": 1.0})
    materials = list(db.iter_materials())
    steps = list(db.iter_steps())
    assert len(materials) == 1 and materials[0][0] == oid
    assert len(steps) == 1


def test_verify_storage_passthrough(db, clock):
    oid = db.create_material("clone", "c-v", clock.tick())
    db.record_step("determine_sequence", clock.tick(), [oid], {"quality": 0.8})
    report = db.verify_storage()
    assert report.ok


def test_recover_storage_reloads_catalog(tmp_path, clock):
    """After a crash-reopen, recover_storage() must both repair the store
    and re-read the catalog so dropped materials disappear from the
    key index too."""
    from repro.storage import ObjectStoreSM

    path = str(tmp_path / "lab.db")
    sm = ObjectStoreSM(path=path, checkpoint_every=1)
    db = LabBase(sm)
    db.define_material_class("clone")
    db.create_material("clone", "kept", clock.tick())
    sm.checkpoint()
    sm.checkpoint_every = 0
    db.create_material("clone", "lost", clock.tick())
    sm.commit()
    # crash: no close()
    reopened_sm = ObjectStoreSM(path=path)
    reopened = LabBase(reopened_sm)
    assert not reopened.verify_storage().ok
    reopened.recover_storage()
    reopened.verify_storage().raise_if_bad()
    assert reopened.material_exists("clone", "kept")
    reopened_sm.close()


def test_recover_storage_bootstraps_a_dropped_catalog(tmp_path, clock):
    """Recovery may drop the catalog record itself; its root goes with
    it, and recover_storage() must come back with a fresh, usable
    catalog instead of re-reading an oid that no longer exists."""
    from repro.labbase.catalog import CATALOG_ROOT
    from repro.storage import ObjectStoreSM

    sm = ObjectStoreSM(path=str(tmp_path / "lab.db"))
    db = LabBase(sm)
    db.define_material_class("clone")
    db.create_material("clone", "before", clock.tick(), state="arrived")
    sm.commit()
    # What a crash can leave behind: the root names a record that is gone.
    sm.delete(sm.get_root(CATALOG_ROOT))
    assert not db.verify_storage().ok

    outcome = db.recover_storage()
    assert outcome["dropped_roots"] == 1
    db.verify_storage().raise_if_bad()
    assert sm.get_root(CATALOG_ROOT) is not None
    assert db.catalog.material_classes == {} and db.catalog.set_directory == {}
    db.define_material_class("clone")
    oid = db.create_material("clone", "after", clock.tick(), state="arrived")
    assert db.lookup("clone", "after") == oid
    assert db.in_state("arrived") == [oid]
    sm.close()

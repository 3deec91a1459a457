"""Unit tests for the Table 1 record layouts and most-recent logic."""

import pytest

from repro.labbase import model


def test_step_record_shape():
    step = model.make_step(3, 17, [("quality", 0.9), ("sequence", "ACGT")], [5, 6])
    assert step["kind"] == model.KIND_STEP
    assert step["class_version"] == 3
    assert step["valid_time"] == 17
    assert step["involves"] == [5, 6]
    assert model.step_result(step, "quality") == 0.9
    assert model.step_attributes(step) == ["quality", "sequence"]


def test_step_result_missing_attribute_raises_keyerror():
    step = model.make_step(1, 1, [("a", 1)], [])
    with pytest.raises(KeyError):
        model.step_result(step, "b")


def test_step_result_distinguishes_stored_none_from_missing():
    step = model.make_step(1, 1, [("a", None)], [])
    assert model.step_result(step, "a") is None
    with pytest.raises(KeyError):
        model.step_result(step, "z")


def test_material_record_shape():
    material = model.make_material("clone", "c-1", 5)
    assert material["kind"] == model.KIND_MATERIAL
    assert material["history_head"] == model.NIL
    assert material["history_len"] == 0
    assert material["recent"] == {}
    assert material["state"] is None


def test_update_recent_installs_and_replaces():
    material = model.make_material("clone", "c", 0)
    assert model.update_recent(material, "q", 5, 100, 0.5)
    assert model.recent_entry(material, "q")[:2] == [5, 100]
    assert model.update_recent(material, "q", 9, 101, 0.8)
    assert model.recent_entry(material, "q")[0] == 9


def test_update_recent_rejects_older_valid_time():
    """Out-of-order entry: an older valid time never displaces newer."""
    material = model.make_material("clone", "c", 0)
    model.update_recent(material, "q", 10, 1, "new")
    assert not model.update_recent(material, "q", 4, 2, "stale")
    entry = model.recent_entry(material, "q")
    assert entry[0] == 10 and entry[3] == "new"


def test_update_recent_tie_goes_to_later_insert():
    material = model.make_material("clone", "c", 0)
    model.update_recent(material, "q", 10, 1, "first")
    assert model.update_recent(material, "q", 10, 2, "second")
    assert model.recent_entry(material, "q")[3] == "second"


def test_inline_policy():
    assert model.is_inlineable(5)
    assert model.is_inlineable(0.5)
    assert model.is_inlineable(None)
    assert model.is_inlineable("short")
    assert not model.is_inlineable("x" * 200)
    assert not model.is_inlineable([1, 2, 3])
    assert not model.is_inlineable({"a": 1})


def test_update_recent_marks_large_values_not_inlined():
    material = model.make_material("clone", "c", 0)
    model.update_recent(material, "seq", 1, 55, "A" * 1000)
    entry = model.recent_entry(material, "seq")
    assert entry[2] is False and entry[3] is None
    assert entry[1] == 55  # the step to fetch from


def test_bucket_for_is_stable_and_in_range():
    assert model.bucket_for("clone-000123") == model.bucket_for("clone-000123")
    for key in ("a", "zz", "clone-1", "tc-999999"):
        assert 0 <= model.bucket_for(key) < model.KEY_INDEX_BUCKETS


def test_bucket_distribution_not_degenerate():
    buckets = {model.bucket_for(f"clone-{i:06d}") for i in range(500)}
    assert len(buckets) > model.KEY_INDEX_BUCKETS // 2


def test_material_set_record():
    record = model.make_material_set("state:arrived")
    assert record["kind"] == model.KIND_SET
    assert record["lows"] == [] and record["leaves"] == []  # no leaves yet
    leaf = model.make_set_leaf([3, 5])
    assert leaf == {"kind": model.KIND_SET_LEAF, "oids": [3, 5]}


def test_table_1_names_all_three_storage_classes():
    assert "sm_step" in model.TABLE_1
    assert "sm_material" in model.TABLE_1
    assert "material_set" in model.TABLE_1

"""Unit tests for material sets and workflow states."""

import copy
import os
import shutil
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.errors import StateError, StorageError
from repro.labbase import LabBase, model, statestore
from repro.labbase.bulkload import BulkLoader
from repro.labbase.catalog import Catalog
from repro.labbase.statestore import LEAF_FILL, LEAF_MAX, StateStore, state_set_name
from repro.storage import ObjectStoreSM, OStoreMM, TexasSM


def _setup():
    sm = OStoreMM()
    catalog = Catalog(sm, None)
    return sm, catalog, StateStore(sm, catalog, None)


def test_ensure_set_creates_once():
    _sm, catalog, sets = _setup()
    first = sets.ensure_set("cohort")
    second = sets.ensure_set("cohort")
    assert first == second
    assert "cohort" in catalog.set_directory


def test_membership_operations():
    _sm, _catalog, sets = _setup()
    sets.add_member("s", 10)
    sets.add_member("s", 11)
    sets.add_member("s", 10)  # duplicate ignored
    assert sets.members("s") == [10, 11]
    assert sets.cardinality("s") == 2
    assert sets.remove_member("s", 10)
    assert not sets.remove_member("s", 10)
    assert sets.members("s") == [11]


def test_members_of_absent_set_is_empty():
    _sm, _catalog, sets = _setup()
    assert sets.members("ghost") == []
    assert sets.cardinality("ghost") == 0
    assert not sets.remove_member("ghost", 1)


def test_enter_state_moves_between_sets():
    _sm, _catalog, sets = _setup()
    material = model.make_material("clone", "c", 0)
    sets.enter_state(7, material, "arrived", 1)
    assert material["state"] == "arrived"
    assert sets.in_state("arrived") == [7]
    sets.enter_state(7, material, "waiting", 2)
    assert sets.in_state("arrived") == []
    assert sets.in_state("waiting") == [7]
    assert material["state_since"] == 2


def test_leave_state_retracts():
    _sm, _catalog, sets = _setup()
    material = model.make_material("clone", "c", 0)
    sets.enter_state(7, material, "arrived", 1)
    old = sets.leave_state(7, material)
    assert old == "arrived"
    assert material["state"] is None
    assert sets.in_state("arrived") == []


def test_leave_state_without_state_raises():
    _sm, _catalog, sets = _setup()
    material = model.make_material("clone", "c", 0)
    with pytest.raises(StateError):
        sets.leave_state(7, material)


def test_state_census():
    _sm, _catalog, sets = _setup()
    a = model.make_material("clone", "a", 0)
    b = model.make_material("clone", "b", 0)
    sets.enter_state(1, a, "arrived", 1)
    sets.enter_state(2, b, "arrived", 1)
    sets.enter_state(2, b, "done", 2)
    sets.ensure_set("not-a-state")  # excluded from census
    assert sets.state_census() == {"arrived": 1, "done": 1}


def test_state_set_naming_convention():
    assert state_set_name("arrived") == "state:arrived"


def test_sets_persist_via_catalog(tmp_path):
    sm = ObjectStoreSM(path=str(tmp_path / "s.db"))
    catalog = Catalog(sm, None)
    sets = StateStore(sm, catalog, None)
    sets.add_member("cohort", 42)
    sm.close()

    sm2 = ObjectStoreSM(path=str(tmp_path / "s.db"))
    catalog2 = Catalog(sm2, None)
    sets2 = StateStore(sm2, catalog2, None)
    assert sets2.members("cohort") == [42]
    sm2.close()


# -- directory + leaves ------------------------------------------------------

def _leaves(sm, catalog, name):
    directory = sm.read(catalog.set_directory[name])
    assert "members" not in directory
    return directory["lows"], [sm.read(oid)["oids"] for oid in directory["leaves"]]


def _problems(sm, sets):
    """StateStore.check over generic (non-state) sets of a bare store."""
    stored = {
        oid for oid in sm.oids()
        if sm.read(oid).get("kind") == model.KIND_SET_LEAF
    }
    return sets.check({}, stored)


def test_members_come_back_ascending_whatever_the_insertion_order():
    _sm, _catalog, sets = _setup()
    for oid in (30, 10, 20, 10):
        sets.add_member("s", oid)
    assert sets.members("s") == [10, 20, 30]
    assert sets.first("s") == 10
    assert sets.first("ghost") is None


def test_a_full_leaf_splits_in_half_and_only_then_is_the_directory_written():
    sm, catalog, sets = _setup()
    for oid in range(1, LEAF_MAX + 1):
        sets.add_member("s", oid)
    lows, leaves = _leaves(sm, catalog, "s")
    assert lows == [0] and [len(leaf) for leaf in leaves] == [LEAF_MAX]

    before = sm.stats.snapshot()
    sets.add_member("s", 1000)  # the 257th: split
    assert sm.stats.delta(before)["objects_written"] == 3  # new leaf, old leaf, directory
    lows, leaves = _leaves(sm, catalog, "s")
    half = (LEAF_MAX + 1) // 2
    assert [len(leaf) for leaf in leaves] == [half, LEAF_MAX + 1 - half]
    assert lows == [0, leaves[1][0]]

    before = sm.stats.snapshot()
    sets.add_member("s", 999)   # lands in the upper leaf, no split
    sets.remove_member("s", 2)  # leaves the lower one
    assert sm.stats.delta(before)["objects_written"] == 2  # one leaf each
    assert sets.members("s") == [1, *range(3, LEAF_MAX + 1), 999, 1000]
    assert _problems(sm, sets) == []


def test_an_emptied_leaf_is_deleted_but_never_the_last_one():
    sm, catalog, sets = _setup()
    sets.add_members("s", range(1, 2 * LEAF_FILL + 1))
    lows, leaves = _leaves(sm, catalog, "s")
    assert lows == [0, LEAF_FILL + 1] and len(leaves[0]) == len(leaves[1]) == LEAF_FILL
    objects = sm.object_count()

    for oid in range(1, LEAF_FILL + 1):  # empty the *first* leaf
        assert sets.remove_member("s", oid)
    assert sm.object_count() == objects - 1
    lows, leaves = _leaves(sm, catalog, "s")
    assert lows == [0]  # the survivor now covers everything below it too
    sets.add_member("s", 5)
    assert sets.first("s") == 5
    assert _problems(sm, sets) == []

    for oid in sets.members("s"):
        sets.remove_member("s", oid)
    assert sm.object_count() == objects - 1  # the last leaf stays, empty
    assert sets.members("s") == [] and sets.first("s") is None
    assert _problems(sm, sets) == []
    before = sm.stats.snapshot()
    sets.add_member("s", 7)
    assert sm.stats.delta(before)["objects_written"] == 1  # no directory write


def test_add_members_cuts_leaves_at_the_fill_factor_and_merges():
    sm, catalog, sets = _setup()
    sets.add_members("s", range(0, 2000, 2))
    _lows, leaves = _leaves(sm, catalog, "s")
    assert [len(leaf) for leaf in leaves] == [LEAF_FILL] * 5 + [1000 - 5 * LEAF_FILL]
    before = sm.stats.snapshot()
    sets.add_members("s", [0, 2, 4])  # nothing new: nothing written
    assert sm.stats.delta(before)["objects_written"] == 0
    sets.add_members("s", [1, 3, 1999, 1999])  # two leaves touched
    assert sm.stats.delta(before)["objects_written"] == 2
    sets.add_members("s", range(1, 400, 2))  # overfills the first leaves: re-cut
    assert sets.members("s") == sorted({*range(0, 2000, 2), *range(1, 400, 2), 1999})
    assert max(len(leaf) for leaf in _leaves(sm, catalog, "s")[1]) <= LEAF_MAX
    assert _problems(sm, sets) == []

    one_by_one = _setup()[2]
    for oid in sets.members("s"):
        one_by_one.add_member("s", oid)
    assert one_by_one.members("s") == sets.members("s")


def test_add_members_touches_no_leaf_before_its_last_allocation():
    """A batch that re-cuts two leaves allocates for both before it
    rewrites either: an allocation failing for the second one loses no
    member (the leaf already allocated for the first is stranded, as any
    allocation is, and the check says so)."""
    sm, catalog, sets = _setup()
    sets.add_members("s", range(0, 2000, 2))
    before = copy.deepcopy((sets.members("s"), _leaves(sm, catalog, "s")))
    batch = range(1, 4 * LEAF_FILL, 2)  # overfills leaf 0 and leaf 1
    real, allocations = sm.allocate_write, []

    def second_allocation_fails(obj, segment=None):
        allocations.append(obj)
        if len(allocations) == 2:
            raise StorageError("no room for a new leaf")
        return real(obj, segment=segment)

    with mock.patch.object(sm, "allocate_write", second_allocation_fails):
        with pytest.raises(StorageError, match="no room"):
            sets.add_members("s", batch)
    assert (sets.members("s"), _leaves(sm, catalog, "s")) == before
    problems = _problems(sm, sets)
    assert len(problems) == 1 and "referenced by no set" in problems[0]

    sets.add_members("s", batch)  # and the same batch goes through
    assert sets.members("s") == sorted({*range(0, 2000, 2), *batch})


def test_check_reports_what_it_is_there_to_find():
    sm, catalog, sets = _setup()
    sets.add_members("s", range(1, 2 * LEAF_FILL + 1))
    directory_oid = catalog.set_directory["s"]
    directory = sm.read(directory_oid)
    upper_oid = directory["leaves"][1]

    orphan = sm.allocate_write(model.make_set_leaf([1, 2]))
    assert any("referenced by no set" in p for p in _problems(sm, sets))
    sm.delete(orphan)

    sm.write(upper_oid, model.make_set_leaf([LEAF_FILL + 2, LEAF_FILL + 1]))
    assert any("not sorted" in p for p in _problems(sm, sets))
    sm.write(upper_oid, model.make_set_leaf([3, LEAF_FILL + 5]))
    assert any("outside its range" in p for p in _problems(sm, sets))
    sm.write(upper_oid, model.make_set_leaf([]))
    assert any("holds 0 oids" in p for p in _problems(sm, sets))
    sm.write(upper_oid, model.make_set_leaf([LEAF_FILL + 1]))

    sm.write(directory_oid, {**directory, "lows": [0, 0]})
    assert any("bad directory" in p for p in _problems(sm, sets))
    sm.write(directory_oid, {**directory, "leaves": [directory["leaves"][0]] * 2})
    assert any("referenced twice" in p for p in _problems(sm, sets))
    sm.write(directory_oid, directory)
    sm.delete(upper_oid)
    assert any("not a stored set_leaf" in p for p in _problems(sm, sets))


def test_sets_and_materials_must_agree():
    db = LabBase(OStoreMM())
    db.define_material_class("clone")
    oids = [db.create_material("clone", f"c{i}", i, state="arrived") for i in range(5)]
    db.set_state(oids[0], "done", 9)
    assert db.check_state_sets() == []

    db.sets.remove_member(state_set_name("arrived"), oids[1])  # behind the record's back
    problems = db.check_state_sets()
    assert any("'arrived'" in p and "1 material(s) missing" in p for p in problems)
    assert any("members for 5 materials" in p for p in problems)
    db.sets.add_member(state_set_name("done"), oids[1])
    problems = db.check_state_sets()
    assert any("'done'" in p and "1 in it wrongly" in p for p in problems)


@pytest.mark.parametrize("members", [LEAF_MAX, 40 * LEAF_MAX])
def test_setting_a_state_to_itself_touches_no_set(members):
    db = LabBase(OStoreMM())
    db.define_material_class("clone")
    loader = BulkLoader(db)
    refs = [loader.add_material("clone", f"c{i}", 1, state="a") for i in range(members)]
    oid = loader.flush()[refs[members // 2]]
    before = db.storage.stats.snapshot()
    db.set_state(oid, "a", 2)
    assert db.storage.stats.delta(before)["objects_written"] == 1  # the material
    assert db.material(oid)["state_since"] == 2


def _transition_cost(population: int) -> tuple[float, float]:
    """Objects and bytes written per set_state at a given population."""
    db = LabBase(OStoreMM())
    db.define_material_class("clone")
    loader = BulkLoader(db)
    refs = [loader.add_material("clone", f"c{i:05d}", 1, state="a") for i in range(population)]
    oid_of = loader.flush()
    moved = [oid_of[refs[index]] for index in range(0, population, population // 50)]
    before = db.storage.stats.snapshot()
    for tick, oid in enumerate(moved):
        db.set_state(oid, "b", 2 + tick)
    delta = db.storage.stats.delta(before)
    assert db.check_state_sets() == []
    return (
        delta["objects_written"] / len(moved),
        delta["bytes_written"] / len(moved),
    )


def test_transition_cost_does_not_depend_on_population():
    """What a set_state writes at 20 000 members is what it writes at
    200 — counts, so this repeats exactly.  (On the one-list-per-state
    record the bytes grew a hundredfold.)"""
    small_objects, small_bytes = _transition_cost(200)
    large_objects, large_bytes = _transition_cost(20_000)
    assert large_objects <= 2 * small_objects, (small_objects, large_objects)
    assert large_bytes <= 2 * small_bytes, (small_bytes, large_bytes)
    assert small_objects <= 2 * large_objects and small_bytes <= 2 * large_bytes


# -- the model test ----------------------------------------------------------

_STATES = ("s1", "s2", "s3")
_COHORTS = ("cohort:a", "cohort:b")
_MATERIALS = 40

_set_ops = st.one_of(
    st.tuples(st.just("enter"), st.integers(0, _MATERIALS - 1), st.sampled_from(_STATES)),
    st.tuples(st.just("leave"), st.integers(0, _MATERIALS - 1), st.none()),
    st.tuples(st.just("add"), st.integers(1, 90), st.sampled_from(_COHORTS)),
    st.tuples(st.just("remove"), st.integers(1, 90), st.sampled_from(_COHORTS)),
    st.tuples(
        st.just("add_many"),
        st.lists(st.integers(1, 90), max_size=30),
        st.sampled_from(_COHORTS),
    ),
)


def _apply(db, oids, expected, op, what, where):
    if op == "enter":
        db.set_state(oids[what], where, 1)
        for name in map(state_set_name, _STATES):
            expected.get(name, set()).discard(oids[what])
        expected.setdefault(state_set_name(where), set()).add(oids[what])
    elif op == "leave":
        if db.state_of(oids[what]) is not None:
            db.clear_state(oids[what])
        for name in map(state_set_name, _STATES):
            expected.get(name, set()).discard(oids[what])
    elif op == "add":
        db.sets.add_member(where, what)
        expected.setdefault(where, set()).add(what)
    elif op == "remove":
        assert db.sets.remove_member(where, what) == (what in expected.get(where, ()))
        expected.get(where, set()).discard(what)
    else:
        db.sets.add_members(where, what)
        expected.setdefault(where, set()).update(what)


def _assert_matches(db, expected):
    for name in (*map(state_set_name, _STATES), *_COHORTS):
        members = sorted(expected.get(name, ()))
        assert db.sets.members(name) == members, name
        assert db.sets.cardinality(name) == len(members)
        assert db.sets.first(name) == (members[0] if members else None)
    assert db.check_state_sets() == []


@pytest.mark.parametrize("cached", [True, False], ids=["cache_on", "cache_off"])
@pytest.mark.parametrize("cls", [ObjectStoreSM, TexasSM], ids=["OStore", "Texas"])
@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    first_half=st.lists(st.tuples(_set_ops, st.booleans()), max_size=70),
    second_half=st.lists(st.tuples(_set_ops, st.booleans()), max_size=70),
)
@example(  # everything into s1 (five splits), then out again in order (five leaves emptied)
    first_half=[(("enter", i, "s1"), i % 3 == 0) for i in range(_MATERIALS)]
    + [(("add_many", list(range(1, 60)), "cohort:a"), True)],
    second_half=[(("enter", i, "s2"), i % 2 == 0) for i in range(_MATERIALS)]
    + [(("remove", oid, "cohort:a"), False) for oid in range(1, 60)],
)
def test_state_store_behaves_like_a_python_set_per_name(
    cls, cached, first_half, second_half
):
    """Random add/remove/enter/leave sequences — some inside
    transactions — against a ``set`` per name, with leaves small enough
    that they cross many splits and empty-leaf deletions, and a
    close/reopen in the middle."""
    directory = tempfile.mkdtemp()
    small_leaves = mock.patch.multiple(statestore, LEAF_MAX=8, LEAF_FILL=6)
    try:
        with small_leaves:
            path = os.path.join(directory, "sets.db")
            sm = cls(path=path)
            db = LabBase(sm, object_cache=cached)
            db.define_material_class("clone")
            oids = [db.create_material("clone", f"c{i}", 0) for i in range(_MATERIALS)]
            expected: dict[str, set[int]] = {}
            for half in (first_half, second_half):
                for (op, what, where), in_txn in half:
                    if in_txn:
                        db.begin()
                    _apply(db, oids, expected, op, what, where)
                    if in_txn:
                        db.commit()
                _assert_matches(db, expected)
                sm.close()
                sm = cls(path=path)
                db = LabBase(sm, object_cache=cached)
                _assert_matches(db, expected)
            sm.verify().raise_if_bad()
            sm.close()
    finally:
        shutil.rmtree(directory)


# -- a unit discarded at the split point -------------------------------------


def _service_with_a_full_leaf():
    from repro.server import LabFlowService, LocalClient

    db = LabBase(ObjectStoreSM())
    db.define_material_class("clone")
    loader = BulkLoader(db)
    refs = [
        loader.add_material("clone", f"c{i}", 1, state="full" if i else "other")
        for i in range(LEAF_MAX + 1)
    ]
    oid_of = loader.flush()
    db.storage.commit()
    mover = oid_of[refs[0]]  # the lowest oid: its insert splits the full leaf
    assert len(db.in_state("full")) == LEAF_MAX
    service = LabFlowService(db)
    return db, service, LocalClient(service, "c0"), mover


def test_unit_discarded_at_the_split_allocation_leaves_no_trace():
    """The split's allocation failing is the one thing that can end a
    transition halfway; nothing may have been mutated before it."""
    db, service, client, mover = _service_with_a_full_leaf()
    real = db.cache.allocate_write

    def failing(obj, segment=None):
        if isinstance(obj, dict) and obj.get("kind") == model.KIND_SET_LEAF:
            raise StorageError("no room for a new leaf")
        return real(obj, segment=segment)

    objects = db.storage.object_count()
    with mock.patch.object(db.cache, "allocate_write", failing):
        with pytest.raises(StorageError, match="no room"):
            client.set_state(mover, "full", 5)
    service.drain()
    assert db.storage.object_count() == objects
    assert db.state_of(mover) == "other"
    assert len(db.in_state("full")) == LEAF_MAX and db.in_state("other") == [mover]
    db.verify_storage().raise_if_bad()
    assert db.check_state_sets() == []

    client.set_state(mover, "full", 6)  # and the same unit goes through
    service.drain()
    assert db.storage.object_count() == objects + 1
    assert db.in_state("full")[0] == mover and db.in_state("other") == []
    db.verify_storage().raise_if_bad()
    assert db.check_state_sets() == []
    service.shutdown()


def test_raising_after_the_split_allocation_is_what_the_rule_forbids():
    """An allocation is not undone by a unit discard: were anything to
    raise after it, the new leaf would be stranded — and the state check
    is what says so."""
    db, service, client, mover = _service_with_a_full_leaf()
    real = db.cache.allocate_write

    def allocate_then_fail(obj, segment=None):
        oid = real(obj, segment=segment)
        if isinstance(obj, dict) and obj.get("kind") == model.KIND_SET_LEAF:
            raise StorageError("raised after the allocation")
        return oid

    with mock.patch.object(db.cache, "allocate_write", allocate_then_fail):
        with pytest.raises(StorageError):
            client.set_state(mover, "full", 5)
    service.drain()
    db.verify_storage().raise_if_bad()  # the store itself is sound
    assert db.state_of(mover) == "other" and len(db.in_state("full")) == LEAF_MAX
    problems = db.check_state_sets()
    assert len(problems) == 1 and "referenced by no set" in problems[0]
    service.shutdown()


# -- files from the one-list-per-state era -----------------------------------

PRE_FRAMES = os.path.join(os.path.dirname(__file__), "fixtures", "pre_frames", "lab.db")


def test_single_list_era_file_answers_and_converts_on_first_transition(tmp_path):
    """``fixtures/pre_frames`` (``repro demo --clones 2``, written before
    this layout) keeps each state as one ``members`` list."""
    path = str(tmp_path / "lab.db")
    shutil.copy(PRE_FRAMES, path)
    shutil.copy(PRE_FRAMES + ".meta", path + ".meta")
    sm = ObjectStoreSM(path=path)
    db = LabBase(sm)
    directory = db.catalog.set_directory

    gel_done = [23, 41, 52, 63, 74, 85, 96, 109]
    assert sm.read(directory["state:gel_done"])["members"] == gel_done
    assert db.in_state("gel_done") == gel_done
    assert db.first_in_state("gel_done") == 23 and db.first_in_state("arrived") is None
    assert db.sets.state_census()["tclone_done"] == 8
    assert db.check_state_sets() == []

    db.set_state(41, "gel_ready", 10_000)  # the first mutation of both sets
    for name in ("state:gel_done", "state:gel_ready"):
        record = sm.read(directory[name])
        assert "members" not in record and len(record["leaves"]) == 1
    assert "members" in sm.read(directory["state:tclone_done"])  # untouched: as it was
    assert db.in_state("gel_done") == [oid for oid in gel_done if oid != 41]
    assert db.in_state("gel_ready") == [41]
    assert db.check_state_sets() == []
    sm.close()

    reopened = LabBase(ObjectStoreSM(path=path))
    reopened.verify_storage().raise_if_bad()
    assert reopened.in_state("gel_ready") == [41]
    assert reopened.in_state("tclone_done") == [11, 33, 46, 57, 68, 79, 90, 101]
    assert reopened.check_state_sets() == []
    reopened.storage.close()

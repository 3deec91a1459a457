"""The fixed storage schema — the paper's Table 1.

The storage manager's schema never changes, no matter how the user-level
workflow schema evolves.  It consists of exactly three classes:

* ``sm_step`` — one instance per executed workflow step: the step-class
  *version* that created it, its valid time, its list of
  (attribute, value) results, and the materials it ``involves``.
* ``sm_material`` — one instance per material: class name, key, the head
  of its history list, and its most-recent index.
* ``material_set`` — named sets of materials (used for workflow states).

Because storage managers only accept plain data, these "classes" are
dict layouts with constructor/accessor functions, each tagged with a
``kind`` field.  LabBase additionally stores history-list nodes, key-index
buckets, set leaves and the catalog record — implementation structures
the paper's Section 5.1 describes as LabBase's "special access
structures".  A ``material_set`` record is a small *directory* over
bounded, sorted member leaves (see ``repro/labbase/statestore.py``), the
same way an ``sm_material`` is the head of a chain of history nodes.
"""

from __future__ import annotations

from typing import Iterable

KIND_STEP = "sm_step"
KIND_MATERIAL = "sm_material"
KIND_SET = "material_set"
KIND_SET_LEAF = "set_leaf"
KIND_HISTORY_NODE = "history_node"
KIND_INDEX_BUCKET = "index_bucket"
KIND_CATALOG = "catalog"

#: Null oid — no object.
NIL = 0

#: Most-recent index entries inline values up to this serialized-ish size;
#: larger values (DNA sequences, BLAST hit lists) stay in the cold step
#: record and the index holds only the step oid.  This keeps the hot
#: segments small, which is the locality design the paper credits.
INLINE_VALUE_LIMIT = 64


def is_inlineable(value: object) -> bool:
    """Whether a result value is small enough to cache in the hot index."""
    if value is None or isinstance(value, (bool, int, float)):
        return True
    if isinstance(value, (str, bytes)):
        return len(value) <= INLINE_VALUE_LIMIT
    return False


# ---------------------------------------------------------------------------
# sm_step
# ---------------------------------------------------------------------------


def make_step(
    class_version: int,
    valid_time: int,
    results: Iterable[tuple[str, object]],
    involves: Iterable[int],
) -> dict:
    """Build an ``sm_step`` record."""
    return {
        "kind": KIND_STEP,
        "class_version": int(class_version),
        "valid_time": int(valid_time),
        "results": [(str(attr), value) for attr, value in results],
        "involves": [int(oid) for oid in involves],
    }


def step_result(step: dict, attribute: str) -> object:
    """The step's value for an attribute.

    Raises :class:`KeyError` when the step recorded no such attribute —
    callers distinguish "no value" from a stored ``None``.
    """
    for attr, value in step["results"]:
        if attr == attribute:
            return value
    raise KeyError(attribute)


def step_attributes(step: dict) -> list[str]:
    return [attr for attr, _ in step["results"]]


# ---------------------------------------------------------------------------
# sm_material
# ---------------------------------------------------------------------------


def make_material(class_name: str, key: str, created: int) -> dict:
    """Build an ``sm_material`` record with an empty history."""
    return {
        "kind": KIND_MATERIAL,
        "class_name": str(class_name),
        "key": str(key),
        "created": int(created),
        "history_head": NIL,
        "history_len": 0,
        # attribute -> [valid_time, step_oid, inlined, value]
        # (lists, not tuples: records round-trip through pickle and we
        # update entries in place before writing back)
        "recent": {},
        "state": None,
        "state_since": None,
    }


def recent_entry(material: dict, attribute: str) -> list | None:
    """The most-recent index entry for an attribute, or None."""
    return material["recent"].get(attribute)


def update_recent(
    material: dict,
    attribute: str,
    valid_time: int,
    step_oid: int,
    value: object,
) -> bool:
    """Maybe install a newer value in the most-recent index.

    "Most recent" is by **valid time**, not insertion order: steps are
    entered in any order and an insert carrying an older valid time must
    not displace a newer value.  Ties go to the later insert (the lab's
    convention: a re-entered result supersedes).  Returns True when the
    index changed.
    """
    current = material["recent"].get(attribute)
    if current is not None and valid_time < current[0]:
        return False
    if is_inlineable(value):
        material["recent"][attribute] = [valid_time, step_oid, True, value]
    else:
        material["recent"][attribute] = [valid_time, step_oid, False, None]
    return True


# ---------------------------------------------------------------------------
# material_set
# ---------------------------------------------------------------------------


def make_material_set(name: str) -> dict:
    """Build an empty ``material_set`` record: a directory with no leaves.

    ``leaves[i]`` is the oid of the leaf holding every member ``m`` with
    ``lows[i] <= m < lows[i + 1]``; ``lows`` ascends, and leaf 0 also
    takes everything below ``lows[0]``.
    """
    return {"kind": KIND_SET, "name": str(name), "lows": [], "leaves": []}


def make_set_leaf(oids: list[int]) -> dict:
    """Build a set leaf: one ascending run of member oids."""
    return {"kind": KIND_SET_LEAF, "oids": oids}


# ---------------------------------------------------------------------------
# history-list nodes
# ---------------------------------------------------------------------------

#: Step oids per history node.  Chunking keeps node records small enough
#: to update cheaply while bounding pointer-chase depth.
HISTORY_CHUNK = 32


def make_history_node(step_oids: list[int], next_node: int) -> dict:
    return {
        "kind": KIND_HISTORY_NODE,
        "step_oids": list(step_oids),
        "next": int(next_node),
    }


# ---------------------------------------------------------------------------
# key-index buckets
# ---------------------------------------------------------------------------

#: Buckets per material class in the key index.  A bucket is rewritten on
#: each insert, so more buckets = smaller writes but more objects.
KEY_INDEX_BUCKETS = 64


def make_index_bucket() -> dict:
    return {"kind": KIND_INDEX_BUCKET, "entries": {}}


def bucket_for(key: str, buckets: int = KEY_INDEX_BUCKETS) -> int:
    """Deterministic bucket number for a material key.

    Uses a stable string hash (not ``hash()``, which is salted per
    process) so bucket assignment survives reopening the database.
    """
    acc = 5381
    for char in key:
        acc = ((acc * 33) + ord(char)) & 0xFFFFFFFF
    return acc % buckets


TABLE_1 = """\
storage class   contents
--------------  ---------------------------------------------------------
sm_step         step-class version, valid time, (attribute, value)
                results, oids of materials it involves
sm_material     class name, key, history-list head, most-recent index,
                current workflow state
material_set    named sets of material oids (workflow states, cohorts)

(LabBase's access structures -- history-list nodes, key-index buckets,
the sorted member leaves a material_set's directory points at -- are
not storage classes: the schema above is all a storage manager sees.)"""

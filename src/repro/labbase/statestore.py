"""Material sets and workflow states.

A ``material_set`` is the third storage class of Table 1: a named set of
material oids.  LabBase uses one set per workflow state (the set of
materials in state ``waiting_for_sequencing``, say), so the workflow
engine's "give me everything awaiting step S" query (Q3) reads only the
hot ``labbase.sets`` segment instead of scanning.

State transitions are the assert/retract pair of the paper's Section 7
rules: remove the material from its old state's set, add it to the new
one, and stamp the material record.

**Layout.**  A set is one small *directory* record, ``lows[]`` and
``leaves[]``, over sorted member leaves (``set_leaf`` records, same
segment): leaf ``i`` holds every member ``m`` with
``lows[i] <= m < lows[i + 1]``, and leaf 0 also takes whatever lies
below ``lows[0]``.  A transition reads the directory, bisects, and
rewrites *one* leaf of at most :data:`LEAF_MAX` oids per side — its cost
does not depend on how many materials share the state.  The directory is
written only when the leaf structure changes:

* a leaf that would exceed :data:`LEAF_MAX` is **split** in half, the
  upper half into a newly allocated leaf;
* a leaf that empties is **deleted**, unless it is the set's only leaf —
  small sets (the sliding windows of the E1 stream, which run empty
  every few transitions) keep their single leaf and never touch the
  directory at all.

Leaves are never merged: like a B-tree page they are reclaimed when
empty.  Members come back in ascending oid order, whatever order they
entered in.

A split allocates mid-unit, and an allocation is the one thing the
served layer cannot take back when it discards a failed unit
(``ObjectCache.discard_unit`` drops the unit's writes and every cached
object, in-place mutations included, but the new record is already in
the storage manager).  Hence the write discipline below: nothing is
mutated before the last allocation of an operation has succeeded,
every in-place mutation is followed immediately by its ``write``, and
nothing after an allocation may raise.

**Mixed era.**  Files written before this layout hold the whole set as
one ``members`` list in the ``material_set`` record.  Such a record is
read as-is (sorted on the way out) and rewritten as directory + leaves
by the first operation that mutates it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Iterable, Iterator, Mapping

from repro.errors import StateError
from repro.labbase import model
from repro.labbase.catalog import Catalog
from repro.storage.objcache import ObjectCache

#: A leaf splits in half when an insert would take it past this many
#: oids.  Bounds what one transition re-encodes and re-places (~1 KB).
LEAF_MAX = 256

#: Members per leaf when leaves are built in bulk (loader, mixed-era
#: conversion): three quarters full, so the first inserts after a load
#: do not all split.
LEAF_FILL = 192


def state_set_name(state: str) -> str:
    """Naming convention for the per-state material sets."""
    return f"state:{state}"


def _single_list_members(record: dict) -> list[int] | None:
    """The mixed-era branch: the members, ascending, of a ``material_set``
    record written when a set was one list — ``None`` for a directory."""
    members = record.get("members")
    return None if members is None else sorted(set(members))


class StateStore:
    """Named material sets, including the per-state sets.

    ``sm`` is LabBase's cache-backed store handle — set directories and
    leaves are among the hottest objects in the database, so Q3 on a
    warm cache is a pure in-memory read.
    """

    def __init__(self, sm: ObjectCache, catalog: Catalog, segment: str | None) -> None:
        self._sm = sm
        self._catalog = catalog
        self._segment = segment

    # -- generic named sets ------------------------------------------------------

    def ensure_set(self, name: str) -> int:
        """Oid of the named set's directory, creating it empty if absent."""
        oid = self._catalog.set_directory.get(name)
        if oid is None:
            oid = self._sm.allocate_write(
                model.make_material_set(name), segment=self._segment
            )
            self._catalog.set_directory[name] = oid
            self._catalog.save()
        return oid

    def _runs(self, name: str) -> Iterator[list[int]]:
        """The set's members as ascending runs, one per leaf (read-only)."""
        oid = self._catalog.set_directory.get(name)
        if oid is None:
            return
        record = self._sm.read(oid)
        members = _single_list_members(record)
        if members is not None:  # not converted yet
            yield members
            return
        for leaf_oid in record["leaves"]:
            yield self._sm.read(leaf_oid)["oids"]

    def _directory(self, oid: int) -> dict:
        """The directory record at ``oid``, ready to be mutated.

        A mixed-era single-list record is converted here, on its first
        mutation: its members are cut into leaves and a directory over
        them replaces the record.
        """
        record = self._sm.read(oid)
        members = _single_list_members(record)
        if members is None:
            return record
        directory = model.make_material_set(record["name"])
        self._merge(directory, members)
        self._sm.write(oid, directory)
        return directory

    def members(self, name: str) -> list[int]:
        """Every member, ascending."""
        return list(chain.from_iterable(self._runs(name)))

    def first(self, name: str) -> int | None:
        """The lowest member, or ``None`` for an empty or absent set."""
        for run in self._runs(name):
            if run:
                return run[0]
        return None

    def cardinality(self, name: str) -> int:
        return sum(map(len, self._runs(name)))

    def _locate(self, directory: dict, material_oid: int) -> tuple[int, int, dict, int]:
        """Where ``material_oid`` lives or would go in a non-empty
        directory: leaf index, leaf oid, leaf record, position in it."""
        index = max(bisect_right(directory["lows"], material_oid) - 1, 0)
        leaf_oid = directory["leaves"][index]
        leaf = self._sm.read(leaf_oid)
        return index, leaf_oid, leaf, bisect_left(leaf["oids"], material_oid)

    def add_member(self, name: str, material_oid: int) -> None:
        dir_oid = self.ensure_set(name)
        directory = self._directory(dir_oid)
        lows = directory["lows"]
        if not lows:
            self._merge(directory, [material_oid])
            self._sm.write(dir_oid, directory)
            return
        index, leaf_oid, leaf, at = self._locate(directory, material_oid)
        oids = leaf["oids"]
        if at < len(oids) and oids[at] == material_oid:
            return
        if len(oids) < LEAF_MAX:
            oids.insert(at, material_oid)
            self._sm.write(leaf_oid, leaf)
            return
        # Split.  The upper half is allocated before anything the cache
        # holds is touched; from there to the end nothing can raise.
        merged = [*oids[:at], material_oid, *oids[at:]]
        half = len(merged) // 2
        upper_oid = self._new_leaf(merged[half:])
        leaf["oids"] = merged[:half]
        self._sm.write(leaf_oid, leaf)
        lows.insert(index + 1, merged[half])
        directory["leaves"].insert(index + 1, upper_oid)
        self._sm.write(dir_oid, directory)

    def remove_member(self, name: str, material_oid: int) -> bool:
        dir_oid = self._catalog.set_directory.get(name)
        if dir_oid is None:
            return False
        directory = self._directory(dir_oid)
        lows = directory["lows"]
        if not lows:
            return False
        index, leaf_oid, leaf, at = self._locate(directory, material_oid)
        oids = leaf["oids"]
        if at == len(oids) or oids[at] != material_oid:
            return False
        if len(oids) > 1 or len(lows) == 1:
            del oids[at]
            self._sm.write(leaf_oid, leaf)
            return True
        # The leaf empties and is not the set's last: drop it.  Whichever
        # leaf is first afterwards covers everything below it.
        del lows[index]
        del directory["leaves"][index]
        lows[0] = 0
        self._sm.write(dir_oid, directory)
        self._sm.delete(leaf_oid)
        return True

    def add_members(self, name: str, material_oids: Iterable[int]) -> None:
        """Bulk :meth:`add_member`: every touched leaf is written once.

        A leaf the batch takes past :data:`LEAF_MAX` is re-cut into
        leaves of :data:`LEAF_FILL`, so a load into an empty set builds
        its leaves in one pass, three quarters full.
        """
        dir_oid = self.ensure_set(name)
        directory = self._directory(dir_oid)
        if self._merge(directory, sorted(set(material_oids))):
            self._sm.write(dir_oid, directory)

    def _new_leaf(self, oids: list[int]) -> int:
        return self._sm.allocate_write(
            model.make_set_leaf(oids), segment=self._segment
        )

    def _merge(self, directory: dict, incoming: list[int]) -> bool:
        """Merge sorted distinct ``incoming`` into the directory's leaves.

        Returns whether the leaf structure changed, i.e. whether the
        caller must write the directory.  Two passes: the first cuts
        every touched leaf into pieces and allocates all the new leaves,
        building ``lows``/``leaves`` on the side; only when the last
        allocation has succeeded does the second rewrite the existing
        leaves and install the new directory lists.
        """
        lows, leaves = directory["lows"], directory["leaves"]
        new_lows: list[int] = []
        new_leaves: list[int] = []
        rewrites: list[tuple[int, dict, list[int]]] = []
        start = 0
        for index in range(max(len(leaves), 1)):
            if index + 1 < len(lows):
                stop = bisect_left(incoming, lows[index + 1], start)
            else:
                stop = len(incoming)
            merged = incoming[start:stop]
            start = stop
            leaf = self._sm.read(leaves[index]) if leaves and merged else None
            if leaf is not None:
                merged = sorted({*leaf["oids"], *merged})
                if len(merged) == len(leaf["oids"]):
                    merged = []
            if not merged:  # nothing new lands here
                new_lows.extend(lows[index:index + 1])
                new_leaves.extend(leaves[index:index + 1])
                continue
            size = len(merged) if len(merged) <= LEAF_MAX else LEAF_FILL
            pieces = [merged[at:at + size] for at in range(0, len(merged), size)]
            tail = [self._new_leaf(piece) for piece in pieces[1:]]
            if leaf is None:
                new_leaves.append(self._new_leaf(pieces[0]))
            else:
                rewrites.append((leaves[index], leaf, pieces[0]))
                new_leaves.append(leaves[index])
            new_leaves.extend(tail)
            new_lows.append(lows[index] if index else 0)
            new_lows.extend(piece[0] for piece in pieces[1:])
        # Every allocation has succeeded; from here on nothing can raise.
        for leaf_oid, leaf, oids in rewrites:
            leaf["oids"] = oids
            self._sm.write(leaf_oid, leaf)
        directory["lows"], directory["leaves"] = new_lows, new_leaves
        return new_leaves != leaves

    # -- workflow states -----------------------------------------------------------

    def enter_state(
        self, material_oid: int, material: dict, state: str, valid_time: int
    ) -> None:
        """assert(state(M, new)) after retract(state(M, old)).

        Mutates the material record (caller persists it) and maintains
        the per-state sets.
        """
        old_state = material["state"]
        if old_state != state:
            # Add before remove: an add may allocate (split), a remove
            # may delete (emptied leaf), and neither is undone when a
            # served unit is discarded — so the delete goes last.
            self.add_member(state_set_name(state), material_oid)
            if old_state is not None:
                self.remove_member(state_set_name(old_state), material_oid)
        material["state"] = state
        material["state_since"] = int(valid_time)

    def leave_state(self, material_oid: int, material: dict) -> str:
        """retract(state(M, S)) with no replacement (material retires)."""
        old_state = material["state"]
        if old_state is None:
            raise StateError(f"material {material_oid} has no state to retract")
        self.remove_member(state_set_name(old_state), material_oid)
        material["state"] = None
        material["state_since"] = None
        return old_state

    def in_state(self, state: str) -> list[int]:
        """Material oids currently in a workflow state (query Q3), ascending."""
        return self.members(state_set_name(state))

    def state_census(self) -> dict[str, int]:
        """State name -> population, over all per-state sets."""
        census = {}
        prefix = state_set_name("")
        for name in self._catalog.set_directory:
            if name.startswith(prefix):
                census[name[len(prefix):]] = self.cardinality(name)
        return census

    # -- integrity -------------------------------------------------------------------

    def check(
        self, stated: Mapping[str, set[int]], stored_leaves: set[int]
    ) -> list[str]:
        """Problems in the sets, against what a scan of the store found.

        ``stated`` maps each workflow state to the oids of the materials
        whose records carry it; ``stored_leaves`` is the oid of every
        ``set_leaf`` record in the store.  Checked: every directory's
        ``lows`` ascend from 0, one per leaf; every leaf is sorted, within
        :data:`LEAF_MAX`, inside its range and (unless it is the only
        one) non-empty; no leaf is referenced twice or not at all; each
        per-state set holds exactly the materials in that state.  Reads
        only; an empty list means everything agrees.
        """
        problems: list[str] = []
        referenced: set[int] = set()
        for name, dir_oid in sorted(self._catalog.set_directory.items()):
            record = self._sm.read(dir_oid) if self._sm.exists(dir_oid) else None
            if not isinstance(record, dict) or record.get("kind") != model.KIND_SET:
                problems.append(f"set {name!r}: oid {dir_oid} is not a material_set")
                continue
            if _single_list_members(record) is not None:
                continue  # one list, no structure to check
            lows, leaves = record["lows"], record["leaves"]
            if len(lows) != len(leaves) or lows[:1] not in ([], [0]) or any(
                low >= high for low, high in zip(lows, lows[1:])
            ):
                problems.append(f"set {name!r}: bad directory lows {lows!r}")
                continue
            for index, leaf_oid in enumerate(leaves):
                where = f"set {name!r} leaf {index} (oid {leaf_oid})"
                if leaf_oid in referenced:
                    problems.append(f"{where}: referenced twice")
                referenced.add(leaf_oid)
                if leaf_oid not in stored_leaves:
                    problems.append(f"{where}: not a stored set_leaf")
                    continue
                oids = self._sm.read(leaf_oid)["oids"]
                if any(a >= b for a, b in zip(oids, oids[1:])):
                    problems.append(f"{where}: not sorted and distinct")
                if len(oids) > LEAF_MAX or not oids and len(leaves) > 1:
                    problems.append(f"{where}: holds {len(oids)} oids")
                if oids and (
                    (index > 0 and oids[0] < lows[index])
                    or (index + 1 < len(lows) and oids[-1] >= lows[index + 1])
                ):
                    problems.append(f"{where}: members outside its range")
        sound = not problems  # membership is only readable over sound leaves
        for leaf_oid in sorted(stored_leaves - referenced):
            problems.append(f"set_leaf {leaf_oid}: referenced by no set")
        if not sound:
            return problems
        census = self.state_census()
        for state in sorted({*census, *stated}):
            expected = stated.get(state, set())
            actual = set(self.in_state(state))
            if actual != expected:
                problems.append(
                    f"state {state!r}: {len(expected - actual)} material(s) "
                    f"missing from its set, {len(actual - expected)} in it "
                    f"wrongly (e.g. {sorted(expected ^ actual)[:3]})"
                )
        members, materials = sum(census.values()), sum(map(len, stated.values()))
        if members != materials:
            problems.append(
                f"state sets hold {members} members for {materials} "
                "materials with a state"
            )
        return problems

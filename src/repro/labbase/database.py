"""LabBase: the workflow-DBMS wrapper (the paper's Architecture C).

One :class:`LabBase` instance runs over any
:class:`~repro.storage.base.StorageManager` and provides what the
benchmark requires of a workflow DBMS:

* event histories — every step is recorded forever, materials derive
  their attributes from the steps that processed them;
* most-recent queries by valid time, served from a per-material index;
* workflow states backed by ``material_set`` records (a small directory
  over bounded sorted leaves, so a transition costs the same at any
  population);
* dynamic schema evolution via attribute-set step-class versions;
* named material sets, counting and report generation.

Storage layout (the four segments of Section 5.1 — three small hot, one
large cold)::

    labbase.catalog    catalog record + key-index buckets      (hot)
    labbase.materials  sm_material records w/ most-recent index (hot)
    labbase.sets       material_set directories + their leaves  (hot)
    labbase.history    sm_step records + history-list nodes     (cold)

On storage managers without segments (Texas) the same calls run
unchanged; everything lands in one heap in allocation order, which is
precisely the locality contrast experiment E5 measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from repro.storage.integrity import IntegrityReport

from repro.errors import (
    DuplicateKeyError,
    UnknownAttributeError,
    UnknownMaterialError,
)
from repro.labbase import model
from repro.labbase.catalog import Catalog
from repro.labbase.history import HistoryStore
from repro.labbase.schema import MaterialClass, StepClassVersion
from repro.labbase.statestore import StateStore, state_set_name
from repro.storage.base import StorageManager
from repro.storage.objcache import DEFAULT_CACHE_OBJECTS, ObjectCache

SEG_CATALOG = "labbase.catalog"
SEG_MATERIALS = "labbase.materials"
SEG_SETS = "labbase.sets"
SEG_HISTORY = "labbase.history"

SEGMENT_PLAN = (
    (SEG_CATALOG, "catalog + key-index buckets (small, hot)"),
    (SEG_MATERIALS, "sm_material records with most-recent indexes (small, hot)"),
    (SEG_SETS, "material_set directories + member leaves (small, hot)"),
    (SEG_HISTORY, "sm_step records + history nodes (large, cold)"),
)


class LabBase:
    """The workflow data server.

    Parameters
    ----------
    sm:
        Any storage manager.  LabBase requests its four segments; a
        manager without segment support serves everything from one heap.
    use_most_recent_index:
        When False (ablation A1), most-recent queries scan history
        instead of using the per-material index.
    history_chunk:
        Step oids per history-list node.
    object_cache:
        ``True`` (default) caches :data:`~repro.storage.objcache.DEFAULT_CACHE_OBJECTS`
        deserialized objects; an int sets the capacity directly.
        ``False`` (ablation A4 "off") keeps a capacity-0 cache: reads
        always go to the storage manager, but writes still follow the
        same unit-of-work discipline, so both settings issue the
        identical storage-manager write sequence (byte-identical
        databases).
    """

    def __init__(
        self,
        sm: StorageManager,
        use_most_recent_index: bool = True,
        history_chunk: int = model.HISTORY_CHUNK,
        object_cache: bool | int = True,
    ) -> None:
        self._sm = sm
        self.use_most_recent_index = use_most_recent_index
        if object_cache is True:
            capacity = DEFAULT_CACHE_OBJECTS
        elif object_cache is False:
            capacity = 0
        else:
            capacity = int(object_cache)
        self._store = ObjectCache(sm, capacity=capacity)
        # Commit-batched most-recent index: while a unit of work is
        # buffering, record_step accumulates each material's candidate
        # index winners here (attribute -> [valid_time, step_oid,
        # inlined, value]) instead of folding them into the hot record
        # per step; the cache's flush listener installs them exactly
        # once, at the head of the commit drain.
        self._pending_recent: dict[int, dict[str, list]] = {}
        for name, description in SEGMENT_PLAN:
            sm.create_segment(name, description)
        seg = self.segment_arg
        self.catalog = Catalog(self._store, seg(SEG_CATALOG))
        # The counters record is written when a checkpoint follows, not
        # per update (see ``repro.labbase.catalog``).
        self._store.set_unit_listeners(
            flush=self._install_pending_recent,
            discard=self._pending_recent.clear,
            checkpoint=self.catalog.write_counters,
        )
        self.history = HistoryStore(self._store, seg(SEG_HISTORY), chunk=history_chunk)
        self.sets = StateStore(self._store, self.catalog, seg(SEG_SETS))

    def segment_arg(self, name: str) -> str | None:
        return name if self._sm.supports_segments else None

    @property
    def storage(self) -> StorageManager:
        return self._sm

    @property
    def cache(self) -> ObjectCache:
        """The unit-of-work object cache every component reads through."""
        return self._store

    # ------------------------------------------------------------------
    # crash consistency
    # ------------------------------------------------------------------

    def verify_storage(self) -> IntegrityReport:
        """Integrity report for the underlying store (never modifies it)."""
        return self._sm.verify()

    def recover_storage(self) -> dict[str, int]:
        """Repair the store after a crash-reopen, then reload the catalog.

        Recovery may drop objects the catalog (as read at construction)
        still references, or drop the catalog record itself; reloading
        re-reads it from the repaired roots — or bootstraps a fresh one.
        Counters this process left dirty count commits the directory
        holds, so they are written first; a store reopened after a
        crash has none.
        """
        self.catalog.write_counters()
        outcome = self._sm.recover()
        self.catalog.reload()
        return outcome

    # ------------------------------------------------------------------
    # schema (U4)
    # ------------------------------------------------------------------

    def define_material_class(
        self,
        name: str,
        key_attribute: str = "name",
        description: str = "",
        parent: str | None = None,
    ) -> MaterialClass:
        """Register a material class (idempotent for equal definitions)."""
        material_class = MaterialClass(
            name=name,
            key_attribute=key_attribute,
            description=description,
            parent=parent,
        )
        self.catalog.register_material_class(material_class)
        return material_class

    def define_step_class(
        self,
        name: str,
        attributes: Iterable[str],
        involves_classes: Iterable[str] = (),
        description: str = "",
    ) -> StepClassVersion:
        """Register a step class / apply a schema change (operation U4).

        A new attribute set creates a new version; existing data is
        never touched (E9's measured property).
        """
        return self.catalog.register_step_class(
            name,
            tuple(attributes),
            tuple(involves_classes),
            description,
        )

    # ------------------------------------------------------------------
    # key index
    # ------------------------------------------------------------------

    def bucket_oid(self, class_name: str, key: str, create: bool) -> int:
        buckets = self.catalog.key_index[class_name]
        if not buckets:
            if not create:
                return model.NIL
            buckets.extend([model.NIL] * model.KEY_INDEX_BUCKETS)
        index = model.bucket_for(key, len(buckets))
        if buckets[index] == model.NIL:
            if not create:
                return model.NIL
            buckets[index] = self._store.allocate_write(
                model.make_index_bucket(), segment=self.segment_arg(SEG_CATALOG)
            )
            self.catalog.save()
        return buckets[index]

    def _index_insert(self, class_name: str, key: str, material_oid: int) -> None:
        bucket_oid = self.bucket_oid(class_name, key, create=True)
        bucket = self._store.read(bucket_oid)
        if key in bucket["entries"]:
            raise DuplicateKeyError(class_name, key)
        bucket["entries"][key] = material_oid
        self._store.write(bucket_oid, bucket)

    def _index_lookup(self, class_name: str, key: str) -> int:
        self.catalog.material_class(class_name)  # raise on unknown class
        bucket_oid = self.bucket_oid(class_name, key, create=False)
        if bucket_oid == model.NIL:
            raise UnknownMaterialError(f"no material {key!r} in class {class_name!r}")
        bucket = self._store.read(bucket_oid)
        oid = bucket["entries"].get(key)
        if oid is None:
            raise UnknownMaterialError(f"no material {key!r} in class {class_name!r}")
        return oid

    # ------------------------------------------------------------------
    # materials (U2)
    # ------------------------------------------------------------------

    def create_material(
        self,
        class_name: str,
        key: str,
        valid_time: int,
        state: str | None = None,
    ) -> int:
        """create_<class>(M): new material instance, returns its oid."""
        self.catalog.material_class(class_name)
        record = model.make_material(class_name, key, valid_time)
        oid = self._store.allocate_write(record, segment=self.segment_arg(SEG_MATERIALS))
        self._index_insert(class_name, key, oid)
        if state is not None:
            self.sets.enter_state(oid, record, state, valid_time)
        self._store.write(oid, record)
        self.catalog.material_counts[class_name] = (
            self.catalog.material_counts.get(class_name, 0) + 1
        )
        self.catalog.save_counters()
        return oid

    def material(self, oid: int) -> dict:
        """The raw sm_material record (treat as read-only)."""
        record = self._store.read(oid)
        if record.get("kind") != model.KIND_MATERIAL:
            raise UnknownMaterialError(f"oid {oid} is not a material")
        return record

    def lookup(self, class_name: str, key: str) -> int:
        """Q1: material oid by (class, key)."""
        return self._index_lookup(class_name, key)

    def material_exists(self, class_name: str, key: str) -> bool:
        try:
            self._index_lookup(class_name, key)
        except UnknownMaterialError:
            return False
        return True

    # ------------------------------------------------------------------
    # steps (U1) — workflow tracking
    # ------------------------------------------------------------------

    def record_step(
        self,
        class_name: str,
        valid_time: int,
        involves: Iterable[int],
        results: dict[str, object] | None = None,
        version_id: int | None = None,
    ) -> int:
        """U1: insert a step instance; extends every involved history.

        ``results`` must use attributes declared by the step-class
        version (the current one unless ``version_id`` pins an older
        version — old lab software keeps writing old-format steps after
        a schema change, which LabBase must accept).
        """
        step_class = self.catalog.step_class(class_name)
        version = (
            step_class.current
            if version_id is None
            else step_class.version_by_id(version_id)
        )
        results = dict(results or {})
        version.validate_results(results)
        involved = [int(oid) for oid in involves]

        step = model.make_step(
            class_version=version.version_id,
            valid_time=valid_time,
            results=sorted(results.items()),
            involves=involved,
        )
        step_oid = self._store.allocate_write(
            step, segment=self.segment_arg(SEG_HISTORY)
        )

        buffering = self._store.in_transaction
        for material_oid in involved:
            material = self.material(material_oid)
            self.history.append(material, step_oid)
            if self.use_most_recent_index:
                if buffering:
                    # Fold this step's results into the pending winners
                    # (same rule as model.update_recent: most-recent by
                    # valid time, ties to the later insert).  The hot
                    # record is still written — the history head moved —
                    # but its index is touched once per commit, not
                    # once per step.
                    pending = self._pending_recent.setdefault(material_oid, {})
                    for attr, value in results.items():
                        entry = pending.get(attr)
                        if entry is None or valid_time >= entry[0]:
                            if model.is_inlineable(value):
                                pending[attr] = [valid_time, step_oid, True, value]
                            else:
                                pending[attr] = [valid_time, step_oid, False, None]
                else:
                    for attr, value in results.items():
                        model.update_recent(
                            material, attr, valid_time, step_oid, value
                        )
            self._store.write(material_oid, material)

        self.catalog.step_counts[class_name] = (
            self.catalog.step_counts.get(class_name, 0) + 1
        )
        self.catalog.version_step_counts[version.version_id] = (
            self.catalog.version_step_counts.get(version.version_id, 0) + 1
        )
        self.catalog.save_counters()
        return step_oid

    def step(self, oid: int) -> dict:
        """The raw sm_step record (treat as read-only)."""
        record = self._store.read(oid)
        if record.get("kind") != model.KIND_STEP:
            raise UnknownMaterialError(f"oid {oid} is not a step")
        return record

    # -- commit-batched most-recent index ------------------------------------

    def _install_recent(self, material_oid: int, material: dict) -> bool:
        """Fold one material's pending index winners into its record.

        Applying the accumulated winner with ``update_recent``'s rule
        (install when ``valid_time >= current``) yields exactly the
        entry — and the key insertion order — the per-step path would
        have produced: the fold is associative, and a pending attribute
        always enters the record in first-candidate order.
        """
        pending = self._pending_recent.pop(material_oid, None)
        if not pending:
            return False
        recent = material["recent"]
        for attr, entry in pending.items():
            current = recent.get(attr)
            if current is None or entry[0] >= current[0]:
                recent[attr] = entry
        return True

    def _install_pending_recent(self) -> None:
        """Install every pending winner (the cache's flush listener).

        Runs at the head of every unit-of-work drain, in material-oid
        order, so the installed records join the same deterministic
        oid-ordered write sequence the unbatched path produced.
        """
        for material_oid in sorted(self._pending_recent):
            # The unit that buffered the winners also wrote the material
            # (the history append dirties it), so the dirty peek avoids
            # billing a logical read for pure install bookkeeping.  The
            # read fallback covers a session detach that settled the
            # dirty entry before the drain.
            material = self._store.peek_dirty(material_oid)
            if material is None:
                material = self._store.read(material_oid)
            if self._install_recent(material_oid, material):
                self._store.write(material_oid, material)

    def retract_step(self, step_oid: int) -> None:
        """Remove a step from the event history (correction of a mistake).

        Unlinks it from every involved material, rebuilds their
        most-recent indexes (older values may resurface), and deletes
        the step record.
        """
        step = self.step(step_oid)
        for material_oid in step["involves"]:
            material = self.material(material_oid)
            if self.history.remove_step(material, step_oid):
                if self.use_most_recent_index:
                    # Pending winners may name the retracted step; the
                    # rebuild recomputes from the full history (which
                    # subsumes every pending candidate), so they drop.
                    self._pending_recent.pop(material_oid, None)
                    self.history.rebuild_recent(material)
                self._store.write(material_oid, material)
        version = self.catalog.step_version(step["class_version"])
        self.catalog.step_counts[version.name] -= 1
        self.catalog.version_step_counts[version.version_id] -= 1
        self._store.delete(step_oid)
        self.catalog.save_counters()

    # ------------------------------------------------------------------
    # workflow states (U3)
    # ------------------------------------------------------------------

    def set_state(self, material_oid: int, state: str, valid_time: int) -> None:
        """U3: retract old state, assert new state."""
        material = self.material(material_oid)
        self.sets.enter_state(material_oid, material, state, valid_time)
        self._store.write(material_oid, material)

    def clear_state(self, material_oid: int) -> str:
        """Retract the material's state with no replacement."""
        material = self.material(material_oid)
        old = self.sets.leave_state(material_oid, material)
        self._store.write(material_oid, material)
        return old

    def state_of(self, material_oid: int) -> str | None:
        return self.material(material_oid)["state"]

    def in_state(self, state: str) -> list[int]:
        """Q3: all materials currently in a workflow state, ascending oid."""
        return self.sets.in_state(state)

    def first_in_state(self, state: str) -> int | None:
        """The lowest-oid material in a workflow state, or ``None``.

        ``in_state(state)[0]`` without building the list: what a pump
        that advances one waiting material at a time needs.
        """
        return self.sets.first(state_set_name(state))

    # ------------------------------------------------------------------
    # most-recent queries (Q2) and views
    # ------------------------------------------------------------------

    def most_recent(self, material_oid: int, attribute: str) -> object:
        """Q2: the most-recent value (by valid time) of an attribute."""
        material = self.material(material_oid)
        if not self.use_most_recent_index:
            found = self.history.scan_most_recent(material, attribute)
            if found is None:
                raise UnknownAttributeError(f"material {material_oid}", attribute)
            return found[2]
        # A mid-unit query sees its own writes: materialize the pending
        # winners first.  The write buffers with the unit's others, so
        # this adds no storage write the commit would not issue anyway.
        if self._pending_recent and self._install_recent(material_oid, material):
            self._store.write(material_oid, material)
        entry = model.recent_entry(material, attribute)
        if entry is None:
            raise UnknownAttributeError(f"material {material_oid}", attribute)
        _valid_time, step_oid, inlined, value = entry
        if inlined:
            return value
        return model.step_result(self.step(step_oid), attribute)

    def value_as_of(
        self, material_oid: int, attribute: str, valid_time: int
    ) -> object:
        """The attribute's value as of a past valid time.

        The situation-calculus reading of the history (Section 7): the
        state at time T is the result of the most recent actions at or
        before T.  Always a history scan — the most-recent index only
        accelerates "now" — so cost is linear in history length, which
        is why the lab asks it rarely and the index exists for Q2.
        """
        material = self.material(material_oid)
        best: tuple[int, object] | None = None
        for _oid, step in self.history.steps(material):
            step_time = step["valid_time"]
            if step_time > valid_time:
                continue
            try:
                value = model.step_result(step, attribute)
            except KeyError:
                continue
            if best is None or step_time > best[0]:
                best = (step_time, value)
        if best is None:
            raise UnknownAttributeError(
                f"material {material_oid} (as of t={valid_time})", attribute
            )
        return best[1]

    def attributes_as_of(
        self, material_oid: int, valid_time: int
    ) -> dict[str, object]:
        """The material's full attribute view as of a past valid time."""
        material = self.material(material_oid)
        values: dict[str, object] = {}
        seen: dict[str, int] = {}
        for _oid, step in self.history.steps(material):
            step_time = step["valid_time"]
            if step_time > valid_time:
                continue
            for attr, value in step["results"]:
                if attr not in seen or step_time > seen[attr]:
                    seen[attr] = step_time
                    values[attr] = value
        return values

    def has_attribute(self, material_oid: int, attribute: str) -> bool:
        try:
            self.most_recent(material_oid, attribute)
        except UnknownAttributeError:
            return False
        return True

    def current_attributes(self, material_oid: int) -> dict[str, object]:
        """Merged current attribute view of a material.

        The material's *type* depends on its history, not only its
        class: attributes exist exactly when some step produced them.
        """
        material = self.material(material_oid)
        if self.use_most_recent_index:
            if self._pending_recent and self._install_recent(material_oid, material):
                self._store.write(material_oid, material)
            return {
                attr: self.most_recent(material_oid, attr)
                for attr in material["recent"]
            }
        values: dict[str, object] = {}
        seen: dict[str, int] = {}
        for _oid, step in self.history.steps(material):
            for attr, value in step["results"]:
                if attr not in seen or step["valid_time"] > seen[attr]:
                    seen[attr] = step["valid_time"]
                    values[attr] = value
        return values

    # ------------------------------------------------------------------
    # history (Q7)
    # ------------------------------------------------------------------

    def material_history(self, material_oid: int) -> list[tuple[int, dict]]:
        """Q7: the audit trail, newest valid time first.

        Walks the cold history segment: every chain node and every step
        record is read and the steps sorted.  Not a way to count them —
        :meth:`history_length` answers that from the material record.
        """
        material = self.material(material_oid)
        return self.history.steps_by_valid_time(material)

    def history_length(self, material_oid: int) -> int:
        """Steps in the material's history, O(1): one hot-record read.

        ``history_len`` is kept current in the same unit as the chain by
        ``HistoryStore.append`` and ``remove_step`` and by the bulk
        loader; :meth:`check_history_lengths` cross-checks it.
        """
        return self.material(material_oid)["history_len"]

    # ------------------------------------------------------------------
    # counting (Q5) and reports (Q6)
    # ------------------------------------------------------------------

    def count_materials(self, class_name: str, include_subclasses: bool = True) -> int:
        """Q5: materials in a class (and its EER subclasses)."""
        if not include_subclasses:
            self.catalog.material_class(class_name)
            return self.catalog.material_counts.get(class_name, 0)
        return sum(
            self.catalog.material_counts.get(name, 0)
            for name in self.catalog.subclasses(class_name)
        )

    def count_steps(self, class_name: str) -> int:
        """Q5: steps recorded under a step class (all versions)."""
        self.catalog.step_class(class_name)
        return self.catalog.step_counts.get(class_name, 0)

    def report(
        self, material_oids: Iterable[int], attributes: Iterable[str]
    ) -> list[dict[str, object]]:
        """Q6: one row per material with key, state and chosen attributes.

        Missing attributes render as None (a report column, not an
        error): materials in early workflow states lack later attrs.
        """
        attrs = list(attributes)
        rows = []
        for oid in material_oids:
            material = self.material(oid)
            row: dict[str, object] = {
                "oid": oid,
                "class": material["class_name"],
                "key": material["key"],
                "state": material["state"],
            }
            for attr in attrs:
                try:
                    row[attr] = self.most_recent(oid, attr)
                except UnknownAttributeError:
                    row[attr] = None
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # iteration helpers (integrity checks, re-indexing, tests)
    # ------------------------------------------------------------------

    def iter_materials(self) -> Iterator[tuple[int, dict]]:
        """Every material record (storage scan; not a benchmark op)."""
        self._install_pending_recent()
        for oid in self._store.oids():
            record = self._store.read(oid)
            if isinstance(record, dict) and record.get("kind") == model.KIND_MATERIAL:
                yield oid, record

    def check_state_sets(self) -> list[str]:
        """Where the workflow-state sets and the material records disagree.

        One storage scan (not a benchmark op) collects every material's
        state and every set leaf; :meth:`StateStore.check` compares them
        with the set directories.  Reads only; empty when all is well.
        """
        stated: dict[str, set[int]] = {}
        leaves: set[int] = set()
        for oid in self._store.oids():
            record = self._store.read(oid)
            kind = record.get("kind") if isinstance(record, dict) else None
            if kind == model.KIND_SET_LEAF:
                leaves.add(oid)
            elif kind == model.KIND_MATERIAL and record["state"] is not None:
                stated.setdefault(record["state"], set()).add(oid)
        return self.sets.check(stated, leaves)

    def check_history_lengths(self) -> list[str]:
        """Materials whose ``history_len`` disagrees with their chain.

        One storage scan (not a benchmark op) counts each material's
        step oids by walking its history nodes only; no step record is
        read.  Empty when all is well.
        """
        problems = []
        for oid, record in self.iter_materials():
            walked = sum(1 for _ in self.history.step_oids(record))
            if walked != record["history_len"]:
                problems.append(
                    f"material {oid}: history_len {record['history_len']}"
                    f" but {walked} steps in its chain"
                )
        return problems

    def iter_steps(self) -> Iterator[tuple[int, dict]]:
        """Every step record (storage scan; not a benchmark op)."""
        for oid in self._store.oids():
            record = self._store.read(oid)
            if isinstance(record, dict) and record.get("kind") == model.KIND_STEP:
                yield oid, record

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def begin(self) -> None:
        self._store.begin()
        self.catalog.begin()

    def commit(self) -> None:
        self._store.commit()

    def abort(self) -> None:
        self._store.abort()
        self.catalog.rollback()

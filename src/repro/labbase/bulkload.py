"""Bulk loading: building the benchmark database efficiently.

LabFlow-1 runs have two phases: *build* an initial database, then
stream against it.  Loading through the one-at-a-time API pays per
operation for index-bucket rewrites, per-state set updates, counter
saves and history-node writes.  :class:`BulkLoader` batches a whole
load and writes each touched structure **once**:

* key-index buckets grouped by bucket;
* per-state material sets grouped by state, their leaves built in one
  pass through :meth:`StateStore.add_members`;
* one history-node chain write per material (chunks filled directly);
* one counters save and one catalog save.

The result is logically identical to the equivalent API calls (tests
assert this record-for-record); bench E12 measures the difference.

Usage::

    loader = BulkLoader(db)
    ref = loader.add_material("clone", "c-1", t, state="arrived")
    loader.add_step("receive_clone", t, [ref], {"source": "MIT"})
    oids = loader.flush()          # {ref: oid}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import DuplicateKeyError, LabBaseError
from repro.labbase import model
from repro.labbase.database import SEG_CATALOG, SEG_HISTORY, SEG_MATERIALS, LabBase
from repro.labbase.statestore import state_set_name


@dataclass(frozen=True)
class BulkRef:
    """Placeholder for a material created in a pending bulk load."""

    index: int


@dataclass
class _PendingMaterial:
    class_name: str
    key: str
    valid_time: int
    state: str | None
    record: dict = field(default_factory=dict)
    oid: int = 0


@dataclass
class _PendingStep:
    class_name: str
    valid_time: int
    involves: list
    results: dict


class BulkLoader:
    """Accumulates materials and steps, then flushes in batched writes."""

    def __init__(self, db: LabBase) -> None:
        self._db = db
        self._materials: list[_PendingMaterial] = []
        self._steps: list[_PendingStep] = []
        self._keys_seen: set[tuple[str, str]] = set()
        self._flushed = False

    # -- accumulation ------------------------------------------------------------

    def add_material(
        self,
        class_name: str,
        key: str,
        valid_time: int,
        state: str | None = None,
    ) -> BulkRef:
        """Queue a material; returns a ref usable in ``add_step``."""
        self._check_not_flushed()
        self._db.catalog.material_class(class_name)  # raise on unknown
        if (class_name, key) in self._keys_seen:
            raise DuplicateKeyError(class_name, key)
        self._keys_seen.add((class_name, key))
        self._materials.append(
            _PendingMaterial(class_name, key, valid_time, state)
        )
        return BulkRef(len(self._materials) - 1)

    def add_step(
        self,
        class_name: str,
        valid_time: int,
        involves: Iterable[BulkRef | int],
        results: dict | None = None,
    ) -> None:
        """Queue a step; ``involves`` may mix BulkRefs and existing oids."""
        self._check_not_flushed()
        version = self._db.catalog.step_class(class_name).current
        results = dict(results or {})
        version.validate_results(results)
        self._steps.append(
            _PendingStep(class_name, valid_time, list(involves), results)
        )

    def _check_not_flushed(self) -> None:
        if self._flushed:
            raise LabBaseError("bulk loader already flushed")

    # -- flush -----------------------------------------------------------------------

    def flush(self) -> dict[BulkRef, int]:
        """Write everything in batched form; returns ref -> oid."""
        self._check_not_flushed()
        self._flushed = True
        db = self._db
        sm = db.cache  # cache-backed handle: same object API as the SM
        seg = db.segment_arg

        # 1. material records (fresh, history filled in below)
        for pending in self._materials:
            pending.record = model.make_material(
                pending.class_name, pending.key, pending.valid_time
            )
            if pending.state is not None:
                pending.record["state"] = pending.state
                pending.record["state_since"] = pending.valid_time
            pending.oid = sm.allocate_write(
                pending.record, segment=seg(SEG_MATERIALS)
            )

        def resolve(target: BulkRef | int) -> int:
            if isinstance(target, BulkRef):
                return self._materials[target.index].oid
            return int(target)

        by_oid = {pending.oid: pending for pending in self._materials}

        # 2. step records + in-memory history/index accumulation
        history_chunks: dict[int, list[list[int]]] = {}
        touched_existing: dict[int, dict] = {}

        def material_record(oid: int) -> dict:
            pending = by_oid.get(oid)
            if pending is not None:
                return pending.record
            record = touched_existing.get(oid)
            if record is None:
                record = db.material(oid)
                touched_existing[oid] = record
            return record

        for step in self._steps:
            version = db.catalog.step_class(step.class_name).current
            involved = [resolve(target) for target in step.involves]
            step_record = model.make_step(
                class_version=version.version_id,
                valid_time=step.valid_time,
                results=sorted(step.results.items()),
                involves=involved,
            )
            step_oid = sm.allocate_write(step_record, segment=seg(SEG_HISTORY))
            db.catalog.step_counts[step.class_name] = (
                db.catalog.step_counts.get(step.class_name, 0) + 1
            )
            db.catalog.version_step_counts[version.version_id] = (
                db.catalog.version_step_counts.get(version.version_id, 0) + 1
            )
            for oid in involved:
                record = material_record(oid)
                chunks = history_chunks.setdefault(oid, [])
                if not chunks or len(chunks[-1]) >= db.history.chunk_size:
                    chunks.append([])
                chunks[-1].append(step_oid)
                record["history_len"] += 1
                if db.use_most_recent_index:
                    for attr, value in step.results.items():
                        model.update_recent(
                            record, attr, step.valid_time, step_oid, value
                        )

        # 3. history node chains, one write per node, chained oldest->head
        for oid, chunks in history_chunks.items():
            record = material_record(oid)
            next_node = record["history_head"]
            for chunk in chunks:  # oldest chunk first
                node = model.make_history_node(chunk, next_node=next_node)
                next_node = sm.allocate_write(node, segment=seg(SEG_HISTORY))
            record["history_head"] = next_node

        # 4. write back touched material records (once each)
        for pending in self._materials:
            sm.write(pending.oid, pending.record)
        for oid, record in touched_existing.items():
            sm.write(oid, record)

        # 5. key-index buckets, grouped
        bucket_inserts: dict[tuple[str, int], list[_PendingMaterial]] = {}
        for pending in self._materials:
            bucket = model.bucket_for(pending.key)
            bucket_inserts.setdefault(
                (pending.class_name, bucket), []
            ).append(pending)
        for (class_name, _bucket), group in bucket_inserts.items():
            bucket_oid = db.bucket_oid(class_name, group[0].key, create=True)
            record = sm.read(bucket_oid)
            for pending in group:
                if pending.key in record["entries"]:
                    raise DuplicateKeyError(class_name, pending.key)
                record["entries"][pending.key] = pending.oid
            sm.write(bucket_oid, record)

        # 6. per-state sets, grouped
        by_state: dict[str, list[int]] = {}
        for pending in self._materials:
            if pending.state is not None:
                by_state.setdefault(pending.state, []).append(pending.oid)
        for state, oids in by_state.items():
            db.sets.add_members(state_set_name(state), oids)

        # 7. counters, once
        for pending in self._materials:
            db.catalog.material_counts[pending.class_name] = (
                db.catalog.material_counts.get(pending.class_name, 0) + 1
            )
        db.catalog.save_counters()
        db.catalog.save()

        return {
            BulkRef(index): pending.oid
            for index, pending in enumerate(self._materials)
        }

"""The shared paged storage-manager implementation.

The abstract :class:`StorageManager` API — the contract every server
version of the benchmark runs against — lives in
``repro.storage.contract`` (re-exported here for compatibility); this
module supplies :class:`PagedStorageManager`, which implements the API
over pages, a buffer pool, and the simulated disk.  Concrete managers
differ only in the *policies* the paper attributes the measured
differences to:

* ``charge_policy`` — how record bytes map to allocated bytes
  (dense for ObjectStore, power-of-two cells for Texas);
* segment support — whether ``segment=`` placement hints are honoured
  (ObjectStore) or everything lands in one heap in allocation order
  (Texas);
* the fault hook — Texas charges pointer-swizzling work per fault;
* concurrency — ObjectStore admits multiple clients through a lock
  manager, Texas refuses a second client.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.storage.faultinject import FaultInjector
    from repro.storage.integrity import IntegrityReport

from repro.errors import (
    StorageClosedError,
    StorageError,
    TransactionError,
    UnknownOidError,
    UnknownSegmentError,
)
from repro.storage.buffer import (
    DEFAULT_POOL_PAGES,
    DEFAULT_READAHEAD_PAGES,
    BufferPool,
)
from repro.storage.contract import CacheHooks, StorageManager
from repro.storage.disk import PageFile
from repro.storage.page import (
    MAX_RECORD_BYTES,
    Page,
    ChargePolicy,
    exact_charge,
)
from repro.storage.segment import DEFAULT_SEGMENT, Segment
from repro.storage.codec import DEFAULT_CODEC, RecordCodec
from repro.storage.stats import StorageStats
from repro.util.ids import OidAllocator

__all__ = ["CacheHooks", "StorageManager", "PagedStorageManager", "len_meta"]

#: Payload bytes per large-object chunk (kept under MAX_RECORD_BYTES with
#: room for the pickle framing of a bytes object).
CHUNK_PAYLOAD_BYTES = 3800

#: Journal marker: the oid had no directory entry before the transaction.
_ABSENT = object()


class PagedStorageManager(StorageManager):
    """Shared implementation for the page-based (persistent) managers."""

    def __init__(
        self,
        path: str | None = None,
        buffer_pages: int = DEFAULT_POOL_PAGES,
        charge_policy: ChargePolicy = exact_charge,
        checkpoint_every: int = 0,
        fault_injector: FaultInjector | None = None,
        readahead_pages: int = DEFAULT_READAHEAD_PAGES,
        codec: str = DEFAULT_CODEC,
    ) -> None:
        """``checkpoint_every``: persist metadata every N commits
        (0 = only on close/explicit checkpoint).  Data pages are always
        flushed at commit; the metadata checkpoint bounds how much a
        crash (close() never called) can lose — see ``recover_info``.

        ``fault_injector``: a ``repro.storage.faultinject.FaultInjector``
        that makes the disk layer crash deterministically mid-workload
        (crash-consistency testing).

        ``readahead_pages``: window for segment-aware read-ahead, and
        the single switch for batched I/O overall — 0 turns off both
        the prefetcher and vectored commit writes (every transfer is
        then one page, the pre-batching behaviour).  Batching changes
        how pages travel, never which bytes land where: database files
        are bit-identical either way.

        ``codec``: record wire format, ``"labf"`` (schema-aware fast
        paths, the default) or ``"pickle"`` (the legacy raw pickle).
        Reads dispatch on the record's own tag byte, so either setting
        opens databases written under the other.
        """
        if readahead_pages < 0:
            raise ValueError("readahead_pages must be >= 0")
        self.stats = StorageStats()
        # The codec is created before the metadata is restored: it
        # carries the attribute-name intern table the codec needs to
        # decode fast-path records.
        self._codec = RecordCodec(codec, self.stats)
        self.checkpoint_every = checkpoint_every
        self._commits_since_checkpoint = 0
        self._charge = charge_policy
        self._chunk_payload_bytes = self._compute_chunk_payload(charge_policy)
        self._readahead_pages = readahead_pages
        self._pages_flushed_since_checkpoint = False
        # What the next checkpoint has to say.  Directory oids written,
        # relocated or deleted since the last one are collected where
        # they happen (_journal_dir); the small state is diffed by value
        # against _checkpoint_marks, its copy as of the last checkpoint.
        self._dirty_oids: set[int] = set()
        self._checkpoint_marks: dict = {}
        # State was rewound or repaired (abort, recover, vacuum): the
        # next checkpoint rewrites the base instead of appending.
        self._compact_next = False
        # The manager *owns* its page file: this is the single place
        # the storage stack opens one, so every write point flows
        # through the injectable disk layer below.
        if fault_injector is None:
            self._disk = PageFile(path)
        else:
            from repro.storage.faultinject import FaultyPageFile

            self._disk = FaultyPageFile(path, fault_injector)
        batched = readahead_pages > 0
        self._pool = BufferPool(
            capacity_pages=buffer_pages,
            load_page=self._load_page,
            flush_page=self._flush_page,
            stats=self.stats,
            fault_hook=self._on_fault,
            read_pages=self._disk.read_pages if batched else None,
            flush_pages=self._flush_pages if batched else None,
            readahead_pages=readahead_pages,
            prefetch_run=self._prefetch_run if batched else None,
        )
        self._closed = False
        self._in_txn = False
        # Undo journal for abort: old directory entries (or _ABSENT for
        # oids created in the txn) plus small-state copies — per segment
        # its marks (:meth:`_segment_marks`), never its page list.  A
        # journal instead of a full metadata snapshot keeps begin()
        # O(changes), not O(database) — essential for the
        # per-transaction stream.
        self._undo_dir: dict[int, object] | None = None
        self._undo_small: dict | None = None

        self._oid_alloc = OidAllocator(start=1)
        self._page_alloc = OidAllocator(start=0)
        # directory: oid -> (page_id, slot) for small records,
        #            ("L", [(page_id, slot), ...]) for chunked ones.
        self._directory: dict[int, object] = {}
        self._roots: dict[str, int] = {}
        self._segments: dict[str, Segment] = {}
        self._segment_by_id: dict[int, Segment] = {}
        self._meta_epoch = 0
        meta = self._disk.read_meta()
        if meta is None:
            self._make_segment(DEFAULT_SEGMENT, "default placement")
            self._disk.epoch = 1
            if self._disk.page_count:
                # Pages exist but no checkpoint ever landed: the store
                # died before its first metadata write.
                self._open_problems = [
                    f"page file holds {self._disk.page_count} pages but no "
                    "metadata checkpoint exists"
                ]
            else:
                self._open_problems: list[str] = []
        else:
            # The file is ``base ‖ frame*``: the base is the whole state
            # as of some checkpoint, each frame what the next one moved.
            self._apply_meta(meta)
            for frame in self._disk.read_meta_frames():
                self._apply_meta(frame)
            # Resume stamping in the epoch after the checkpointed one,
            # and record anything on disk that contradicts the
            # checkpoint: torn pages, or pages flushed by commits the
            # checkpoint never heard of (epoch beyond the last frame's).
            self._disk.epoch = self._meta_epoch + 1
            self._open_problems = self._disk.epoch_issues(self._meta_epoch)
            # The restored state *is* the checkpointed state: a close with
            # no intervening writes has nothing to persist.
            self._checkpoint_marks = self._marks()
        self._index_pages()

    # -- metadata persistence ---------------------------------------------------

    def _meta(self, epoch: int | None = None) -> dict:
        """The whole state as a metadata base, stamped with the epoch
        of the checkpoint it is (default: the one being written)."""
        return {
            "manager": self.name,
            "epoch": self._disk.epoch if epoch is None else epoch,
            "oid_high": self._oid_alloc.high_water,
            "page_high": self._page_alloc.high_water,
            "directory": dict(self._directory),
            "roots": dict(self._roots),
            "segments": [seg.to_meta() for seg in self._segments.values()],
            "intern": self._codec.intern_names(),
        }

    def _apply_meta(self, meta: dict) -> None:
        """Replay a metadata base or delta frame onto the current state.

        A base (:meth:`_meta`) applied to the empty state restores it
        whole; a frame (:meth:`_meta_delta`) carries only the keys that
        moved, directory entries as upserts plus a ``deleted`` list, and
        per segment the page ids *appended* since the previous checkpoint.
        """
        self._meta_epoch = meta.get("epoch", 0)
        self._directory.update(meta.get("directory", ()))
        for oid in meta.get("deleted", ()):
            # May never have reached a checkpoint (born and deleted
            # between two of them).
            self._directory.pop(oid, None)
        if "roots" in meta:
            self._roots = dict(meta["roots"])
        # Pre-codec bases carry no intern table; the fresh codec's empty
        # one is right for them (their records are all raw pickles).
        if "intern" in meta:
            self._codec.restore_intern(meta["intern"])
        if "oid_high" in meta:
            self._oid_alloc = OidAllocator(start=meta["oid_high"])
        if "page_high" in meta:
            self._page_alloc = OidAllocator(start=meta["page_high"])
        for seg_meta in meta.get("segments", ()):
            segment = self._segment_by_id.get(seg_meta["segment_id"])
            if segment is None:
                segment = Segment.from_meta(seg_meta)
                self._segments[segment.name] = segment
                self._segment_by_id[segment.segment_id] = segment
            else:
                segment.page_ids.extend(seg_meta["page_ids"])
                segment.free_candidates = set(seg_meta["free_candidates"])

    def _marks(self) -> dict:
        """The small state by value, plus how far each segment has got:
        what :meth:`_meta_delta` diffs against the last checkpoint's."""
        return {
            "oid_high": self._oid_alloc.high_water,
            "page_high": self._page_alloc.high_water,
            "roots": dict(self._roots),
            "intern": self._codec.intern_names(),
            "segments": self._segment_marks(),
        }

    def _segment_marks(self) -> dict[int, tuple[int, list[int]]]:
        """Per segment id, how many pages it has and its free candidates:
        all of a segment that can change between two checkpoints or
        inside a transaction, where a page list only ever grows."""
        return {
            seg.segment_id: (len(seg.page_ids), sorted(seg.free_candidates))
            for seg in self._segments.values()
        }

    def _meta_delta(self, marks: dict) -> dict:
        """What moved since the last checkpoint; empty if nothing did.

        Costs what changed plus the small state, never the directory:
        this is what lets a store that only grows checkpoint every
        commit.  Valid only while the directory changed through
        :meth:`_journal_dir` and page lists only grew — anything else
        sets ``_compact_next``.
        """
        delta: dict = {}
        if self._dirty_oids:
            directory = self._directory
            dirty = sorted(self._dirty_oids)
            delta["directory"] = {
                oid: directory[oid] for oid in dirty if oid in directory
            }
            delta["deleted"] = [oid for oid in dirty if oid not in directory]
        last = self._checkpoint_marks
        for key in ("oid_high", "page_high", "roots", "intern"):
            if marks[key] != last.get(key):
                delta[key] = marks[key]
        last_segments = last.get("segments", {})
        segments = []
        for seg in self._segments.values():
            mark = marks["segments"][seg.segment_id]
            last_mark = last_segments.get(seg.segment_id, (0, None))
            if mark != last_mark:
                segments.append({
                    "segment_id": seg.segment_id,
                    "name": seg.name,
                    "description": seg.description,
                    "page_ids": seg.page_ids[last_mark[0]:],
                    "free_candidates": mark[1],
                })
        if segments:
            delta["segments"] = segments
        return delta

    # -- page plumbing -----------------------------------------------------------

    def _load_page(self, page_id: int) -> Page:
        image = self._disk.read_page(page_id)
        return Page.from_bytes(page_id, image)

    def _flush_page(self, page: Page) -> None:
        self._disk.write_page(page.page_id, page.to_bytes())
        self._pages_flushed_since_checkpoint = True

    def _flush_pages(self, start_page_id: int, pages: list[Page]) -> None:
        """Vectored write-back for a contiguous ascending page run."""
        self._disk.write_pages(
            start_page_id, [page.to_bytes() for page in pages]
        )
        self._pages_flushed_since_checkpoint = True

    def _on_fault(self, page: Page) -> None:
        """Policy hook: called once per buffer-pool miss."""

    def _prefetch_run(self, page_id: int) -> tuple[int, int]:
        """Segment-aware read-ahead policy: what follows a faulting page.

        The run is the faulting page's *own segment's* contiguous pages —
        read-ahead never crosses into a neighbouring segment, because a
        sequential scan of clustered data stays inside its segment and
        pages beyond the boundary belong to someone else's working set.
        For managers that ignore placement (Texas) everything lives in
        the single default segment, so the policy degrades naturally to
        flat-heap read-ahead over allocation order.
        """
        segment = self._page_segments.get(page_id)
        if segment is None:
            return page_id + 1, 0
        run = segment.contiguous_run_after(page_id, self._readahead_pages)
        # Never speculate past the end of the file: trailing pages of the
        # run may be allocated but not yet flushed (resident-only).
        run = min(run, max(0, self._disk.page_count - (page_id + 1)))
        return page_id + 1, run

    def _index_pages(self) -> None:
        """(Re)build the page -> segment map the prefetcher consults."""
        self._page_segments = {
            page_id: segment
            for segment in self._segments.values()
            for page_id in segment.page_ids
        }

    def _new_page(self, segment: Segment) -> Page:
        page = Page(self._page_alloc.allocate(), segment.segment_id)
        segment.add_page(page.page_id)
        self._page_segments[page.page_id] = segment
        self._pool.admit_new(page)
        return page

    def _make_segment(self, name: str, description: str) -> Segment:
        segment = Segment(
            segment_id=len(self._segment_by_id), name=name, description=description
        )
        self._segments[name] = segment
        self._segment_by_id[segment.segment_id] = segment
        return segment

    def _check_open(self) -> None:
        if self._closed:
            raise StorageClosedError(f"{self.name} store is closed")

    # -- segments ----------------------------------------------------------------

    def create_segment(self, name: str, description: str = "") -> str:
        self._check_open()
        if not self.supports_segments:
            # Accept and ignore: callers written for ObjectStore run
            # unchanged, they just lose clustering control.
            return DEFAULT_SEGMENT
        if name not in self._segments:
            self._make_segment(name, description)
        return name

    def segment_names(self) -> list[str]:
        return list(self._segments)

    def _resolve_segment(self, segment: str | None) -> Segment:
        if not self.supports_segments or segment is None:
            return self._segments[DEFAULT_SEGMENT]
        try:
            return self._segments[segment]
        except KeyError:
            raise UnknownSegmentError(f"unknown segment {segment!r}") from None

    # -- record placement ---------------------------------------------------------

    def _place_record(self, payload: bytes, segment: Segment) -> tuple[int, int]:
        """Find or open a page for a record; returns (page_id, slot)."""
        charged = self._charge(len(payload))
        for page_id in segment.candidate_pages():
            page = self._pool.fetch(page_id)
            if page.fits(charged):
                slot = page.insert(payload, charged)
                return page_id, slot
            segment.drop_candidate(page_id)
        page = self._new_page(segment)
        slot = page.insert(payload, charged)
        return page.page_id, slot

    @staticmethod
    def _compute_chunk_payload(charge_policy: ChargePolicy) -> int:
        """Largest chunk size whose *charged* size still fits a page.

        Texas's power-of-two cells charge a 3 KB chunk a full 4 KB, so
        the safe chunk size depends on the charge policy, not just on
        CHUNK_PAYLOAD_BYTES.
        """
        size = CHUNK_PAYLOAD_BYTES
        while size > 1 and charge_policy(size) > MAX_RECORD_BYTES:
            size -= 1
        return size

    def _store_payload(self, payload: bytes, segment: Segment) -> object:
        """Store a serialized record, chunking if oversized.

        Returns a directory entry: (page_id, slot) or ("L", [locations]).
        """
        charged = self._charge(len(payload))
        if charged <= MAX_RECORD_BYTES:
            return self._place_record(payload, segment)
        step = self._chunk_payload_bytes
        locations = []
        for start in range(0, len(payload), step):
            chunk = payload[start:start + step]
            locations.append(self._place_record(chunk, segment))
        return ("L", locations)

    def _free_entry(self, entry: object) -> None:
        locations = entry[1] if entry[0] == "L" else [entry]
        for page_id, slot in locations:
            page = self._pool.fetch(page_id)
            page.delete(slot)
            segment = self._segment_by_id[page.segment_id]
            segment.note_free_space(page_id, page.free_bytes)

    def _entry(self, oid: int) -> object:
        try:
            return self._directory[oid]
        except KeyError:
            raise UnknownOidError(oid) from None

    # -- object API ------------------------------------------------------------------

    def allocate_write(self, obj: object, segment: str | None = None) -> int:
        self._check_open()
        seg = self._resolve_segment(segment)
        payload = self._codec.encode(obj)
        oid = self._oid_alloc.allocate()
        self._journal_dir(oid)
        self._directory[oid] = self._store_payload(payload, seg)
        self.stats.objects_written += 1
        self.stats.bytes_written += len(payload)
        return oid

    def write(self, oid: int, obj: object) -> None:
        self._check_open()
        entry = self._entry(oid)
        payload = self._codec.encode(obj)
        charged = self._charge(len(payload))
        # Fast path: small record replaced in place on its current page.
        if entry[0] != "L" and charged <= MAX_RECORD_BYTES:
            page_id, slot = entry
            page = self._pool.fetch(page_id)
            if page.can_replace(slot, charged):
                page.replace(slot, payload, charged)
                self.stats.objects_written += 1
                self.stats.bytes_written += len(payload)
                return
        # Slow path: free old space, restore placement in the same segment.
        first_page_id = entry[1][0][0] if entry[0] == "L" else entry[0]
        segment = self._segment_by_id[self._pool.fetch(first_page_id).segment_id]
        self._journal_dir(oid)
        self._free_entry(entry)
        self._directory[oid] = self._store_payload(payload, segment)
        self.stats.objects_written += 1
        self.stats.bytes_written += len(payload)

    def read(self, oid: int) -> object:
        self._check_open()
        entry = self._entry(oid)
        if entry[0] == "L":
            payload = b"".join(
                self._pool.fetch(page_id).read(slot) for page_id, slot in entry[1]
            )
        else:
            page_id, slot = entry
            payload = self._pool.fetch(page_id).read(slot)
        self.stats.objects_read += 1
        self.stats.bytes_read += len(payload)
        return self._codec.decode(payload)

    def exists(self, oid: int) -> bool:
        self._check_open()
        return oid in self._directory

    def delete(self, oid: int) -> None:
        self._check_open()
        entry = self._entry(oid)
        self._journal_dir(oid)
        self._free_entry(entry)
        del self._directory[oid]
        self._evict_caches(oid)
        self.stats.objects_deleted += 1

    def oids(self) -> Iterator[int]:
        self._check_open()
        return iter(list(self._directory))

    def pages_of(self, oid: int) -> list[int]:
        """Page ids holding the object's record, chunk order for large ones."""
        self._check_open()
        entry = self._entry(oid)
        locations = entry[1] if entry[0] == "L" else [entry]
        return [page_id for page_id, _slot in locations]

    # -- roots ----------------------------------------------------------------------

    def set_root(self, name: str, oid: int) -> None:
        self._check_open()
        if oid not in self._directory:
            raise UnknownOidError(oid)
        self._roots[name] = oid

    def get_root(self, name: str) -> int | None:
        self._check_open()
        return self._roots.get(name)

    # -- transactions --------------------------------------------------------------------

    def begin(self) -> None:
        self._check_open()
        if self._in_txn:
            raise TransactionError("transaction already in progress")
        # Writes before begin() must be on disk before the transaction
        # starts, otherwise abort's drop_dirty would lose them — and any
        # attached object cache must drain its buffered writes first for
        # the same reason.
        self._drain_caches()
        self._pool.flush_dirty()
        self._undo_dir = {}
        self._undo_small = {
            "roots": dict(self._roots),
            "oid_high": self._oid_alloc.high_water,
            "page_high": self._page_alloc.high_water,
            "segments": self._segment_marks(),
        }
        self._in_txn = True
        self._begin_caches()

    def _journal_dir(self, oid: int) -> None:
        """Called before an oid's directory entry changes: note the oid
        for the next checkpoint's delta and, once per transaction, its
        old entry for abort."""
        self._dirty_oids.add(oid)
        if self._in_txn and oid not in self._undo_dir:  # type: ignore[operator]
            self._undo_dir[oid] = self._directory.get(oid, _ABSENT)  # type: ignore[index]

    def commit(self) -> None:
        """Flush dirty pages (durability of data pages).

        Metadata is persisted by :meth:`checkpoint` and :meth:`close`,
        not per commit — matching how the 1996 stores wrote data pages
        eagerly but maintained their maps in virtual memory.  A commit
        that checkpoints (``checkpoint_every``) tells the attached
        caches so before its drain, as those two do.
        """
        self._check_open()
        checkpointing = (
            self.checkpoint_every != 0
            and self._commits_since_checkpoint + 1 >= self.checkpoint_every
        )
        if checkpointing:
            self._checkpoint_caches()
        # Coalesced object-cache writes land first (oid order), so the
        # page flush below carries them out in this same commit.
        self._drain_caches()
        self._end_txn_caches()
        self._pool.flush_dirty()
        self._disk.sync()
        self._in_txn = False
        self._undo_dir = None
        self._undo_small = None
        self.stats.commits += 1
        if checkpointing:
            self._write_checkpoint()
            self._commits_since_checkpoint = 0
        elif self.checkpoint_every:
            self._commits_since_checkpoint += 1

    def abort(self) -> None:
        self._check_open()
        if not self._in_txn:
            raise TransactionError("abort without a transaction")
        # Cached objects may carry in-memory mutations from the aborted
        # transaction (buffered writes, or records mutated in place
        # before a write that never came) — drop them all.
        self._invalidate_caches()
        self._end_txn_caches()
        self._pool.drop_dirty()
        assert self._undo_dir is not None and self._undo_small is not None
        for oid, old_entry in self._undo_dir.items():
            if old_entry is _ABSENT:
                self._directory.pop(oid, None)
            else:
                self._directory[oid] = old_entry
        self._roots = self._undo_small["roots"]
        self._oid_alloc = OidAllocator(start=self._undo_small["oid_high"])
        self._page_alloc = OidAllocator(start=self._undo_small["page_high"])
        marks = self._undo_small["segments"]
        for segment in list(self._segments.values()):
            if segment.segment_id not in marks:  # created in the transaction
                del self._segments[segment.name]
                del self._segment_by_id[segment.segment_id]
                continue
            page_count, free_candidates = marks[segment.segment_id]
            del segment.page_ids[page_count:]
            segment.free_candidates = set(free_candidates)
        self._index_pages()
        self._undo_dir = None
        self._undo_small = None
        self._in_txn = False
        self._compact_next = True
        self.stats.aborts += 1

    def checkpoint(self) -> None:
        """Flush pages *and* persist metadata (directory, roots, segments)."""
        self._check_open()
        if self._in_txn:
            raise TransactionError("checkpoint inside an open transaction")
        self._checkpoint_caches()
        self._flush_all()

    def _flush_all(self, compact: bool = False) -> None:
        self._pool.flush_dirty()
        self._write_checkpoint(compact)

    def _write_checkpoint(self, compact: bool = False) -> None:
        """Persist metadata and advance the commit epoch.

        The checkpoint records the epoch its page images were stamped
        with; subsequent page writes get the next epoch, so a later
        crash leaves those pages detectably "from the future" relative
        to this checkpoint.

        Normally this appends one delta frame — what the commit changed,
        not the directory, roots and segment maps over again.  The base
        is rewritten instead (``compact``) at close, after an abort,
        recover or vacuum, and whenever the frames on disk have outgrown
        their share of it.  Either way it is one metadata write point
        and one epoch.

        Redundant checkpoints are skipped: nothing moved, and no page
        was flushed since the last checkpoint either.  Flushed pages
        carry the *current* epoch, and a checkpoint must land to ratify
        it, otherwise a reopen would flag them as from-the-future
        orphans of a checkpoint that never happened.

        A close that finds nothing to checkpoint but frames on disk
        folds them into a base *at the epoch they already describe* —
        the same checkpoint in one piece, so a cleanly closed file is
        the bare pickle whether or not the last commit checkpointed.
        A store still carrying unrecovered crash evidence is left
        exactly as the crash left it.
        """
        marks = self._marks()
        delta = self._meta_delta(marks)
        if not delta and not self._pages_flushed_since_checkpoint:
            if compact and self._disk.meta_frame_bytes and not self._open_problems:
                self.stats.meta_bytes_written += self._disk.write_meta(
                    self._meta(self._meta_epoch)
                )
            return
        if compact or self._compact_next or self._disk.meta_wants_base:
            written = self._disk.write_meta(self._meta())
        else:
            delta["epoch"] = self._disk.epoch
            written = self._disk.write_meta(delta, append=True)
        self.stats.meta_bytes_written += written
        self._disk.sync()
        self._meta_epoch = self._disk.epoch
        self._disk.epoch += 1
        self._dirty_oids.clear()
        self._checkpoint_marks = marks
        self._compact_next = False
        self._pages_flushed_since_checkpoint = False

    @property
    def commit_epoch(self) -> int:
        """Epoch of the last durable metadata checkpoint (0 = none)."""
        return self._meta_epoch

    @property
    def codec_name(self) -> str:
        """The record codec new writes use (``"labf"`` or ``"pickle"``)."""
        return self._codec.mode

    # -- accounting ------------------------------------------------------------------

    def size_bytes(self) -> int:
        self._check_open()
        # Allocated pages + the metadata compacted to one base, matching
        # what the 1996 size column measured: the database file(s) on disk.
        return self._disk.size_bytes + len_meta(self)

    # -- introspection accessors -------------------------------------------------
    #
    # The read-only view the integrity checker and the segment reports
    # need.  Public so those modules (and future tools) never reach into
    # ``_directory`` / ``_segments`` / ``_pool``; review holds them to
    # that.

    def segments(self) -> list[Segment]:
        """Every segment, in segment-id order."""
        return sorted(self._segments.values(), key=lambda seg: seg.segment_id)

    def directory_items(self) -> list[tuple[int, object]]:
        """(oid, directory entry) pairs, oid order; entries are
        ``(page_id, slot)`` or ``("L", [locations])`` for chunked records."""
        return sorted(self._directory.items())

    def root_items(self) -> list[tuple[str, int]]:
        """(root name, oid) bindings, name order."""
        return sorted(self._roots.items())

    def fetch_page(self, page_id: int) -> Page:
        """The live page object, through the buffer pool (counts faults)."""
        return self._pool.fetch(page_id)

    def pool_stats(self) -> dict[str, int]:
        """Buffer-pool occupancy snapshot."""
        return {
            "capacity_pages": self._pool.capacity_pages,
            "resident_pages": self._pool.resident_pages,
            "staged_pages": self._pool.staged_pages,
            "overflow_high_water": self._pool.overflow_high_water,
        }

    def open_problems(self) -> list[str]:
        """Crash evidence recorded at open; cleared only by recover()."""
        return list(self._open_problems)

    def disk_issues(self, max_epoch: int | None = None) -> list[str]:
        """Disk-level problems: torn pages, epochs beyond ``max_epoch``
        (default: the store's current stamping epoch)."""
        if max_epoch is None:
            max_epoch = self._disk.epoch
        return self._disk.epoch_issues(max_epoch)

    def verify(self) -> IntegrityReport:
        """Full integrity check; see ``repro.storage.integrity.verify``."""
        from repro.storage import integrity

        return integrity.verify(self)

    def recover(self) -> dict[str, int]:
        """Reconcile state after a crash-reopen from a rolling checkpoint.

        Data pages are flushed at every commit but metadata only at
        checkpoints, so a crash leaves the reopened directory *older*
        than the pages: entries may reference slots that later commits
        deleted or moved (dangling), and pages may hold records the old
        directory never heard of (orphans).  There is no write-ahead
        log to redo from — the 1996 stores offered none either — so
        recovery reconciles to the checkpoint state: torn pages are
        discarded, dangling entries and their roots are dropped, orphan
        slots are vacuumed, and a fresh checkpoint makes the repaired
        state durable.

        Returns ``{"dropped_objects": ..., "dropped_roots": ...,
        "vacuumed_slots": ...}``.  After recover(), ``verify`` passes.
        """
        self._check_open()
        # Torn pages first: an interrupted write left garbage that every
        # later phase (directory probing, vacuum) would trip over.  The
        # page's contents are unrecoverable — discard it back to a hole
        # and let the directory reconciliation below drop whatever
        # referenced it.
        for page_id in range(self._disk.page_count):
            try:
                self._disk.read_page_epoch(page_id)
            except StorageError:
                self._pool.drop(page_id)
                self._disk.clear_page(page_id)
                for segment in self._segments.values():
                    segment.remove_page(page_id)
                self._page_segments.pop(page_id, None)
                # The zero-fill changed disk bytes relative to the last
                # checkpoint; the closing checkpoint must not be skipped.
                self._pages_flushed_since_checkpoint = True
        dropped = 0
        for oid in list(self._directory):
            entry = self._directory[oid]
            locations = entry[1] if entry[0] == "L" else [entry]
            intact = True
            chunks = []
            for page_id, slot in locations:
                try:
                    chunks.append(self._pool.fetch(page_id).read(slot))
                except StorageError:
                    # Unreadable means dangling: the slot was moved or
                    # deleted by a post-checkpoint commit the crash ate.
                    intact = False
                    break
            if intact:
                # The slots are readable, but the payload must also
                # *decode* under the checkpointed intern table: a record
                # flushed after the checkpoint may reference intern ids
                # (or pickle shapes) the crash never made durable.
                try:
                    self._codec.decode(
                        chunks[0] if len(chunks) == 1 else b"".join(chunks)
                    )
                except StorageError:
                    intact = False
            if not intact:
                del self._directory[oid]
                dropped += 1
        dropped_roots = 0
        for name in list(self._roots):
            if self._roots[name] not in self._directory:
                del self._roots[name]
                dropped_roots += 1
        vacuumed = self.vacuum_orphans()
        # The repaired state supersedes whatever the crash left behind:
        # checkpoint it so the epoch bookkeeping matches the disk again,
        # and clear the problems recorded at open.  Cached objects may
        # reference dropped state — surviving values re-read lazily.
        self._invalidate_caches()
        # Force the checkpoint even if the metadata is unchanged: pages
        # flushed by post-checkpoint commits the crash orphaned carry a
        # newer epoch, and only a fresh checkpoint ratifies them (an
        # in-place overwrite leaves the directory identical, so the
        # redundancy check alone would skip it and the pages would be
        # flagged "from the future" again at the next reopen).  A new
        # base, not a frame: entries were dropped and pages removed
        # behind the delta bookkeeping's back.
        self._pages_flushed_since_checkpoint = True
        self._flush_all(compact=True)
        self._open_problems = []
        return {
            "dropped_objects": dropped,
            "dropped_roots": dropped_roots,
            "vacuumed_slots": vacuumed,
        }

    def vacuum_orphans(self) -> int:
        """Delete occupied slots no directory entry references.

        After crash recovery (a reopen from a metadata checkpoint older
        than the last flushed pages), pages may hold records whose
        directory entries were lost.  Vacuuming reclaims them; returns
        the number of slots freed.
        """
        self._check_open()
        referenced: set[tuple[int, int]] = set()
        for entry in self._directory.values():
            locations = entry[1] if entry[0] == "L" else [entry]
            for location in locations:
                referenced.add(tuple(location))
        freed = 0
        for segment in self._segments.values():
            for page_id in list(segment.page_ids):
                page = self._pool.fetch(page_id)
                for slot in list(page.slots()):
                    if (page_id, slot) not in referenced:
                        page.delete(slot)
                        segment.note_free_space(page_id, page.free_bytes)
                        freed += 1
        if freed:
            self._compact_next = True
        return freed

    def drop_buffer(self) -> None:
        """Flush dirty pages, then empty the buffer pool.

        Used by the locality experiments (E5, A2) to measure queries
        against a cold cache, where every page touched is a fault.  Any
        attached object cache goes cold too — otherwise "cold" queries
        would be served from deserialized objects without touching a
        single page.
        """
        self._check_open()
        self._drain_caches()
        self._invalidate_caches()
        self._pool.flush_dirty()
        self._pool.clear()

    def close(self) -> None:
        if self._closed:
            return
        if self._in_txn:
            raise TransactionError("close() inside an open transaction")
        self._checkpoint_caches()
        self._drain_caches()
        self._flush_all(compact=True)
        # Release pool pages (and any staged read images that may view
        # the disk layer's buffers) before the disk unmaps/closes.
        self._pool.clear()
        self._disk.close()
        self._closed = True


def len_meta(manager: PagedStorageManager) -> int:
    """Size of the metadata as one compacted base, without persisting it."""
    return len(pickle.dumps(manager._meta(), protocol=4))

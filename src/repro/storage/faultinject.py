"""Deterministic fault injection for crash-consistency testing.

A :class:`FaultInjector` counts the disk layer's *write points* — every
page write and every metadata write — and kills the store at a chosen
one, optionally leaving a half-written ("torn") image behind, the way a
real power cut tears a sector-aligned write in two.  Because
``BufferPool.flush_dirty`` writes in page-id order, the same workload
always produces the same write sequence, so ``crash_after_writes=N``
reproduces the exact same crash every run.

Usage::

    injector = FaultInjector(crash_after_writes=17, torn_write=True)
    sm = ObjectStoreSM(path, checkpoint_every=1, fault_injector=injector)
    with pytest.raises(InjectedCrashError):
        run_workload(sm)
    # reopen plain and check: last checkpoint state, or loud failure
    reopened = ObjectStoreSM(path)

Counting with ``crash_after_writes=None`` never crashes — run the
workload once that way to learn how many write points it has, then sweep
``range(total)`` for the crash matrix (see tests/test_storage_crashmatrix.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InjectedCrashError, StorageError
from repro.storage.disk import PAGE_SIZE, PageFile

#: A torn page write keeps this many bytes of the new image; the rest is
#: whatever was there before (or zeroes, for a fresh page).
TORN_WRITE_BYTES = PAGE_SIZE // 2


@dataclass
class FaultInjector:
    """Shared crash schedule for one :class:`FaultyPageFile`.

    ``crash_after_writes=N`` kills the store at write point N (0-based:
    N=0 dies before any write lands).  ``torn_write`` makes the fatal
    page write leave a half-new half-old image instead of nothing.
    ``None`` never crashes; ``writes_seen`` then reports the workload's
    total write points.
    """

    crash_after_writes: int | None = None
    torn_write: bool = False
    writes_seen: int = 0
    dead: bool = False

    def on_write(self) -> bool:
        """Count a write point; True when this one is the fatal one."""
        self.check_alive()
        if (
            self.crash_after_writes is not None
            and self.writes_seen >= self.crash_after_writes
        ):
            self.dead = True
            return True
        self.writes_seen += 1
        return False

    def check_alive(self) -> None:
        if self.dead:
            raise InjectedCrashError(
                f"store crashed at write point {self.writes_seen}"
            )


class FaultyPageFile(PageFile):
    """A :class:`PageFile` that dies on schedule.

    Page writes and metadata writes are both write points.  A fatal
    *page* write either loses the image entirely or — in torn mode —
    lands the first :data:`TORN_WRITE_BYTES` of the newly stamped image
    over the old page, producing a checksum mismatch the integrity
    layer must detect.  A fatal *metadata* write is lost entirely or —
    in torn mode — lands the first half of its bytes: half a delta frame
    after the last valid one (reopen must stop at it), or half a base in
    the temp file the rename never publishes (the atomic-rename protocol
    keeps the old ``base ‖ frames`` intact).
    """

    def __init__(self, path: str | None, injector: FaultInjector) -> None:
        super().__init__(path)
        self.injector = injector

    def write_page(self, page_id: int, image: bytes) -> None:
        if self.injector.on_write():
            if self.injector.torn_write:
                self._tear_page(page_id, image)
            self.injector.check_alive()
        super().write_page(page_id, image)

    def write_pages(self, start_page_id: int, images: list[bytes]) -> None:
        """Decompose a vectored write into per-page write points.

        A real power cut can land between any two sector-aligned page
        writes of one batch, so the crash schedule must expose the same
        write points whether the commit path batches or not — that is
        what keeps ``crash_after_writes=N`` meaning the same crash with
        vectored commit I/O on or off.
        """
        for offset, image in enumerate(images):
            self.write_page(start_page_id + offset, image)

    def _tear_page(self, page_id: int, image: bytes) -> None:
        """Land the front half of the stamped image over the old page."""
        stamped = self._stamp(image)
        try:
            raw = self._raw_image(page_id)
        except StorageError:
            raw = None
        old_raw = b"\0" * PAGE_SIZE if raw is None else raw
        self._put_image(
            page_id, stamped[:TORN_WRITE_BYTES] + old_raw[TORN_WRITE_BYTES:]
        )

    def write_meta(self, meta: dict, append: bool = False) -> int:
        if self.injector.on_write():
            if self.injector.torn_write:
                self._tear_meta(meta, append)
            self.injector.check_alive()
        return super().write_meta(meta, append)

    def _tear_meta(self, meta: dict, append: bool) -> None:
        """Land the front half of a metadata write, the way a crash would."""
        data = self._meta_bytes(meta, append)
        half = data[: len(data) // 2]
        meta_path = self._meta_path()
        if append:
            self._append_meta(half)
        elif meta_path is not None:
            with open(meta_path + ".tmp", "wb") as handle:
                handle.write(half)

    def read_page(self, page_id: int) -> bytes:
        self.injector.check_alive()
        return super().read_page(page_id)

    def read_pages(self, start_page_id: int, count: int) -> list[bytes | None]:
        self.injector.check_alive()
        return super().read_pages(start_page_id, count)

    def read_meta(self) -> dict | None:
        self.injector.check_alive()
        return super().read_meta()

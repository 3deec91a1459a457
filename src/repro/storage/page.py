"""Slotted pages.

Both simulated storage managers store serialized records in fixed-size
slotted pages.  A page tracks its records by slot number and accounts for
space with a *charge policy* supplied by the storage manager: ObjectStore
charges a record its exact size plus slot overhead (dense packing), while
Texas rounds the size up to a power-of-two allocation cell — the detail
that makes the Texas database ~1.45x larger in the paper's size column.

Pages do not know about oids; the storage manager's object directory maps
oid -> (page_id, slot).
"""

from __future__ import annotations

import pickle
from typing import Callable, Iterator

from repro.errors import PageError, PageOverflowError

PAGE_SIZE = 4096
PAGE_HEADER_BYTES = 64
SLOT_OVERHEAD_BYTES = 16

#: Bytes at the end of every page image reserved for the disk layer's
#: commit-epoch trailer (magic + epoch + checksum; see repro.storage.disk).
#: Page serialization must leave them zero.
PAGE_TRAILER_BYTES = 16

#: Usable payload capacity of a page under exact charging.
PAGE_CAPACITY = PAGE_SIZE - PAGE_HEADER_BYTES

#: Records charged above this are chunked into large-object pieces.
MAX_RECORD_BYTES = PAGE_CAPACITY - SLOT_OVERHEAD_BYTES

ChargePolicy = Callable[[int], int]


def exact_charge(nbytes: int) -> int:
    """ObjectStore-style charging: record size plus slot overhead."""
    return nbytes + SLOT_OVERHEAD_BYTES


def power_of_two_charge(nbytes: int, minimum: int = 32) -> int:
    """Texas-style charging: power-of-two allocation cells.

    Texas v0.3 carved pages into power-of-two free-list cells; a 513-byte
    record occupied a 1024-byte cell.  The resulting internal
    fragmentation is what the paper's database-size comparison shows.
    """
    needed = nbytes + SLOT_OVERHEAD_BYTES
    cell = minimum
    while cell < needed:
        cell *= 2
    return cell


class Page:
    """A fixed-size slotted page holding serialized records.

    ``used_bytes`` is the sum of *charged* sizes plus the header, so the
    charge policy directly controls how many records fit per page.
    """

    __slots__ = ("page_id", "segment_id", "_records", "_charges",
                 "_next_slot", "used_bytes", "_dirty", "dirty_listener")

    def __init__(self, page_id: int, segment_id: int) -> None:
        self.page_id = page_id
        self.segment_id = segment_id
        self._records: dict[int, bytes] = {}
        self._charges: dict[int, int] = {}
        self._next_slot = 0
        self.used_bytes = PAGE_HEADER_BYTES
        self.dirty_listener: Callable[[int], None] | None = None
        self.dirty = True  # fresh pages must reach disk

    @property
    def dirty(self) -> bool:
        return self._dirty

    @dirty.setter
    def dirty(self, value: bool) -> None:
        # Mutators flip this flag outside the buffer pool's sight; the
        # listener (installed by the pool at admission) is what lets the
        # pool keep a dirty-page set so commits cost O(dirty pages)
        # instead of a sort of every resident page.
        self._dirty = value
        if value and self.dirty_listener is not None:
            self.dirty_listener(self.page_id)

    # -- space accounting ---------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return PAGE_SIZE - self.used_bytes

    def fits(self, charged: int) -> bool:
        return charged <= self.free_bytes

    @property
    def record_count(self) -> int:
        return len(self._records)

    @property
    def is_empty(self) -> bool:
        return not self._records

    @property
    def charge_bytes(self) -> int:
        """Sum of charged record sizes (excludes the page header)."""
        return sum(self._charges.values())

    # -- record operations --------------------------------------------------

    def insert(self, payload: bytes, charged: int) -> int:
        """Store a record, returning its slot number."""
        if charged > self.free_bytes:
            raise PageOverflowError(
                f"page {self.page_id}: record charged {charged} B exceeds "
                f"free space {self.free_bytes} B"
            )
        slot = self._next_slot
        self._next_slot += 1
        self._records[slot] = payload
        self._charges[slot] = charged
        self.used_bytes += charged
        self.dirty = True
        return slot

    def read(self, slot: int) -> bytes:
        try:
            return self._records[slot]
        except KeyError:
            raise PageError(f"page {self.page_id}: no record in slot {slot}") from None

    def replace(self, slot: int, payload: bytes, charged: int) -> None:
        """Overwrite a record in place.

        Callers must check :meth:`can_replace` first; replacement never
        moves the record to another page (that is the manager's job).
        """
        old_charge = self._charges.get(slot)
        if old_charge is None:
            raise PageError(f"page {self.page_id}: no record in slot {slot}")
        if self.used_bytes - old_charge + charged > PAGE_SIZE:
            raise PageOverflowError(
                f"page {self.page_id}: replacement does not fit in slot {slot}"
            )
        self._records[slot] = payload
        self.used_bytes += charged - old_charge
        self._charges[slot] = charged
        self.dirty = True

    def can_replace(self, slot: int, charged: int) -> bool:
        old_charge = self._charges.get(slot)
        if old_charge is None:
            return False
        return self.used_bytes - old_charge + charged <= PAGE_SIZE

    def delete(self, slot: int) -> None:
        charge = self._charges.pop(slot, None)
        if charge is None:
            raise PageError(f"page {self.page_id}: no record in slot {slot}")
        del self._records[slot]
        self.used_bytes -= charge
        self.dirty = True

    def slots(self) -> Iterator[int]:
        return iter(self._records)

    # -- disk image ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a fixed PAGE_SIZE byte string (zero padded)."""
        body = pickle.dumps(
            (self.segment_id, self._next_slot, self._records, self._charges),
            protocol=4,
        )
        if len(body) > PAGE_SIZE - PAGE_TRAILER_BYTES:
            raise PageError(
                f"page {self.page_id}: serialized image {len(body)} B exceeds "
                f"page size {PAGE_SIZE} B minus the {PAGE_TRAILER_BYTES} B "
                "trailer reserve (charge accounting bug)"
            )
        return body + b"\0" * (PAGE_SIZE - len(body))

    @classmethod
    def from_bytes(cls, page_id: int, image: bytes) -> "Page":
        """Rebuild a page from its disk image."""
        try:
            segment_id, next_slot, records, charges = pickle.loads(image)
        # A corrupt pickle stream raises whatever the truncated opcodes
        # happen to hit (UnpicklingError, EOFError, AttributeError, even
        # MemoryError on a mangled length) — breadth is the point here.
        except Exception as exc:
            raise PageError(f"page {page_id}: corrupt image: {exc}") from exc
        page = cls(page_id, segment_id)
        page._records = records
        page._charges = charges
        page._next_slot = next_slot
        page.used_bytes = PAGE_HEADER_BYTES + sum(charges.values())
        page.dirty = False
        return page

"""The "Texas" server version: a simulated Texas v0.3 persistent store.

What the paper attributes to Texas, and what this class models:

* **No clustering control.**  Texas exposes a single persistent heap;
  objects land in pages in allocation order.  ``create_segment`` is
  accepted but ignored, so LabBase's hot/cold placement hints have no
  effect — the source of the locality differences experiment E5 measures.
* **Power-of-two allocation cells.**  Texas carved pages into
  power-of-two free-list cells; the internal fragmentation makes the
  database file ~1.45x the ObjectStore size in the paper's table.
* **Pointer swizzling at page-fault time.**  On each fresh page fault
  Texas translated every persistent pointer on the page to a virtual
  address.  We charge that work per fault via the fault hook (one
  swizzle operation per resident record), which surfaces as user-CPU
  overhead proportional to fault count.
* **No concurrent access.**  Texas programs accessed the database file
  directly, with no page server; a second client is refused.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConcurrencyUnsupportedError
from repro.storage.base import PagedStorageManager

if TYPE_CHECKING:
    from repro.storage.faultinject import FaultInjector
from repro.storage.buffer import DEFAULT_POOL_PAGES, DEFAULT_READAHEAD_PAGES
from repro.storage.codec import DEFAULT_CODEC
from repro.storage.page import Page, power_of_two_charge


class TexasSM(PagedStorageManager):
    """Single-heap swizzling store (the paper's *Texas* version)."""

    name = "Texas"
    supports_segments = False
    supports_concurrency = False
    persistent = True

    #: Synthetic work units per record swizzled at fault time.  The loop
    #: is real (it burns CPU), so swizzling shows up in user-cpu the same
    #: way it did in 1996 — proportional to faults times page density.
    SWIZZLE_WORK = 20

    def __init__(
        self,
        path: str | None = None,
        buffer_pages: int = DEFAULT_POOL_PAGES,
        checkpoint_every: int = 0,
        fault_injector: FaultInjector | None = None,
        readahead_pages: int = DEFAULT_READAHEAD_PAGES,
        codec: str = DEFAULT_CODEC,
    ) -> None:
        super().__init__(
            path=path,
            buffer_pages=buffer_pages,
            charge_policy=power_of_two_charge,
            checkpoint_every=checkpoint_every,
            fault_injector=fault_injector,
            readahead_pages=readahead_pages,
            codec=codec,
        )
        self._client: str | None = None

    # -- swizzling ---------------------------------------------------------------

    def _on_fault(self, page: Page) -> None:
        """Swizzle every record on a freshly faulted page."""
        records = page.record_count
        self.stats.swizzle_operations += records
        # Burn a deterministic sliver of CPU per swizzled pointer so the
        # cost is visible to the resource meter, not just a counter.
        acc = 0
        for _ in range(records * self.SWIZZLE_WORK):
            acc += 1
        self._swizzle_sink = acc

    # -- single-client discipline ---------------------------------------------------

    def attach_client(self, client: str) -> None:
        """Attach the one allowed client; a second is refused."""
        self._check_open()
        if self._client is not None and self._client != client:
            raise ConcurrencyUnsupportedError(
                f"Texas store already attached by {self._client!r}; "
                "Texas does not support concurrent access"
            )
        self._client = client

    def detach_client(self, client: str) -> None:
        self._check_open()
        if self._client == client:
            self._client = None

"""Per-segment storage reports.

The paper's locality argument rests on LabBase's four-segment layout —
"three of which contain relatively small amounts of frequently accessed
data and one of which contains a relatively large amount of infrequently
accessed data".  :func:`segment_report` makes that layout visible for
any page store: pages, bytes, records and fill factor per segment, so
examples and the E5 artefact can *show* the hot/cold split instead of
asserting it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.base import PagedStorageManager
from repro.storage.page import PAGE_HEADER_BYTES, PAGE_SIZE
from repro.util.fmt import format_bytes, format_table


@dataclass(frozen=True)
class SegmentStats:
    """Aggregate statistics for one segment."""

    name: str
    pages: int
    records: int
    used_bytes: int

    @property
    def allocated_bytes(self) -> int:
        return self.pages * PAGE_SIZE

    @property
    def fill_factor(self) -> float:
        """Charged bytes over allocated bytes (excluding page headers)."""
        if self.pages == 0:
            return 0.0
        capacity = self.pages * (PAGE_SIZE - PAGE_HEADER_BYTES)
        payload = self.used_bytes - self.pages * PAGE_HEADER_BYTES
        return payload / capacity if capacity else 0.0


def segment_stats(sm: PagedStorageManager) -> list[SegmentStats]:
    """Per-segment aggregates, largest segment first."""
    stats = []
    for segment in sm.segments():
        pages = 0
        records = 0
        used = 0
        for page_id in segment.page_ids:
            page = sm.fetch_page(page_id)
            pages += 1
            records += page.record_count
            used += page.used_bytes
        stats.append(
            SegmentStats(
                name=segment.name, pages=pages, records=records, used_bytes=used
            )
        )
    stats.sort(key=lambda s: s.allocated_bytes, reverse=True)
    return stats


def segment_report(sm: PagedStorageManager, title: str | None = None) -> str:
    """A rendered table of the store's segment layout."""
    rows = []
    for stats in segment_stats(sm):
        rows.append([
            stats.name,
            stats.pages,
            stats.records,
            format_bytes(stats.allocated_bytes),
            f"{stats.fill_factor:.0%}",
        ])
    return format_table(
        ["segment", "pages", "records", "allocated", "fill"],
        rows,
        title=title or f"Segment layout of {sm.name}",
        align_right=(1, 2, 3, 4),
    )


def stats_report(
    counters: dict[str, int],
    gauges: dict[str, float],
    title: str | None = None,
) -> str:
    """Counters plus derived gauges, one compact table.

    Data-driven: the counter and gauge *names* come from the caller
    (a ``StorageStats`` snapshot and
    :func:`repro.obs.registry.gauges_from` over it), so this renderer
    names no counter and no registered metric.  Zero counters are
    elided; gauges always show.
    """
    rows: list[list[object]] = [
        [name, str(count)] for name, count in counters.items() if count
    ]
    rows.extend([name, f"{value:.3f}"] for name, value in gauges.items())
    return format_table(
        ["metric", "value"],
        rows,
        title=title or "storage counters",
        align_right=(1,),
    )

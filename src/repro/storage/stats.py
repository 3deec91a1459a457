"""Counters every storage manager maintains.

The benchmark harness reads these to fill the paper's resource table:
``major_faults`` stands in for the paper's ``majflt`` column (see
``repro.util.timing`` for why), and the remaining counters feed the
locality and ablation experiments (E5, A2).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StorageStats:
    """Mutable counter block attached to a storage manager."""

    page_reads: int = 0          # pages brought into the buffer pool from disk
    page_writes: int = 0         # pages written back to disk
    major_faults: int = 0        # buffer-pool misses (the simulated majflt)
    buffer_hits: int = 0         # buffer-pool hits
    objects_read: int = 0
    objects_written: int = 0
    objects_deleted: int = 0
    bytes_read: int = 0          # serialized record bytes deserialized
    bytes_written: int = 0       # serialized record bytes written
    swizzle_operations: int = 0  # Texas: pointer slots swizzled at fault time
    lock_acquisitions: int = 0   # ObjectStore: page-lock grants
    lock_waits: int = 0          # ObjectStore: lock conflicts observed
    commits: int = 0
    aborts: int = 0
    cache_hits: int = 0          # object-cache: reads served in memory
    cache_misses: int = 0        # object-cache: reads that hit the SM
    cache_coalesced: int = 0     # object-cache: writes absorbed pre-commit
    cache_evictions: int = 0     # object-cache: LRU evictions of clean objects
    pages_prefetched: int = 0    # read-ahead: pages staged by vectored reads
    prefetch_hits: int = 0       # read-ahead: faults absorbed by staged pages
    io_batches: int = 0          # vectored disk transfers (>= 2 pages each)
    records_fast_path: int = 0   # codec: records encoded via a fixed layout
    records_fallback: int = 0    # codec: records encoded via the pickle fallback
    intern_table_size: int = 0   # codec: attribute names in the intern table
    meta_bytes_written: int = 0  # checkpoint blob bytes physically written
    group_commits: int = 0       # server: storage commits closing a group
    sessions_per_group: int = 0  # server: session-units fused into those groups
    commit_stalls: int = 0       # server: groups forced closed by a lock conflict

    def reset(self) -> None:
        """Zero every counter (used between benchmark intervals)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """An immutable copy of the counters as a plain dict."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def delta(self, earlier: dict[str, int]) -> dict[str, int]:
        """Counter increments since an earlier :meth:`snapshot`."""
        return {
            name: getattr(self, name) - earlier.get(name, 0)
            for name in self.__dataclass_fields__
        }


# The one list of counters.  The aggregator above, ``render_stats`` and
# the metric registry's import-time validation all iterate it, so a new
# field is merged, rendered and available to gauges by being declared.
# Ratios over these counters are not defined here: see repro.obs.registry.
STAT_FIELDS: tuple[str, ...] = tuple(StorageStats.__dataclass_fields__)

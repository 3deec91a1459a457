"""The "Texas+TC" server version: Texas plus client-level clustering.

The paper describes this version as "almost identical to Texas, and using
the same storage manager, but with additional object clustering
implemented in client code".  We model it as the Texas store (same
power-of-two cells, same swizzle-at-fault cost, same single-client rule)
with the segment hints *honoured* — the clustering the client code
achieved by steering allocations — at the price of extra client CPU per
allocation, which is why Texas+TC shows the highest user-CPU column in
the paper's table.

Because the hints are honoured, the storage layer's segment-aware
read-ahead sees real clustering here: a cold scan of a Texas+TC segment
streams in long contiguous runs like OStore's, while plain Texas — same
storage manager, hints ignored — only gets runs as long as allocation
order happens to provide.
"""

from __future__ import annotations

from repro.storage.texas import TexasSM


class TexasTCSM(TexasSM):
    """Texas with client-code clustering (the paper's *Texas+TC*)."""

    name = "Texas+TC"
    supports_segments = True  # clustering reinstated, in "client code"

    #: Synthetic work units per allocation spent deciding placement —
    #: the client-code clustering overhead.
    CLUSTERING_WORK = 120

    def allocate_write(self, obj: object, segment: str | None = None) -> int:
        self._burn_clustering_cpu()
        return super().allocate_write(obj, segment=segment)

    def write(self, oid: int, obj: object) -> None:
        self._burn_clustering_cpu()
        super().write(oid, obj)

    def _burn_clustering_cpu(self) -> None:
        acc = 0
        for _ in range(self.CLUSTERING_WORK):
            acc += 1
        self._clustering_sink = acc

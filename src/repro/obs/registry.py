"""The metric registry: the one definition of every derived gauge.

A *gauge* is a ratio derived from :class:`~repro.storage.stats.StorageStats`
counters: numerator over the sum of one or more denominator counters,
with a declared default for the empty-denominator case.  A
:class:`MetricSpec` in :data:`DERIVED_METRICS` is everything there is to
say about a gauge — its formula — and everything else is derived from
the tuple: the gauge columns of
:func:`repro.obs.monitor.render_sample_table`, the gauge rows of
``render_stats`` and the served ``sample`` payload.  There is no second
list to keep in step, so a gauge cannot be unrendered; the one thing a
spec can still get wrong, a source counter ``StorageStats`` does not
declare, fails at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.storage.stats import STAT_FIELDS


@dataclass(frozen=True)
class MetricSpec:
    """One registered gauge: ``numerator / sum(denominator)``."""

    name: str
    description: str
    numerator: str       # a StorageStats counter
    denominator: tuple[str, ...]  # StorageStats counters, summed
    default: float = 0.0  # value when the denominator sums to zero

    def compute(self, counters: Mapping[str, int]) -> float:
        denom = sum(int(counters.get(name, 0)) for name in self.denominator)
        if denom == 0:
            return self.default
        return int(counters.get(self.numerator, 0)) / denom


#: Every derived gauge, in render order (the monitor's columns, left to
#: right).
DERIVED_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec(
        name="hit_ratio",
        description="buffer-pool hits over page accesses",
        numerator="buffer_hits",
        denominator=("buffer_hits", "major_faults"),
        default=1.0,
    ),
    MetricSpec(
        name="cache_hit_ratio",
        description="object-cache reads served in memory",
        numerator="cache_hits",
        denominator=("cache_hits", "cache_misses"),
        default=1.0,
    ),
    MetricSpec(
        name="prefetch_absorption",
        description="faults absorbed by read-ahead over all staged-or-missed",
        numerator="prefetch_hits",
        denominator=("prefetch_hits", "major_faults"),
        default=0.0,
    ),
    MetricSpec(
        name="coalesce_ratio",
        description="object writes absorbed pre-commit by the cache",
        numerator="cache_coalesced",
        denominator=("cache_coalesced", "objects_written"),
        default=0.0,
    ),
    MetricSpec(
        name="group_width",
        description="mean session-units fused per group commit",
        numerator="sessions_per_group",
        denominator=("group_commits",),
        default=0.0,
    ),
    MetricSpec(
        name="commit_stall_ratio",
        description="groups forced closed by lock conflicts, per group",
        numerator="commit_stalls",
        denominator=("group_commits",),
        default=0.0,
    ),
    MetricSpec(
        name="fast_path_ratio",
        description="records encoded via a fixed layout, over all encoded",
        numerator="records_fast_path",
        denominator=("records_fast_path", "records_fallback"),
        default=0.0,
    ),
)


def metric(name: str) -> MetricSpec:
    """Look up a registered gauge by name."""
    for spec in DERIVED_METRICS:
        if spec.name == name:
            return spec
    raise KeyError(f"no registered metric {name!r}")


def gauges_from(counters: Mapping[str, int]) -> dict[str, float]:
    """All registered gauges computed from one counter snapshot."""
    return {spec.name: spec.compute(counters) for spec in DERIVED_METRICS}


def _validate_registry() -> None:
    declared = set(STAT_FIELDS)
    seen: set[str] = set()
    for spec in DERIVED_METRICS:
        if spec.name in seen:
            raise ValueError(f"duplicate metric registration {spec.name!r}")
        seen.add(spec.name)
        for counter in (spec.numerator, *spec.denominator):
            if counter not in declared:
                raise ValueError(
                    f"metric {spec.name!r} reads undeclared counter "
                    f"{counter!r}"
                )


_validate_registry()

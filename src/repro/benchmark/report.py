"""Paper-style rendering of benchmark results.

:func:`render_comparison` prints the Section 10 table layout::

    Database Server Version
    Intvl  Resource      OStore  Texas+TC  Texas  OStore-mm  Texas-mm
    0.5X   elapsed sec    1.424     1.469  1.402      1.384     1.407
           user cpu sec     ...
           sys cpu sec      ...
           majflt           ...
           size (bytes)     ...   (persistent versions only; "-" for mm)
    1.0X   ...

plus helpers for the extended stats the ablation benches report.
"""

from __future__ import annotations

from repro.benchmark.harness import ComparisonResult, RunResult
from repro.util.fmt import format_table

_RESOURCES = ("elapsed sec", "user cpu sec", "sys cpu sec", "majflt", "size (bytes)")


def render_comparison(comparison: ComparisonResult, title: str | None = None) -> str:
    """The paper's per-interval resource table, all server versions."""
    headers = ["Intvl", "Resource"] + [run.server for run in comparison.runs]
    rows: list[list[str]] = []
    for label in comparison.interval_labels:
        for row_index, resource in enumerate(_RESOURCES):
            row = [label if row_index == 0 else "", resource]
            for run in comparison.runs:
                usage = run.usage_for(label)
                row.append(dict(usage.as_rows())[resource])
            rows.append(row)
        rows.append([])  # spacer between interval groups
    if rows and not rows[-1]:
        rows.pop()
    return format_table(
        headers,
        rows,
        title=title or "Database Server Version",
        align_right=tuple(range(2, 2 + len(comparison.runs))),
    )


def render_run(run: RunResult, title: str | None = None) -> str:
    """One server's per-interval table (resources as columns)."""
    headers = ["Intvl"] + list(_RESOURCES)
    rows = []
    for interval in run.intervals:
        values = dict(interval.usage.as_rows())
        rows.append([interval.label] + [values[resource] for resource in _RESOURCES])
    return format_table(
        headers,
        rows,
        title=title or f"Server version: {run.server}",
        align_right=tuple(range(1, len(headers))),
    )


def render_stats(
    comparison: ComparisonResult,
    counters: tuple[str, ...] = (
        "major_faults",
        "buffer_hits",
        "page_reads",
        "page_writes",
        "bytes_read",
        "bytes_written",
        "pages_prefetched",
        "prefetch_hits",
        "io_batches",
        "records_fast_path",
        "records_fallback",
        "intern_table_size",
        "meta_bytes_written",
        "swizzle_operations",
        "objects_read",
        "objects_written",
        "objects_deleted",
        "commits",
        "aborts",
        "lock_acquisitions",
        "lock_waits",
        "lock_upgrades",
        "group_commits",
        "sessions_per_group",
        "commit_stalls",
        "cache_hits",
        "cache_misses",
        "cache_coalesced",
        "cache_evictions",
    ),
    derived: tuple[str, ...] = ("hit_ratio", "cache_hit_ratio", "group_width"),
) -> str:
    """Storage-counter totals per server (the locality evidence).

    Raw counters first, then the ``derived`` ratios from the metric
    registry (:func:`repro.obs.registry.gauges_from`) — reports stop at
    raw numbers only when a ratio would mislead (per-interval tables),
    not here, where the whole-run ratios are the headline.
    """
    from repro.obs.registry import gauges_from

    headers = ["Counter"] + [run.server for run in comparison.runs]
    rows: list[list[str]] = []
    for counter in counters:
        rows.append(
            [counter]
            + [f"{run.final_stats.get(counter, 0):,}" for run in comparison.runs]
        )
    gauge_columns = [gauges_from(run.final_stats) for run in comparison.runs]
    for name in derived:
        rows.append(
            [name] + [f"{gauges[name]:.3f}" for gauges in gauge_columns]
        )
    return format_table(
        headers,
        rows,
        title="Storage counters (whole run)",
        align_right=tuple(range(1, 1 + len(comparison.runs))),
    )


def render_workload(run: RunResult) -> str:
    """Operation mix actually executed (identical across servers)."""
    all_ops: set[str] = set()
    for interval in run.intervals:
        all_ops.update(interval.tally.operations.counts)
    headers = ["Intvl", "txns", "steps", "queries"] + sorted(all_ops)
    rows = []
    for interval in run.intervals:
        tally = interval.tally
        rows.append(
            [
                interval.label,
                tally.transactions,
                tally.steps_executed,
                tally.queries_executed,
            ]
            + [tally.operations.counts.get(op, 0) for op in sorted(all_ops)]
        )
    return format_table(
        headers,
        rows,
        title="Workload (identical for every server version)",
        align_right=tuple(range(1, len(headers))),
    )

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
from repro.obs.registry import DERIVED_METRICS
from repro.storage.stats import STAT_FIELDS
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


def render_stats(comparison: ComparisonResult) -> str:
    """Storage-counter totals per server (the locality evidence).

    Every ``StorageStats`` counter first, then every registered gauge
    over the whole run (:mod:`repro.obs.registry`) — reports stop at raw
    numbers only when a ratio would mislead (per-interval tables), not
    here, where the whole-run ratios are the headline.  Both lists are
    iterated, not copied: a new counter or gauge shows up here by being
    declared.
    """
    headers = ["Counter"] + [run.server for run in comparison.runs]
    rows: list[list[str]] = [
        [counter]
        + [f"{run.final_stats.get(counter, 0):,}" for run in comparison.runs]
        for counter in STAT_FIELDS
    ]
    rows.extend(
        [spec.name]
        + [f"{run.final_gauges[spec.name]:.3f}" for run in comparison.runs]
        for spec in DERIVED_METRICS
    )
    return format_table(
        headers,
        rows,
        title="Storage counters (whole run)",
        align_right=tuple(range(1, 1 + len(comparison.runs))),
    )


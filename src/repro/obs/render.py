"""Render paths for the observability layer.

:func:`render_sample_table` shows every registered gauge: its gauge
columns are built from :data:`repro.obs.registry.DERIVED_METRICS`, one
per spec in registry order, after three fixed counter columns.  The
table uses fixed column widths (not :func:`repro.util.fmt.format_table`)
so the live monitor can stream one row per poll and stay aligned with
the header it printed minutes ago.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.obs.registry import DERIVED_METRICS
from repro.obs.sampler import Sample
from repro.util.fmt import format_table

#: The fixed lead columns: (header, per-interval counter delta shown).
_DELTA_COLUMNS = (
    ("commits", "commits"),
    ("units", "sessions_per_group"),
    ("majflt", "major_faults"),
)


def render_sample_table(samples: Sequence[Sample], title: str | None = None) -> str:
    """Interval samples as a fixed-width table; one line per sample.

    The delta columns are per-interval counter increments; the gauge
    columns are the registered ratios over the same interval.
    """
    gauge_widths = [(spec.name, max(len(spec.name), 10)) for spec in DERIVED_METRICS]
    header = "  ".join(
        ["#".rjust(4), "dt_s".rjust(8)]
        + [name.rjust(8) for name, _ in _DELTA_COLUMNS]
        + [name.rjust(width) for name, width in gauge_widths]
    )
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for sample in samples:
        cells = [str(sample.seq).rjust(4), f"{sample.dt:.3f}".rjust(8)]
        cells += [
            str(sample.delta.get(counter, 0)).rjust(8)
            for _, counter in _DELTA_COLUMNS
        ]
        cells += [
            f"{sample.gauges.get(name, 0.0):.3f}".rjust(width)
            for name, width in gauge_widths
        ]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def render_phase_histograms(
    histograms: Mapping[str, Mapping[str, object]], title: str | None = None
) -> str:
    """Per-phase duration histograms from a tracer summary."""
    rows: list[Sequence[str]] = []
    for phase in sorted(histograms):
        hist = histograms[phase]
        bounds = list(hist.get("bounds", []))  # type: ignore[arg-type]
        counts = list(hist.get("counts", []))  # type: ignore[arg-type]
        total = int(hist.get("total", 0))  # type: ignore[arg-type]
        shape = " ".join(str(int(c)) for c in counts)
        top = f"<= {float(bounds[-1]):g}s + over" if bounds else ""
        rows.append((phase, str(total), shape, top))
    return format_table(
        ["phase", "units", "bucket counts", "range"],
        rows,
        title=title,
        align_right=(1,),
    )


def render_drift_table(
    drifts: Sequence[Mapping[str, object]], title: str | None = None
) -> str:
    """Baseline-comparison drift rows (see :mod:`repro.obs.baseline`)."""
    if not drifts:
        return (title + "\n" if title else "") + "no drift: all metrics within tolerance"
    rows = [
        (
            str(d.get("schema", "")),
            str(d.get("metric", "")),
            f"{float(d.get('baseline', 0.0)):g}",  # type: ignore[arg-type]
            f"{float(d.get('fresh', 0.0)):g}",  # type: ignore[arg-type]
            f"{float(d.get('tolerance', 0.0)):g}",  # type: ignore[arg-type]
            str(d.get("kind", "")),
        )
        for d in drifts
    ]
    return format_table(
        ["schema", "metric", "baseline", "fresh", "tolerance", "kind"],
        rows,
        title=title,
        align_right=(2, 3, 4),
    )

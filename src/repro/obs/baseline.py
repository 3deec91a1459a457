"""Recorded benchmark baselines and regression comparison.

``repro bench record`` canonicalizes the counter-metric results of the
A4-A6 and A8 ablations (the JSON artefacts every bench now writes
under ``benchmarks/results/``) into ``BENCH_A4.json`` ...
``BENCH_A8.json`` at the repo root; ``repro bench compare`` diffs a
fresh run against those committed files and exits non-zero on drift.

What gets recorded, deliberately:

* **counters** — every integer-valued field of the bench payload,
  flattened to dotted keys.  Compared with a *relative* tolerance,
  because byte counters (pickle encodings) shift slightly across
  Python versions while remaining the same order of magnitude.
* **gauges** — the registered metrics whose spec names this schema
  (:data:`repro.obs.registry.DERIVED_METRICS` is the only place a gauge
  is assigned to one), computed from the counter block the bench itself
  names under :data:`GAUGE_BLOCK_KEY`.  Compared with the *absolute*
  tolerance each spec declares.
* **not** wall-clock timings — any ``*_us`` / ``*_ms`` / ``*_sec``
  field is machine noise in CI; pytest-benchmark artefacts already
  capture them for humans.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Mapping

from repro.obs.registry import DERIVED_METRICS

BASELINE_VERSION = 1

#: Which benchmarks/results/<name>.json feeds each baseline schema.
BASELINE_BENCHES: dict[str, str] = {
    "A4": "a4_object_cache",
    "A5": "a5_readahead",
    "A6": "a6_group_commit",
    "A8": "a8_codec",
}

#: The payload key under which a bench names the counter block its
#: schema's gauges are computed from, as a dotted path into the payload
#: (``"on"``, ``"servers.Texas.on"``).  A string, so
#: :func:`flatten_counters` never records it.
GAUGE_BLOCK_KEY = "gauge_block"

#: Fields with these suffixes are timings: excluded from baselines.
_TIME_SUFFIXES = ("_us", "_ms", "_sec", "_seconds", "_ns")

#: Default relative tolerance for counter comparison.
DEFAULT_TOLERANCE = 0.10


@dataclass(frozen=True)
class Drift:
    """One metric outside tolerance (or structurally missing)."""

    schema: str
    metric: str
    baseline: float
    fresh: float
    tolerance: float
    kind: str  # "counter" | "gauge" | "missing"

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


def flatten_counters(payload: object, prefix: str = "") -> dict[str, int]:
    """Integer-valued leaves of a bench payload, as dotted keys.

    Bools and timing fields are skipped; nested dicts recurse.
    """
    flat: dict[str, int] = {}
    if not isinstance(payload, dict):
        return flat
    for key in sorted(payload):
        value = payload[key]
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_counters(value, prefix=f"{dotted}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, int) and not dotted.endswith(_TIME_SUFFIXES):
            flat[dotted] = value
    return flat


def representative_counters(payload: Mapping[str, object]) -> dict[str, int]:
    """The counter block the payload names for its gauges (ints only).

    The bench chooses the block — it knows which of its runs is the
    representative one — and says so under :data:`GAUGE_BLOCK_KEY`.
    """
    path = payload.get(GAUGE_BLOCK_KEY)
    if not isinstance(path, str):
        raise ValueError(f"bench payload names no {GAUGE_BLOCK_KEY!r}")
    block: object = payload
    for key in path.split("."):
        block = block.get(key) if isinstance(block, dict) else None
    if not isinstance(block, dict):
        raise ValueError(f"bench payload has no counter block at {path!r}")
    return {
        key: int(value)
        for key, value in block.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def canonicalize(schema: str, payload: Mapping[str, object]) -> dict[str, object]:
    """The committed ``BENCH_<schema>.json`` content for one bench run."""
    source = representative_counters(payload)
    return {
        "version": BASELINE_VERSION,
        "schema": schema,
        "bench": BASELINE_BENCHES[schema],
        "counters": flatten_counters(dict(payload)),
        "gauges": {
            spec.name: round(spec.compute(source), 6)
            for spec in DERIVED_METRICS
            if spec.baseline == schema
        },
    }


def baseline_path(schema: str, root: str) -> str:
    return os.path.join(root, f"BENCH_{schema}.json")


def results_path(schema: str, results_dir: str) -> str:
    return os.path.join(results_dir, f"{BASELINE_BENCHES[schema]}.json")


def load_json(path: str) -> dict[str, object]:
    with open(path, "r") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return payload


def dump_json(path: str, payload: Mapping[str, object]) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def record(schema: str, results_dir: str, out_dir: str) -> str:
    """Canonicalize one bench result into its committed baseline file.

    Refuses (``ValueError``) to record a gauge that reads its registered
    default only because the bench block lacks the numerator counter
    while the denominator is there and non-zero: that is a bench that
    stopped emitting a counter, and a committed 0.0 nothing can drift
    from (how ``group_width`` 4.0 once became 0.0).
    """
    payload = load_json(results_path(schema, results_dir))
    source = representative_counters(payload)
    hollow = [
        spec.name
        for spec in DERIVED_METRICS
        if spec.baseline == schema
        and spec.numerator not in source
        and any(source.get(name) for name in spec.denominator)
    ]
    if hollow:
        raise ValueError(
            f"{schema}: gauge(s) {', '.join(hollow)} would record their "
            "default: the bench block has the denominator but no numerator "
            "counter"
        )
    path = baseline_path(schema, out_dir)
    dump_json(path, canonicalize(schema, payload))
    return path


def compare(
    baseline: Mapping[str, object],
    fresh: Mapping[str, object],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[list[Drift], list[str]]:
    """Diff a fresh canonicalized run against a committed baseline.

    Returns ``(drifts, notes)``: drifts fail the comparison; notes are
    informational (new metrics that exist only in the fresh run).
    """
    schema = str(baseline.get("schema", "?"))
    drifts: list[Drift] = []
    notes: list[str] = []

    base_counters = baseline.get("counters")
    fresh_counters = fresh.get("counters")
    base_counters = base_counters if isinstance(base_counters, dict) else {}
    fresh_counters = fresh_counters if isinstance(fresh_counters, dict) else {}
    for name in sorted(base_counters):
        expected = float(base_counters[name])
        if name not in fresh_counters:
            drifts.append(
                Drift(schema, name, expected, 0.0, tolerance, "missing")
            )
            continue
        actual = float(fresh_counters[name])
        band = tolerance * max(1.0, abs(expected))
        if abs(actual - expected) > band:
            drifts.append(
                Drift(schema, name, expected, actual, tolerance, "counter")
            )
    for name in sorted(fresh_counters):
        if name not in base_counters:
            notes.append(f"{schema}: new counter {name} (not in baseline)")

    base_gauges = baseline.get("gauges")
    fresh_gauges = fresh.get("gauges")
    base_gauges = base_gauges if isinstance(base_gauges, dict) else {}
    fresh_gauges = fresh_gauges if isinstance(fresh_gauges, dict) else {}
    bands = {spec.name: spec.tolerance for spec in DERIVED_METRICS}
    for name in sorted(base_gauges):
        expected = float(base_gauges[name])
        band = bands.get(name, tolerance)
        if name not in fresh_gauges:
            drifts.append(Drift(schema, name, expected, 0.0, band, "missing"))
            continue
        actual = float(fresh_gauges[name])
        if abs(actual - expected) > band:
            drifts.append(Drift(schema, name, expected, actual, band, "gauge"))
    return drifts, notes


def compare_files(
    baseline_file: str,
    results_dir: str,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[list[Drift], list[str]]:
    """Compare one committed baseline against the fresh bench results."""
    baseline = load_json(baseline_file)
    schema = baseline.get("schema")
    if not isinstance(schema, str) or schema not in BASELINE_BENCHES:
        raise ValueError(f"{baseline_file}: unknown or missing schema")
    fresh = canonicalize(schema, load_json(results_path(schema, results_dir)))
    return compare(baseline, fresh, tolerance=tolerance)

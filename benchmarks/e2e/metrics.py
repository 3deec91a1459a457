"""The declared metrics, and the few statistics every pass shares.

``END_TO_END`` and ``PER_LAYER`` are the source ``BENCHMARK.json`` is
written from and checked against.  An end-to-end metric must exist, and
never be 0, on all four workloads; the four the issue lists that cannot
(`update_p50_ms`, `update_p99_ms` and `written_bytes_per_unit` are empty
by construction on the read-only workload, `failed_share` is 0 wherever
nothing fails) are therefore declared with the per-layer metrics, under
the names the issue gave them, and report mode prints them with the
end-to-end block, ``n/a`` where they do not apply.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable

from gen import SERVED, STREAM_NAME, STREAM_WHY

#: (name, unit, better, bound).  Bounds are relative and were widened
#: from the issue's (0.07 / 0.10 / 0.25 / 0.07 / 0.10 / 0.02 / 0.30) to
#: what this sandbox's A/A runs support (README.md, "A/A"): ten
#: differently-seeded runs spread by up to 0.10 on units_per_s, 0.12 on
#: query_p50_ms, 0.14 on query_p99_ms, 0.09 on CPU, 0.07 on RSS and 0.03
#: on db_mib even with calibrated time, and by half as much again in the
#: host's noisier hours.  Every timing therefore takes the contract's
#: cap of 0.25 (which is also why setup_s is not 0.30).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("units_per_s", "1/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p99_ms", "ms", "lower", 0.25),
    ("server_cpu_ms_per_unit", "ms", "lower", 0.25),
    ("server_rss_mib", "MiB", "lower", 0.25),
    ("db_mib", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: End-to-end numbers that are not defined on every workload.
PARTIAL_END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("update_p50_ms", "ms", "lower"),
    ("update_p99_ms", "ms", "lower"),
    ("written_bytes_per_unit", "B", "lower"),
    ("failed_share", "1", "lower"),
)

SERVED_OPS = (
    "record_step", "set_state", "create_material", "most_recent", "lookup",
    "history_len", "state_of", "in_state",
)
STREAM_OPS = ("intake", "step", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7")

#: (name, unit, better).  What each should move is tabulated in README.md.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *PARTIAL_END_TO_END,
    ("wire.codec_us_per_unit", "us", "lower"),
    ("wire.bytes_per_unit", "B", "lower"),
    ("wire.transport_us_per_unit", "us", "lower"),
    ("service.self_us_per_unit", "us", "lower"),
    ("service.retries_per_kunit", "count", "lower"),
    ("locks.self_us_per_unit", "us", "lower"),
    ("locks.acquisitions_per_unit", "count", "lower"),
    ("locks.waits_per_kunit", "count", "lower"),
    ("commit.self_us_per_unit", "us", "lower"),
    ("commit.group_width", "count", "higher"),
    ("commit.stalls_per_kunit", "count", "lower"),
    ("commit.close_ms_p50", "ms", "lower"),
    ("labbase.self_us_per_unit", "us", "lower"),
    ("labbase.update_us_per_call", "us", "lower"),
    ("labbase.query_us_per_call", "us", "lower"),
    ("objcache.self_us_per_unit", "us", "lower"),
    ("objcache.hit_ratio", "1", "higher"),
    ("objcache.coalesce_ratio", "1", "higher"),
    ("objcache.evictions_per_kunit", "count", "lower"),
    ("storage.self_us_per_unit", "us", "lower"),
    ("storage.commit_self_ms_per_commit", "ms", "lower"),
    ("storage.objects_read_per_unit", "count", "lower"),
    ("storage.objects_written_per_unit", "count", "lower"),
    ("codec.encode_us_per_unit", "us", "lower"),
    ("codec.decode_us_per_unit", "us", "lower"),
    ("codec.fast_path_ratio", "1", "higher"),
    ("codec.bytes_per_record", "B", "lower"),
    ("buffer.self_us_per_unit", "us", "lower"),
    ("buffer.hit_ratio", "1", "higher"),
    ("buffer.faults_per_kunit", "count", "lower"),
    ("buffer.prefetch_absorption", "1", "higher"),
    ("pagefile.read_us_per_unit", "us", "lower"),
    ("pagefile.write_us_per_unit", "us", "lower"),
    ("pagefile.sync_us_per_unit", "us", "lower"),
    ("pagefile.meta_us_per_unit", "us", "lower"),
    ("pagefile.page_writes_per_unit", "count", "lower"),
    ("pagefile.io_batches_per_kunit", "count", "lower"),
    ("pagefile.syncs_per_kunit", "count", "lower"),
    ("pagefile.meta_bytes_per_commit", "B", "lower"),
    ("workflow.self_us_per_unit", "us", "lower"),
    ("stream.query_self_us_per_unit", "us", "lower"),
    ("stream.interval_slowdown", "1", "lower"),
    *((f"ops.{op}_p50_us", "us", "lower") for op in (*SERVED_OPS, *STREAM_OPS)),
    ("trace.inproc_us_per_unit", "us", "lower"),
    ("trace.overhead_share", "1", "lower"),
    ("trace.coverage", "1", "higher"),
)

UNITS = {
    **{name: unit for name, unit, _better, _bound in END_TO_END},
    **{name: unit for name, unit, _better in PER_LAYER},
}

#: One measuring run of the driver, in seconds (see README.md, "Sizes").
RUN_SECONDS = 15


def manifest() -> dict[str, object]:
    """What ``BENCHMARK.json`` must say."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            *({"name": spec.name, "why": spec.why} for spec in SERVED.values()),
            {"name": STREAM_NAME, "why": STREAM_WHY},
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


# -- measurements every pass takes the same way ---------------------------------

PAGE_BYTES = 4096


def written_bytes(stats: dict[str, int]) -> int:
    """Bytes the storage layer physically wrote, from its own counters."""
    return stats["page_writes"] * PAGE_BYTES + stats["meta_bytes_written"]


def peak_rss_mib(pid: int | str = "self") -> float:
    """A process's resident-set high-water mark (VmHWM)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- statistics ---------------------------------------------------------------


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = min(len(ordered) - 1, max(0, round(share * len(ordered)) - 1))
    return ordered[rank]


def tail_share(count: int) -> float:
    """0.99 where at least ten samples lie beyond it, else the highest
    share that has them (never below the median)."""
    if count >= 1000:
        return 0.99
    return max(0.5, 1.0 - 10.0 / max(count, 1))


#: This sandbox's CPU speed drifts by a quarter, for seconds or minutes
#: at a time (a bare spin loop shows it; the same seed and code gave
#: 2 250 to 3 600 units/s on ``stream_e1``).  So time is read against a
#: speed probe: a fixed pure-Python loop the measuring side runs every
#: tenth of a second or so, interleaved with the run.  The run is cut
#: into SEGMENTS parts of equal unit count, in completion order; every
#: duration that falls in a part -- its wall time, its CPU time, each
#: latency sample -- is multiplied by (reference probe time / the part's
#: median probe time) before anything is summed or ranked.  A reported
#: second is thus a second at the sandbox's usual speed, whatever state
#: the host was in: the in-run calibration ROADMAP.md asks of every
#: timing baseline.  Same-seed repeats differ by a third to a half as
#: much with it.
SEGMENTS = 20
PROBE_LOOPS = 20_000
PROBE_REFERENCE_SECONDS = 0.00085


def probe(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds the fixed loop takes right now."""
    started = clock()
    total = 0
    for number in range(PROBE_LOOPS):
        total += number * number
    return clock() - started


class ProbedClock:
    """``perf_counter`` that stands still while the speed probe runs, for
    passes that must run the probe in the thread they are timing."""

    def __init__(self, probe_fn: Callable[[], float] = probe) -> None:
        self._probe = probe_fn
        self.paused = 0.0
        self.probes: list[tuple[float, float]] = []   # (when, probe seconds)
        self.started = self.now()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def run_probe(self) -> None:
        began = time.perf_counter()
        self.probes.append((began - self.paused, self._probe()))
        self.paused += time.perf_counter() - began


class Segments:
    """Consecutive parts of a run, each with its speed factor."""

    def __init__(
        self, edges: list[float], counts: list[int],
        probes: list[tuple[float, float]],
    ) -> None:
        """Part ``k`` lasted from ``edges[k]`` to ``edges[k + 1]`` and
        completed ``counts[k]`` units; ``probes`` are ``(when, probe
        seconds)`` on the same clock."""
        self.edges = edges
        self.counts = counts
        whole_run = statistics.median(seconds for _when, seconds in probes)
        self.factors = []
        for low, high in zip(edges, edges[1:]):
            inside = [seconds for when, seconds in probes if low <= when <= high]
            self.factors.append(
                PROBE_REFERENCE_SECONDS
                / (statistics.median(inside) if inside else whole_run)
            )

    @classmethod
    def even(
        cls, start: float, finished: list[float],
        probes: list[tuple[float, float]],
    ) -> "Segments":
        """Cut at the completion times that split ``finished`` evenly."""
        ordered = sorted(finished)
        parts = max(1, min(SEGMENTS, len(ordered)))
        cuts = [part * len(ordered) // parts for part in range(parts + 1)]
        return cls(
            [start] + [ordered[cut - 1] for cut in cuts[1:]],
            [high - low for low, high in zip(cuts, cuts[1:])],
            probes,
        )

    def _calibrated(self, total_at: list[float] | None) -> list[float]:
        """Per part, the calibrated growth of a running total whose value
        at ``edges[k]`` is ``total_at[k]`` (default: time itself)."""
        totals = self.edges if total_at is None else total_at
        return [
            (high - low) * factor
            for low, high, factor in zip(totals, totals[1:], self.factors)
        ]

    def per_unit(self, total_at: list[float] | None = None) -> float:
        """Calibrated growth of the total over the run, per unit."""
        return sum(self._calibrated(total_at)) / sum(self.counts)

    def each_per_unit(self) -> list[float]:
        """Calibrated seconds per unit, part by part."""
        return [
            seconds / count
            for seconds, count in zip(self._calibrated(None), self.counts)
        ]

    def latency(self, samples: list[tuple[float, float]]) -> dict[str, float]:
        """Median and tail of one op class, calibrated sample by sample.

        ``samples`` are ``(finished at, seconds)``.
        """
        if not samples:
            return {"n": 0}
        last = len(self.counts) - 1
        ordered = sorted(
            seconds * self.factors[
                min(bisect.bisect_left(self.edges, finished, 1) - 1, last)
            ]
            for finished, seconds in samples
        )
        share = tail_share(len(ordered))
        return {
            "n": len(ordered),
            "p50": percentile(ordered, 0.5),
            "tail": percentile(ordered, share),
            "tail_share": share,
        }


def interpolate(samples: list[tuple[float, float]], at: float) -> float:
    """A running total, sampled at ``(time, total)``, read off at ``at``."""
    times = [time for time, _total in samples]
    right = min(max(bisect.bisect_left(times, at), 1), len(samples) - 1)
    (t0, v0), (t1, v1) = samples[right - 1], samples[right]
    return v0 if t1 == t0 else v0 + (v1 - v0) * (at - t0) / (t1 - t0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver takes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, _second, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, median, third = quartiles(values)
    return (third - first) / median if median else 0.0

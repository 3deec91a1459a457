"""Resource metering in the paper's vocabulary.

Section 10 of the paper reports, per measurement interval, the resources
consumed by each storage-manager version: elapsed seconds, user CPU
seconds, system CPU seconds, major page faults (``majflt``), and database
size in bytes.

On 1996 hardware the database did not fit in RAM, so OS-level major page
faults measured how well each storage manager controlled locality of
reference.  On modern hardware the same databases sit comfortably in the
page cache, so OS majflt would read 0 for every version and the comparison
would vanish.  We therefore meter *simulated* major faults: buffer-pool
misses reported by the storage layer, which is exactly the quantity the
paper's majflt numbers proxied.  Real elapsed and CPU time are still
measured, with :func:`time.perf_counter` and :func:`resource.getrusage`
(microseconds; :func:`os.times` counts 10 ms ticks, which at tiny scale
is a tenth of a whole run).
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ResourceUsage:
    """One interval's resource consumption, in the paper's units."""

    elapsed_sec: float
    user_cpu_sec: float
    sys_cpu_sec: float
    majflt: int
    size_bytes: int

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        """Accumulate two intervals (size is *latest*, not summed)."""
        return ResourceUsage(
            elapsed_sec=self.elapsed_sec + other.elapsed_sec,
            user_cpu_sec=self.user_cpu_sec + other.user_cpu_sec,
            sys_cpu_sec=self.sys_cpu_sec + other.sys_cpu_sec,
            majflt=self.majflt + other.majflt,
            size_bytes=max(self.size_bytes, other.size_bytes),
        )

    def as_rows(self) -> list[tuple[str, str]]:
        """Render as (resource, value) rows matching the paper's table."""
        return [
            ("elapsed sec", f"{self.elapsed_sec:,.3f}"),
            ("user cpu sec", f"{self.user_cpu_sec:,.3f}"),
            ("sys cpu sec", f"{self.sys_cpu_sec:,.3f}"),
            ("majflt", f"{self.majflt:,}"),
            ("size (bytes)", f"{self.size_bytes:,}" if self.size_bytes else "-"),
        ]


@dataclass
class _Snapshot:
    wall: float
    user: float
    sys: float
    faults: int


class ResourceMeter:
    """Meters elapsed/CPU time and simulated faults over intervals.

    Usage::

        meter = ResourceMeter(fault_source=store.stats)
        meter.start()
        ... run interval 1 ...
        usage1 = meter.lap(size_bytes=store.size_bytes())
        ... run interval 2 ...
        usage2 = meter.lap(size_bytes=store.size_bytes())

    ``fault_source`` is any object with a ``major_faults`` integer
    attribute (the storage stats counters); main-memory versions pass a
    source that always reads 0.
    """

    def __init__(self, fault_source: object | None = None) -> None:
        self._fault_source = fault_source
        self._last: _Snapshot | None = None
        self.intervals: list[ResourceUsage] = []

    def _read_faults(self) -> int:
        if self._fault_source is None:
            return 0
        return int(getattr(self._fault_source, "major_faults", 0))

    def _snapshot(self) -> _Snapshot:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return _Snapshot(
            wall=time.perf_counter(),
            user=usage.ru_utime,
            sys=usage.ru_stime,
            faults=self._read_faults(),
        )

    def start(self) -> None:
        """Begin metering; resets interval history."""
        self.intervals = []
        self._last = self._snapshot()

    def lap(self, size_bytes: int = 0) -> ResourceUsage:
        """Close the current interval and return its usage."""
        if self._last is None:
            raise RuntimeError("ResourceMeter.lap() called before start()")
        now = self._snapshot()
        usage = ResourceUsage(
            elapsed_sec=now.wall - self._last.wall,
            user_cpu_sec=now.user - self._last.user,
            sys_cpu_sec=now.sys - self._last.sys,
            majflt=now.faults - self._last.faults,
            size_bytes=size_bytes,
        )
        self.intervals.append(usage)
        self._last = now
        return usage

    def total(self) -> ResourceUsage:
        """Sum of all closed intervals."""
        total = ResourceUsage(0.0, 0.0, 0.0, 0, 0)
        for usage in self.intervals:
            total = total + usage
        return total

"""Benchmark configuration.

The paper reports results per *interval*: its table rows are labelled
``0.5X``, ``1.0X``, ... where X is the base database size, and every
server version processes the identical stream.  :class:`BenchmarkConfig`
pins all scale and mix knobs, and — crucially — the seed: two configs
with the same seed generate byte-identical workloads, which is what
makes the cross-server comparison (E1) meaningful.

Defaults are sized so a full five-server comparison finishes in well
under a minute on one CPU; ``scale()`` produces proportionally larger
runs for the scaling experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.storage import SERVER_VERSIONS

#: Server-version names in table column order.
SERVER_ORDER: tuple[str, ...] = tuple(cls.name for cls in SERVER_VERSIONS)


@dataclass(frozen=True)
class BenchmarkConfig:
    """All knobs of a LabFlow-1 run.

    LabBase's own knobs (the most-recent index, history chunking), the
    query path and the BLAST hit-list sizing are fixed for the stream:
    the ablations that vary them construct ``LabBase`` or
    ``QueryRunner`` themselves.
    """

    # scale: clones entering the lab per 0.5X interval
    clones_per_interval: int = 30
    #: interval labels, as multiples of X (cumulative database growth)
    intervals: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)

    seed: int = 1996

    # stream mix
    #: workflow steps pumped after each clone intake (work-in-progress mix)
    pump_budget_per_intake: int = 36
    #: interactive queries interleaved after each intake+pump block
    queries_per_intake: int = 4

    # storage knobs
    buffer_pages: int = 256
    #: directory for database files; None = in-memory page files
    db_dir: str | None = None

    def __post_init__(self) -> None:
        if self.clones_per_interval < 1:
            raise ConfigError("clones_per_interval must be positive")
        if not self.intervals:
            raise ConfigError("at least one interval required")
        if any(b <= a for a, b in zip(self.intervals, self.intervals[1:])):
            raise ConfigError("intervals must be strictly increasing")
        if self.pump_budget_per_intake < 0 or self.queries_per_intake < 0:
            raise ConfigError("mix knobs must be non-negative")
        if self.buffer_pages < 1:
            raise ConfigError("buffer_pages must be positive")

    # -- derived -----------------------------------------------------------

    @property
    def interval_labels(self) -> tuple[str, ...]:
        return tuple(f"{interval:.1f}X" for interval in self.intervals)

    def total_clones(self) -> int:
        return self.clones_per_interval * len(self.intervals)

    # -- variants --------------------------------------------------------------

    def scaled(self, factor: float) -> "BenchmarkConfig":
        """A config with proportionally more clones per interval."""
        clones = max(1, round(self.clones_per_interval * factor))
        return replace(self, clones_per_interval=clones)

    def with_(self, **overrides) -> "BenchmarkConfig":
        """Convenience wrapper around dataclasses.replace."""
        return replace(self, **overrides)


#: Tiny config for unit tests and doc examples (sub-second runs).
TINY = BenchmarkConfig(
    clones_per_interval=4,
    intervals=(0.5, 1.0),
    pump_budget_per_intake=20,
    queries_per_intake=2,
    buffer_pages=64,
)

#: Default benchmark scale (used by the benches).
DEFAULT = BenchmarkConfig()

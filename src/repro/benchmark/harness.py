"""The benchmark harness: run the stream, meter per interval, compare.

Reproduces the measurement protocol behind the paper's Section 10 table:
the same seeded stream runs against each server version; after every
interval the harness snapshots elapsed/user-cpu/sys-cpu, the simulated
major-fault counter, and the database size — the exact row set of the
paper's "Database Server Version / Intvl / Resource" table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchmark.config import SERVER_ORDER, BenchmarkConfig
from repro.benchmark.servers import ServerSpec, all_servers, make_db
from repro.benchmark.workload import IntervalTally, LabFlowWorkload
from repro.labbase.database import LabBase
from repro.obs.registry import gauges_from
from repro.util.timing import ResourceMeter, ResourceUsage


@dataclass
class IntervalResult:
    """Metering for one interval of one server's run."""

    label: str
    usage: ResourceUsage
    stats_delta: dict[str, int]
    tally: IntervalTally


@dataclass
class RunResult:
    """One server version's full benchmark run."""

    server: str
    intervals: list[IntervalResult] = field(default_factory=list)
    final_stats: dict[str, int] = field(default_factory=dict)
    final_gauges: dict[str, float] = field(default_factory=dict)

    def total_usage(self) -> ResourceUsage:
        total = ResourceUsage(0.0, 0.0, 0.0, 0, 0)
        for interval in self.intervals:
            total = total + interval.usage
        return total

    def usage_for(self, label: str) -> ResourceUsage:
        for interval in self.intervals:
            if interval.label == label:
                return interval.usage
        raise KeyError(label)


@dataclass
class ComparisonResult:
    """All server versions over the identical stream."""

    config: BenchmarkConfig
    runs: list[RunResult] = field(default_factory=list)

    def run_for(self, server: str) -> RunResult:
        for run in self.runs:
            if run.server == server:
                return run
        raise KeyError(server)

    @property
    def interval_labels(self) -> tuple[str, ...]:
        return self.config.interval_labels


def run_server(
    spec: ServerSpec,
    config: BenchmarkConfig,
    keep_db: bool = False,
) -> RunResult | tuple[RunResult, LabBase]:
    """Run the full stream against one server version.

    With ``keep_db=True`` the (still open) LabBase is returned alongside
    the result so callers can issue follow-up queries (E5 does this);
    otherwise the store is closed.
    """
    sm, db = make_db(spec, config)
    workload = LabFlowWorkload(db, config)
    meter = ResourceMeter(fault_source=sm.stats)
    result = RunResult(server=spec.name)

    workload.setup_schema()
    meter.start()
    before = sm.stats.snapshot()
    for label in config.interval_labels:
        tally = workload.run_interval(label)
        usage = meter.lap(size_bytes=sm.size_bytes())
        result.intervals.append(
            IntervalResult(
                label=label,
                usage=usage,
                stats_delta=sm.stats.delta(before),
                tally=tally,
            )
        )
        before = sm.stats.snapshot()
    result.final_stats = sm.stats.snapshot()
    result.final_gauges = gauges_from(result.final_stats)

    if keep_db:
        return result, db
    sm.close()
    return result


def run_comparison(
    config: BenchmarkConfig,
    servers: tuple[str, ...] = SERVER_ORDER,
) -> ComparisonResult:
    """Run every requested server version over the identical stream."""
    comparison = ComparisonResult(config=config)
    for spec in all_servers(servers):
        result = run_server(spec, config)
        assert isinstance(result, RunResult)
        comparison.runs.append(result)
    return comparison

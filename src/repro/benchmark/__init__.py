"""LabFlow-1: the benchmark itself (the paper's primary contribution).

Quick use::

    from repro.benchmark import BenchmarkConfig, run_comparison, render_comparison

    comparison = run_comparison(BenchmarkConfig(clones_per_interval=10))
    print(render_comparison(comparison))
"""

from repro.benchmark.analysis import ShapeCheck, check_shapes, failed_checks, render_checks
from repro.benchmark.config import DEFAULT, SERVER_ORDER, TINY, BenchmarkConfig
from repro.benchmark.harness import (
    ComparisonResult,
    IntervalResult,
    RunResult,
    run_comparison,
    run_server,
)
from repro.benchmark.operations import (
    CLASS_ATTRIBUTES,
    QUERY_MIX,
    MaterialRegistry,
    OperationTally,
    QueryRunner,
)
from repro.benchmark.report import render_comparison, render_run, render_stats
from repro.benchmark.servers import ServerSpec, all_servers, make_db, server_spec
from repro.benchmark.trace import Trace, TracingServer, replay
from repro.benchmark.workload import IntervalTally, LabFlowWorkload

__all__ = [
    "BenchmarkConfig",
    "DEFAULT",
    "TINY",
    "SERVER_ORDER",
    "LabFlowWorkload",
    "IntervalTally",
    "QueryRunner",
    "MaterialRegistry",
    "OperationTally",
    "QUERY_MIX",
    "CLASS_ATTRIBUTES",
    "ServerSpec",
    "Trace",
    "TracingServer",
    "replay",
    "server_spec",
    "all_servers",
    "make_db",
    "run_server",
    "run_comparison",
    "RunResult",
    "IntervalResult",
    "ComparisonResult",
    "render_comparison",
    "check_shapes",
    "failed_checks",
    "render_checks",
    "ShapeCheck",
    "render_run",
    "render_stats",
]

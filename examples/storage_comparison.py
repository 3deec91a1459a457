#!/usr/bin/env python3
"""A small-scale run of the paper's Section 10 comparison.

Runs the identical seeded LabFlow-1 stream against all five server
versions and prints the paper's table: elapsed, user/sys CPU, simulated
major faults, and database size per interval — followed by the storage
counters that explain the differences (clustering, swizzling,
power-of-two fragmentation).

Run:  python examples/storage_comparison.py [clones_per_interval]
(the full-scale reproduction lives in benchmarks/bench_e1_update_stream.py)
"""

import sys
import tempfile

from repro import BenchmarkConfig, render_comparison, run_comparison
from repro.benchmark import render_stats


def main(clones_per_interval: int = 15) -> None:
    with tempfile.TemporaryDirectory() as db_dir:
        config = BenchmarkConfig(
            clones_per_interval=clones_per_interval,
            db_dir=db_dir,
            buffer_pages=128,
        )
        print(f"running the LabFlow-1 stream against 5 server versions "
              f"({config.total_clones()} clones, seed {config.seed})...\n")
        comparison = run_comparison(config)

        print(render_comparison(comparison))
        print()
        print(render_stats(comparison))

        ostore = comparison.run_for("OStore").intervals[-1].usage.size_bytes
        texas = comparison.run_for("Texas").intervals[-1].usage.size_bytes
        print(f"\nTexas / OStore database size: {texas / ostore:.2f}x "
              f"(paper's 0.5X row: ~1.48x)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 15)

"""LabFlow end-to-end benchmark: four workloads, wall time, a layer trace.

    python benchmarks/e2e/run.py [--seed S] [--workload W] [--repeat N] [--scale F]

runs the workloads (all four unless ``--workload`` names one) against the
shipped configuration, prints every metric by name with its unit, and
exits non-zero if an output was wrong.  End-to-end numbers come from an
untraced pass; a separate traced pass gives each layer's exclusive time.

    python benchmarks/e2e/run.py --aa N

runs two interleaved sets of N repeats of the same code and fails if any
end-to-end metric differs between them by more than its bound.

    python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

is how the driver of ``BENCHMARK.json`` calls it: one workload, one
pass, and as the last line of output one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics for
``--trace 0``, the per-layer ones for ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import paths

paths.add_src()

import gen  # noqa: E402
import metrics  # noqa: E402
import served  # noqa: E402

Value = float | None   # None: the metric does not apply to this workload


@dataclass
class Measurement:
    """One workload, measured once."""

    workload: str
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, Value]
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def worker(
    workload: str, mode: str, seed: int, scale: float, traced: bool = False
) -> dict[str, Any]:
    """Run one in-process pass in a fresh interpreter."""
    done = subprocess.run(
        [
            sys.executable, str(paths.HERE / "inproc.py"),
            "--workload", workload, "--mode", mode, "--seed", str(seed),
            "--scale", repr(scale), "--traced", str(int(traced)),
        ],
        stdout=subprocess.PIPE, env=paths.child_env(), check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{mode} pass of {workload} exited {done.returncode}")
    result: dict[str, Any] = json.loads(done.stdout.splitlines()[-1])
    return result


def measure(
    workload: str, seed: int, scale: float, *, end_to_end: bool = True,
    layers: bool = True, setups: int = 3, tamper: bool = False,
) -> Measurement:
    """Run the untraced pass and, for ``layers``, the two in-process ones."""
    spec = gen.SERVED.get(workload)
    if spec is not None:
        base = served.served_pass(
            spec, seed, scale, setups if end_to_end else 1, tamper
        )
        quarter_mode = "replay"
    else:
        # The embedded stream has no server to start: its set-up is a
        # fresh interpreter importing the program, opening the database
        # and installing the schema, timed from here.
        base = worker(workload, "stream", seed, scale)
        base["setup_s"] = []
        for _ in range(setups if end_to_end else 0):
            started = time.perf_counter()
            worker(workload, "stream-setup", seed, scale)
            base["setup_s"].append(time.perf_counter() - started)
        quarter_mode = "stream-quarter"
    units = base["units"]
    served_us_per_unit = base["us_per_unit"]
    latency = base["latency_s"]
    notes = [
        f"{kind}_p99_ms is p{latency[kind]['tail_share'] * 100:.1f} "
        f"of {latency[kind]['n']} samples"
        for kind in ("update", "query")
        if latency[kind]["n"] and latency[kind]["tail_share"] != 0.99
    ]

    def ms(kind: str, which: str) -> Value:
        return latency[kind][which] * 1e3 if latency[kind]["n"] else None

    result = Measurement(
        workload=workload, correct=base["correct"], attempted=units,
        failed=base["failed"], problems=list(base["problems"]), notes=notes,
        end_to_end={}, per_layer={},
    )
    if end_to_end:
        query_p50, query_p99 = ms("query", "p50"), ms("query", "tail")
        assert query_p50 is not None and query_p99 is not None
        result.end_to_end = {
            "units_per_s": 1e6 / served_us_per_unit,
            "query_p50_ms": query_p50,
            "query_p99_ms": query_p99,
            "server_cpu_ms_per_unit": base["cpu_ms_per_unit"],
            "server_rss_mib": base["rss_mib"],
            "db_mib": base["db_mib"],
            "setup_s": metrics.quartiles(base["setup_s"])[1],
        }
    if not layers:
        return result

    has_updates = latency["update"]["n"] > 0
    written = metrics.written_bytes(base["stats"]) / units
    per_layer: dict[str, Value] = {
        "update_p50_ms": ms("update", "p50"),
        "update_p99_ms": ms("update", "tail"),
        "written_bytes_per_unit": written if has_updates else None,
        "failed_share": base["failed"] / units,
        "stream.interval_slowdown": base.get("interval_slowdown"),
    }
    for op in (*metrics.SERVED_OPS, *metrics.STREAM_OPS):
        summary = latency.get(op, {"n": 0})
        per_layer[f"ops.{op}_p50_us"] = (
            summary["p50"] * 1e6 if summary["n"] else None
        )
    plain = worker(workload, quarter_mode, seed, scale)
    traced = worker(workload, quarter_mode, seed, scale, traced=True)
    for name, passed in (("untraced", plain), ("traced", traced)):
        if not passed["correct"]:
            result.correct = False
            result.problems.append(f"in-process {name} pass: outputs wrong")
    inproc_us_per_unit = plain["us_per_unit"]
    per_layer.update(traced["layers"])
    per_layer["trace.inproc_us_per_unit"] = inproc_us_per_unit
    per_layer["trace.overhead_share"] = (
        traced["us_per_unit"] / inproc_us_per_unit - 1
    )
    per_layer["wire.transport_us_per_unit"] = (
        served_us_per_unit - inproc_us_per_unit if spec is not None else None
    )
    result.per_layer = {name: per_layer[name] for name, _u, _b in metrics.PER_LAYER}
    return result


# -- printing -------------------------------------------------------------------------


def summarize(runs: list[Measurement]) -> dict[str, dict[str, Any]]:
    """Median, quartiles and sample count of every metric over ``runs``;
    a metric that applies to none of them keeps ``n`` 0 and no numbers."""
    table: dict[str, dict[str, Any]] = {}
    for name in [n for n, *_ in metrics.END_TO_END] + [n for n, *_ in metrics.PER_LAYER]:
        if not any(name in run.end_to_end or name in run.per_layer for run in runs):
            continue
        values = [
            value for run in runs
            for value in [run.end_to_end.get(name, run.per_layer.get(name))]
            if value is not None
        ]
        row: dict[str, Any] = {"unit": metrics.UNITS[name], "n": len(values)}
        if values:
            row["q1"], row["median"], row["q3"] = metrics.quartiles(values)
        table[name] = row
    return table


def print_table(title: str, runs: list[Measurement]) -> dict[str, dict[str, Any]]:
    """Print :func:`summarize`, the end-to-end block first."""
    table = summarize(runs)
    print(f"\n== {title} ({len(runs)} run{'s' if len(runs) != 1 else ''}) ==")
    print(f"{'metric':36} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    end_to_end = [n for n, *_ in metrics.END_TO_END] + [
        n for n, *_ in metrics.PARTIAL_END_TO_END
    ]
    blocks = (
        ("end to end", [n for n in end_to_end if n in table]),
        ("per layer", [n for n in table if n not in end_to_end]),
    )
    for heading, names in blocks:
        if names:
            print(f"-- {heading}")
        for name in names:
            row = table[name]
            if row["n"]:
                cells = f"{row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g}"
            else:
                cells = f"{'n/a':>12} {'':12} {'':12}"
            print(f"{name:36} {row['unit']:6} {cells} {row['n']:3}")
    for run in runs:
        for note in run.notes:
            print(f"note: {note}")
        for problem in run.problems:
            print(f"WRONG: {run.workload}: {problem}")
    return table


def report(args: argparse.Namespace, workloads: tuple[str, ...]) -> int:
    ok = True
    tables = {}
    for workload in workloads:
        runs = [
            measure(workload, args.seed + repeat, args.scale,
                    setups=args.setups, tamper=args.tamper)
            for repeat in range(args.repeat)
        ]
        tables[workload] = print_table(
            f"{workload}, seed {args.seed}, scale {args.scale:g}", runs
        )
        ok = ok and all(run.correct for run in runs)
    if args.json:
        with open(args.json, "w") as sink:
            json.dump(
                {"seed": args.seed, "scale": args.scale, "repeat": args.repeat,
                 "workloads": tables},
                sink, indent=1,
            )
            sink.write("\n")
    print("\nall output checks passed" if ok else "\nOUTPUT CHECKS FAILED")
    return 0 if ok else 1


def a_a(args: argparse.Namespace, workloads: tuple[str, ...]) -> int:
    """Two interleaved sets of the same code, as the driver compares them."""
    ok = True
    for workload in workloads:
        sets: tuple[list[Measurement], list[Measurement]] = ([], [])
        for repeat in range(args.aa):
            for side in sets:
                side.append(measure(
                    workload, args.seed + repeat, args.scale,
                    layers=False, setups=args.setups,
                ))
        print(f"\n== A/A {workload}: 2 x {args.aa} runs, scale {args.scale:g} ==")
        print(f"{'metric':24} {'median A':>11} {'median B':>11} {'B/A-1':>8} "
              f"{'spread A':>9} {'spread B':>9} {'bound':>6}")
        for name, _unit, better, bound in metrics.END_TO_END:
            a, b = ([run.end_to_end[name] for run in side] for side in sets)
            median_a, median_b = metrics.quartiles(a)[1], metrics.quartiles(b)[1]
            change = median_b / median_a - 1
            verdict = ""
            if abs(change) > bound:
                verdict, ok = "  DIFFERS", False
            widest = max(metrics.spread(a), metrics.spread(b))
            if name != "setup_s" and widest > bound:
                verdict, ok = verdict + "  SPREAD > BOUND", False
            print(f"{name:24} {median_a:11.5g} {median_b:11.5g} {change:+8.3f} "
                  f"{metrics.spread(a):9.3f} {metrics.spread(b):9.3f} "
                  f"{bound:6.2f}{verdict}")
        for run in (*sets[0], *sets[1]):
            if not run.correct or run.failed:
                ok = False
                print(f"WRONG: {workload}: failed={run.failed} {run.problems}")
    print("\nA/A agrees within every bound" if ok else "\nA/A FAILED")
    return 0 if ok else 1


def drive(args: argparse.Namespace) -> int:
    """One workload, one pass, one JSON line: the BENCHMARK.json contract."""
    traced = args.trace == 1
    run = measure(
        args.workload, args.seed, args.scale, end_to_end=not traced,
        layers=traced, setups=args.setups, tamper=args.tamper,
    )
    print_table(f"{args.workload}, seed {args.seed}, scale {args.scale:g}", [run])
    values = run.per_layer if traced else run.end_to_end
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            # The contract wants every metric on every workload: a layer
            # that does not exist on this one did 0 work.
            name: {"value": 0.0 if value is None else value,
                   "unit": metrics.UNITS[name]}
            for name, value in values.items()
        },
    }))
    return 0 if run.correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=gen.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1996)
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--scale", type=float,
                      help="common factor on all four unit counts (1.0 = "
                           f"about {gen.NOMINAL_SECONDS} s per workload)")
    size.add_argument("--seconds", type=float,
                      help=f"the same as --scale SECONDS/{gen.NOMINAL_SECONDS}")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--aa", type=int, default=0, metavar="N")
    parser.add_argument("--json", metavar="FILE",
                        help="also write the report's table here")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--setups", type=int, default=3,
                        help="set-ups per run; setup_s is their median")
    parser.add_argument("--tamper", action="store_true",
                        help="self-test: spoil one expected answer of a served "
                             "workload, so the run must fail")
    args = parser.parse_args(argv)
    if args.seconds is not None:
        args.scale = args.seconds / gen.NOMINAL_SECONDS
    elif args.scale is None:
        args.scale = metrics.RUN_SECONDS / gen.NOMINAL_SECONDS
    workloads = (args.workload,) if args.workload else gen.WORKLOAD_NAMES
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return drive(args)
    if args.aa:
        return a_a(args, workloads)
    return report(args, workloads)


if __name__ == "__main__":
    sys.exit(main())

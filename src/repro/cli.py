"""Command-line interface.

::

    python -m repro compare [--clones N] [--db-dir DIR] [--servers ...]
    python -m repro run --server OStore [--clones N] [--db-dir DIR]
    python -m repro graph [--workflow FILE]
    python -m repro eer [--workflow FILE]
    python -m repro demo [--clones N]
    python -m repro query DBFILE "state(M, S)."
    python -m repro shell DBFILE
    python -m repro serve [DBFILE] [--server NAME] [--port P] [--smoke N]
    python -m repro monitor --port P [--samples N] [--interval SEC]
    python -m repro verify DBFILE [--server OStore]
    python -m repro recover DBFILE [--server OStore]

``compare`` regenerates the paper's Section 10 table; ``graph`` and
``eer`` emit the Appendix B and Figure 1 artefacts; ``query``/``shell``
run the deductive language against a persisted database file;
``verify``/``recover`` check and repair a database file after a crash;
``monitor`` attaches to a running ``serve`` and streams interval
samples.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.benchmark import (
    BenchmarkConfig,
    SERVER_ORDER,
    render_comparison,
    render_run,
    render_stats,
    run_comparison,
    run_server,
    server_spec,
)
from repro.benchmark.schema_report import eer_text
from repro.labbase import Chronicle, LabBase
from repro.query import Program
from repro.storage import SERVER_VERSIONS, ObjectStoreSM, server_class
from repro.util.fmt import format_table
from repro.util.rng import DeterministicRng
from repro.workflow import (
    WorkflowEngine,
    build_genome_spec,
    build_genome_workflow,
    load_workflow,
)


def _load_graph(path: str | None):
    if path is None:
        return build_genome_workflow()
    with open(path) as handle:
        return load_workflow(handle.read())


def _config(args) -> BenchmarkConfig:
    return BenchmarkConfig(
        clones_per_interval=args.clones,
        seed=args.seed,
        db_dir=args.db_dir,
    )


# -- subcommands ------------------------------------------------------------


def cmd_compare(args) -> int:
    config = _config(args)
    servers = tuple(args.servers) if args.servers else SERVER_ORDER
    comparison = run_comparison(config, servers=servers)
    print(render_comparison(comparison))
    print()
    print(render_stats(comparison))
    return 0


def cmd_run(args) -> int:
    config = _config(args)
    result = run_server(server_spec(args.server), config)
    print(render_run(result))
    return 0


def cmd_graph(args) -> int:
    graph = _load_graph(args.workflow)
    print(graph.to_text())
    return 0


def cmd_eer(args) -> int:
    if args.workflow is None:
        spec = build_genome_spec()
    else:
        spec = _load_graph(args.workflow).spec
    print(eer_text(spec))
    return 0


def cmd_demo(args) -> int:
    graph = _load_graph(args.workflow)
    db = LabBase(ObjectStoreSM(path=args.db))
    engine = WorkflowEngine(db, graph, DeterministicRng(args.seed))
    engine.install_schema()
    print(f"processing {args.clones} materials...")
    intake_class = graph.spec.materials[0].class_name
    for _ in range(args.clones):
        engine.create_material(intake_class)
    executed = engine.pump(1_000_000)
    print(f"{executed} workflow steps executed\n")

    chronicle = Chronicle(db)
    rows = [
        [p.class_name, p.executions, p.materials_touched]
        for p in chronicle.step_profiles()
    ]
    print(format_table(["step class", "runs", "materials"], rows,
                       align_right=(1, 2)))
    census = {s: n for s, n in db.sets.state_census().items() if n}
    print(f"\nfinal state census: {census}")
    if args.db:
        db.storage.close()
        print(f"database saved to {args.db}")
    return 0


def _open_program(db_path: str) -> tuple[Program, LabBase]:
    db = LabBase(ObjectStoreSM(path=db_path))
    return Program(db=db), db


def _print_solutions(program: Program, query: str, limit: int) -> None:
    try:
        shown = 0
        for row in program.solve(query):
            print("  " + (", ".join(f"{k} = {v!r}" for k, v in row.items())
                          if row else "yes"))
            shown += 1
            if shown >= limit:
                print(f"  ... (stopped at {limit} solutions)")
                break
        if shown == 0:
            print("  no")
    except Exception as exc:
        print(f"  error: {exc}", file=sys.stderr)


def cmd_record(args) -> int:
    from repro.benchmark import LabFlowWorkload, TracingServer
    from repro.storage import OStoreMM

    config = BenchmarkConfig(clones_per_interval=args.clones, seed=args.seed)
    traced = TracingServer(LabBase(OStoreMM()))
    LabFlowWorkload(traced, config).run_all()
    with open(args.trace, "w") as fp:
        traced.trace.dump(fp)
    counts = traced.trace.operations()
    print(f"recorded {len(traced.trace)} events to {args.trace}: {counts}")
    return 0


def cmd_replay(args) -> int:
    from repro.benchmark import Trace, replay
    from repro.util.timing import ResourceMeter

    with open(args.trace) as fp:
        trace = Trace.load(fp)
    sm = server_spec(args.server).make(BenchmarkConfig(db_dir=args.db_dir))
    db = LabBase(sm)
    meter = ResourceMeter(fault_source=sm.stats)
    meter.start()
    counts = replay(trace, db)
    usage = meter.lap(size_bytes=sm.size_bytes())
    print(f"replayed {sum(counts.values())} events onto {args.server}")
    for resource, value in usage.as_rows():
        print(f"  {resource:14s} {value}")
    sm.close()
    return 0


#: How many of a refused store's open problems ``repro serve`` prints.
SERVE_PROBLEMS_SHOWN = 5


def _open_existing_store(args):
    """Open a database file for verify/recover; refuse to create one.

    Constructing a store on a missing path would silently create an
    empty (trivially valid) database — the opposite of what someone
    checking a file after a crash wants.
    """
    if not os.path.exists(args.db):
        print(f"error: no such database file: {args.db}", file=sys.stderr)
        return None
    return server_class(args.server)(path=args.db)  # type: ignore[call-arg]


def _verdict(sm) -> tuple:
    """The one verdict ``verify`` and ``recover`` give: the storage
    report, then the state-set disagreements of a LabBase file — or
    ``None`` when they were not checked (the storage is unsound, or the
    file has no catalog, where constructing a LabBase would bootstrap
    one).  Reads only; the caller decides whether to close."""
    from repro.labbase.catalog import CATALOG_ROOT

    report = sm.verify()
    if not report.ok or sm.get_root(CATALOG_ROOT) is None:
        return report, None
    return report, LabBase(sm).check_state_sets()


def cmd_verify(args) -> int:
    sm = _open_existing_store(args)
    if sm is None:
        return 2
    # Deliberately no close(): closing checkpoints, and verification
    # must never modify the store it is judging.
    report, disagreements = _verdict(sm)
    print(f"{report.manager}: checked {report.objects_checked} objects, "
          f"{report.pages_checked} pages")
    for problem in report.problems:
        print(f"  {problem}")
    print("OK" if report.ok else f"{len(report.problems)} problem(s) found "
          "— run 'repro recover' to repair")
    if disagreements is not None:
        for problem in disagreements:
            print(f"  {problem}")
        print("state sets: " + ("OK" if not disagreements else
                                f"{len(disagreements)} problem(s) found"))
    return 0 if report.ok and not disagreements else 1


def cmd_recover(args) -> int:
    sm = _open_existing_store(args)
    if sm is None:
        return 2
    outcome = sm.recover()
    print(f"dropped {outcome['dropped_objects']} object(s), "
          f"{outcome['dropped_roots']} root(s); "
          f"vacuumed {outcome['vacuumed_slots']} slot(s)")
    report, disagreements = _verdict(sm)
    sm.close()
    problems = list(report.problems) + (disagreements or [])
    if problems:
        # Storage recovery repairs storage; what it leaves, say so.
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        print("store is still inconsistent after recovery", file=sys.stderr)
        return 1
    print("store is consistent")
    return 0


def cmd_serve(args) -> int:
    import threading

    from repro.obs import UnitTracer, gauges_from
    from repro.server import (
        LabFlowService,
        ServiceRunner,
        bootstrap_schema,
        run_concurrent_clients,
    )
    from repro.storage.report import stats_report

    sm = server_class(args.server)(  # type: ignore[call-arg]
        path=args.db, checkpoint_every=args.checkpoint_every
    )
    problems = sm.open_problems()
    if problems:
        # Crash evidence recorded at open: serving would hand out oids
        # the directory no longer knows.  No close() — it checkpoints.
        for problem in problems[:SERVE_PROBLEMS_SHOWN]:
            print(f"  {problem}", file=sys.stderr)
        print(f"{len(problems)} problem(s) found — run 'repro recover' to "
              "repair before serving", file=sys.stderr)
        return 1
    db = LabBase(sm)
    bootstrap_schema(db)
    trace_sink = open(args.trace, "w") if args.trace else None
    tracer = UnitTracer(sink=trace_sink) if trace_sink else None
    service = LabFlowService(db, group_cap=args.group_cap, tracer=tracer)
    sample_sink = open(args.sample_log, "w") if args.sample_log else None
    runner = ServiceRunner(service, host=args.host, port=args.port)
    host, port = runner.start()
    print(f"serving {args.db or '<in-memory>'} [{args.server}] on "
          f"{host}:{port} "
          f"(group-commit cap {args.group_cap})")
    stop_sampling = None
    try:
        try:
            if sample_sink:
                from repro.obs.monitor import start_sample_log

                stop_sampling = start_sample_log(
                    host, port, interval=args.sample_interval, sink=sample_sink
                )
            if not args.smoke:
                try:
                    threading.Event().wait()
                except KeyboardInterrupt:
                    print("shutting down")
                return 0
            summary = run_concurrent_clients(
                host, port, clients=args.smoke, units=args.units
            )
            for name in sorted(summary):
                print(f"  {name}: {summary[name]}")
        finally:
            if stop_sampling is not None:
                stop_sampling()
            runner.stop()  # drains; this thread owns the service again
        stats = service.stats_snapshot()
        print(stats_report(
            stats, gauges_from(stats), title="smoke-run storage counters"
        ))
        report = db.verify_storage()
        if not report.ok:
            for problem in report.problems:
                print(f"  {problem}", file=sys.stderr)
            print("verify: FAILED", file=sys.stderr)
            return 1
        print("verify: OK")
        return 0
    finally:
        if sample_sink:
            sample_sink.close()
        if trace_sink:
            trace_sink.close()
        sm.close()


def cmd_monitor(args) -> int:
    from repro.errors import ReproError
    from repro.obs.monitor import monitor

    try:
        monitor(
            args.host,
            args.port,
            samples=args.samples,
            interval=args.interval,
            out=sys.stdout,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_query(args) -> int:
    program, db = _open_program(args.db)
    _print_solutions(program, args.goal, args.limit)
    db.storage.close()
    return 0


def cmd_shell(args) -> int:
    program, db = _open_program(args.db)
    print("LabBase deductive shell — end queries with '.', 'quit.' to exit")
    while True:
        try:
            line = input("?- ").strip()
        except (EOFError, KeyboardInterrupt):
            break
        if not line:
            continue
        if line in ("quit.", "quit", "halt."):
            break
        _print_solutions(program, line, args.limit)
    db.storage.close()
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LabFlow-1 workflow-management benchmark (EDBT 1996 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale(p):
        p.add_argument("--clones", type=int, default=15,
                       help="clones per 0.5X interval (default 15)")
        p.add_argument("--seed", type=int, default=1996)
        p.add_argument("--db-dir", default=None,
                       help="directory for database files (default: in-memory)")

    p = sub.add_parser("compare", help="the Section 10 five-server table")
    add_scale(p)
    p.add_argument("--servers", nargs="*", choices=SERVER_ORDER,
                   help="subset of server versions")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("run", help="run the stream on one server version")
    add_scale(p)
    p.add_argument("--server", choices=SERVER_ORDER, default="OStore")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("graph", help="print the workflow graph (Appendix B)")
    p.add_argument("--workflow", help="workflow DSL file (default: genome)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("eer", help="print the EER schema (Figure 1)")
    p.add_argument("--workflow", help="workflow DSL file (default: genome)")
    p.set_defaults(func=cmd_eer)

    p = sub.add_parser("demo", help="run a workflow and print lab reports")
    p.add_argument("--workflow", help="workflow DSL file (default: genome)")
    p.add_argument("--clones", type=int, default=10)
    p.add_argument("--seed", type=int, default=1996)
    p.add_argument("--db", default=None, help="persist the database here")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("record", help="record the benchmark stream to a trace file")
    p.add_argument("trace", help="output trace file (JSON lines)")
    p.add_argument("--clones", type=int, default=10)
    p.add_argument("--seed", type=int, default=1996)
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("replay", help="replay a trace onto a server version")
    p.add_argument("trace", help="trace file produced by 'record'")
    p.add_argument("--server", choices=SERVER_ORDER, default="OStore")
    p.add_argument("--db-dir", default=None)
    p.set_defaults(func=cmd_replay)

    persistent_servers = [cls.name for cls in SERVER_VERSIONS if cls.persistent]
    concurrent_servers = [cls.name for cls in SERVER_VERSIONS
                          if cls.supports_concurrency]

    p = sub.add_parser("verify", help="check a database file's integrity")
    p.add_argument("db", help="database file to check (read-only)")
    p.add_argument("--server", choices=persistent_servers,
                   default=persistent_servers[0],
                   help="store format of the file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("recover",
                       help="repair a database file after a crash")
    p.add_argument("db", help="database file to repair (rewritten)")
    p.add_argument("--server", choices=persistent_servers,
                   default=persistent_servers[0],
                   help="store format of the file")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("serve",
                       help="serve a database to concurrent socket clients")
    p.add_argument("db", nargs="?", default=None,
                   help="database file (created if missing; omitted = "
                        "in-memory)")
    p.add_argument("--server", choices=concurrent_servers,
                   default=concurrent_servers[0],
                   help="storage backend serving the sessions")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listening port (default 0 picks a free one)")
    p.add_argument("--group-cap", type=int, default=8,
                   help="update units that close a commit group (default 8; "
                        "1 = one storage commit per update unit)")
    p.add_argument("--checkpoint-every", type=int, default=1,
                   help="checkpoint cadence in commits (default 1)")
    p.add_argument("--smoke", type=int, default=0, metavar="N",
                   help="run N scripted concurrent clients, verify, and exit")
    p.add_argument("--units", type=int, default=24,
                   help="units per smoke client (default 24)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write unit-of-work span events here (JSONL)")
    p.add_argument("--sample-log", default=None, metavar="FILE",
                   help="write interval counter samples here (JSONL)")
    p.add_argument("--sample-interval", type=float, default=1.0,
                   help="seconds between interval samples (default 1.0)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("monitor",
                       help="attach to a running serve and stream live samples")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="port of the running 'repro serve'")
    p.add_argument("--samples", type=int, default=10,
                   help="observations to take before detaching (default 10)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between polls (default 1.0)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("query", help="run one deductive query on a database")
    p.add_argument("db", help="database file (ObjectStoreSM format)")
    p.add_argument("goal", help="the query, e.g. \"state(M, S).\"")
    p.add_argument("--limit", type=int, default=25)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("shell", help="interactive deductive shell")
    p.add_argument("db", help="database file (ObjectStoreSM format)")
    p.add_argument("--limit", type=int, default=25)
    p.set_defaults(func=cmd_shell)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

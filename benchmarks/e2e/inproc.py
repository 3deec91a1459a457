"""The in-process passes, each run in a fresh interpreter by ``run.py``.

``python inproc.py --workload W --seed S --scale F --mode M`` where M is

* ``replay``  — a served workload's first quarter, single-threaded, the
  two sessions alternating unit by unit through
  ``encode_request -> decode_request -> apply_request ->
  encode_response -> decode_response``;
* ``stream``  — the whole embedded E1 stream, with its end-to-end
  metrics and output checks;
* ``stream-quarter`` — the stream's first interval only;
* ``stream-setup`` — only what precedes the stream's first unit, so the
  caller can time a whole fresh interpreter doing it.

``--traced 1`` installs the spans of :mod:`spans` before anything of the
program is constructed.  One thread, no timers: for a given seed the
counts of a pass repeat exactly.  The result is one JSON object on the
last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Any, Callable

import paths

paths.add_src()

import gen  # noqa: E402
import metrics  # noqa: E402
from repro.benchmark import BenchmarkConfig, LabFlowWorkload  # noqa: E402
from repro.benchmark.servers import make_db, server_spec  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.labbase.database import LabBase  # noqa: E402
from repro.server import (  # noqa: E402
    LabFlowService,
    Request,
    Response,
    apply_request,
    bootstrap_schema,
    communicator,
)
from repro.storage.objectstore import ObjectStoreSM  # noqa: E402
from spans import WIRE_FUNCTIONS, Tracer, TraceSummary  # noqa: E402

UPDATE_CALLS = ("create_material", "record_step", "set_state")
TRANSACTION_CALLS = ("begin", "commit", "abort")
#: The in-process passes run the speed probe (and the stream reads its
#: own CPU time) once per this many units: about every tenth of a second.
PROBE_EVERY_UNITS = 256
#: The speed probe's own spans: booked to no layer of the program, and
#: taken out of the wall the layers are compared with.
PROBE_LAYER = "probe"
#: Layers a workload may not have at all; their metrics are then n/a.
OPTIONAL_LAYERS = ("wire", "service", "locks", "commit", "workflow", "stream")


# -- served workloads, replayed in-process -----------------------------------------


def replay_pass(
    spec: gen.ServedWorkload, seed: int, scale: float, workdir: str,
    tracer: Tracer | None,
) -> dict[str, Any]:
    path = os.path.join(workdir, "lab.db")
    preload = gen.build_database(path, spec.materials, seed)
    scripts = gen.make_scripts(spec, preload, seed, gen.scaled_units(spec, scale))
    warm = gen.warmup_units(len(scripts[0]))
    stop = gen.traced_units(len(scripts[0]))

    encode_request, decode_request, encode_response, decode_response = (
        spanned(tracer, "wire", name, getattr(communicator, name))
        for name in WIRE_FUNCTIONS
    )
    apply = spanned(tracer, "service", "apply_request", apply_request)

    if tracer is not None:
        tracer.reset()
    # What `repro serve DB` opens when given no knobs.
    sm = ObjectStoreSM(path, checkpoint_every=1)
    db = LabBase(sm)
    bootstrap_schema(db)
    service = LabFlowService(db)
    sessions = [f"c{client}" for client in range(gen.CLIENTS)]
    for session in sessions:
        apply(service, Request("open_session", session))

    def run(first: int, last: int) -> dict[str, Any]:
        timer = metrics.ProbedClock(spanned(tracer, PROBE_LAYER, "probe", metrics.probe))
        timer.run_probe()
        done_at = []
        failed = wrong = wire_bytes = 0
        for index in range(first, last):
            for client, session in enumerate(sessions):
                op, args, expected = scripts[client][index]
                if tracer is not None:
                    tracer.set_unit(index * gen.CLIENTS + client)
                line = encode_request(Request(op, session, args))
                request = decode_request(line)
                try:
                    response = Response(ok=True, value=apply(service, request))
                except ReproError as exc:
                    response = Response(
                        ok=False, error=str(exc), error_type=type(exc).__name__
                    )
                answer = encode_response(response)
                reply = decode_response(answer)
                wire_bytes += len(line) + len(answer)
                if not reply.ok:
                    failed += 1
                elif expected is not None and reply.value != expected:
                    wrong += 1
                done_at.append(timer.now())
                if len(done_at) % PROBE_EVERY_UNITS == 0:
                    timer.run_probe()
        parts = metrics.Segments.even(timer.started, done_at, timer.probes)
        return {
            "units": len(done_at), "failed": failed, "wrong": wrong,
            "wire_bytes": wire_bytes, "us_per_unit": parts.per_unit() * 1e6,
        }

    run(0, warm)
    before = sm.stats.snapshot()
    started_ns = time.perf_counter_ns()
    result = run(warm, stop)
    ended_ns = time.perf_counter_ns()
    result["stats"] = sm.stats.delta(before)
    if tracer is not None:
        tracer.set_unit(-1)
    service.shutdown()
    result["correct"] = sm.verify().ok and result["wrong"] == 0
    sm.close()

    if tracer is not None:
        summary = tracer.summarize(started_ns, ended_ns)
        units = result["units"]
        result["layers"] = layer_metrics(
            summary, result["stats"], units, ended_ns - started_ns
        )
        result["layers"]["wire.bytes_per_unit"] = result["wire_bytes"] / units
        result["layer_self_us"] = summary.layer_self_us()
    return result


def spanned(
    tracer: Tracer | None, layer: str, name: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    """``fn`` itself, or under the tracer ``fn`` as a span of ``layer``."""
    return fn if tracer is None else tracer.wrap(layer, name, fn)


# -- the embedded E1 stream ----------------------------------------------------------


class StreamProbe:
    """Instance shims that time the stream's units from outside.

    An update unit is ``LabBase.begin()`` to the return of ``commit()``;
    a query unit is one ``QueryRunner.run_random_query()``.  The clock
    starts when the warm-up blocks (an intake, its workflow steps and
    its queries) are done.
    """

    def __init__(
        self, workload: LabFlowWorkload, warm_blocks: int, tracer: Tracer | None
    ) -> None:
        #: per op class, (finished at, seconds) of every timed unit
        self.samples: dict[str, list[tuple[float, float]]] = {
            name: [] for name in ("update", "query", *metrics.STREAM_OPS)
        }
        self.units = 0
        self.mark: dict[str, Any] | None = None
        self.done_at: list[float] = []
        self.cpu: list[tuple[float, float]] = []
        self._stats = workload.db.storage.stats
        self._tracer = tracer
        self.timer = metrics.ProbedClock(spanned(tracer, PROBE_LAYER, "probe", metrics.probe))
        self._kind = ""
        self._began = 0.0
        warm_queries = warm_blocks * workload.config.queries_per_intake
        queries_seen = 0
        clock = self.timer.now
        db, engine, queries = workload.db, workload.engine, workload.queries
        begin, commit = db.begin, db.commit
        create, advance = engine.create_material, engine.advance
        run_query = queries.run_random_query

        def timed_begin() -> None:
            self._next_unit()
            self._kind = ""
            self._began = clock()
            begin()

        def timed_commit() -> None:
            commit()
            self._record(self._kind, "update", self._began, clock())

        def noting_create(class_name: str) -> int:
            self._kind = self._kind or "intake"
            return create(class_name)

        def noting_advance(material_oid: int) -> Any:
            self._kind = "step"
            return advance(material_oid)

        def timed_query() -> str:
            nonlocal queries_seen
            self._next_unit()
            started = clock()
            op_id = run_query()
            self._record(op_id, "query", started, clock())
            queries_seen += 1
            if queries_seen == warm_queries:
                self._start_clock()
            return op_id

        db.begin, db.commit = timed_begin, timed_commit  # type: ignore[method-assign]
        engine.create_material = noting_create  # type: ignore[method-assign]
        engine.advance = noting_advance  # type: ignore[method-assign]
        queries.run_random_query = timed_query  # type: ignore[method-assign]

    def _next_unit(self) -> None:
        self.units += 1
        if self._tracer is not None:
            self._tracer.set_unit(self.units)

    def _record(self, kind: str, group: str, started: float, ended: float) -> None:
        if self.mark is None:
            return
        sample = (ended, ended - started)
        self.samples[kind].append(sample)
        self.samples[group].append(sample)
        self.done_at.append(ended)
        if len(self.done_at) % PROBE_EVERY_UNITS == 0:
            self.timer.run_probe()
            self.sample_cpu()

    def sample_cpu(self) -> None:
        """Own CPU time so far, less what the probe burnt."""
        times = os.times()
        self.cpu.append(
            (self.timer.now(), times.user + times.system - self.timer.paused)
        )

    def _start_clock(self) -> None:
        self.timer.run_probe()   # even the shortest run has one
        self.sample_cpu()
        self.mark = {
            "seconds": self.cpu[0][0],
            "stats": self._stats.snapshot(),
            "ns": time.perf_counter_ns(),
        }


def stream_setup(
    seed: int, scale: float, workdir: str
) -> tuple[BenchmarkConfig, Any, LabBase, LabFlowWorkload]:
    """Everything before the stream's first unit."""
    config = BenchmarkConfig(
        clones_per_interval=gen.stream_clones(scale), seed=seed,
        db_dir=os.path.join(workdir, "db"),
    )
    sm, db = make_db(server_spec("OStore"), config)
    workload = LabFlowWorkload(db, config)
    workload.setup_schema()
    return config, sm, db, workload


def stream_pass(
    seed: int, scale: float, workdir: str, tracer: Tracer | None, whole: bool
) -> dict[str, Any]:
    config, sm, db, workload = stream_setup(seed, scale, workdir)
    # Warm-up is 5% of the whole four-interval script, as on the served
    # workloads, whether or not this pass goes past the first interval.
    warm_blocks = max(
        1, int(config.clones_per_interval * 4 * gen.WARMUP_SHARE)
    )
    if tracer is not None:
        tracer.reset()
    probe = StreamProbe(workload, warm_blocks, tracer)

    labels = config.interval_labels if whole else config.interval_labels[:1]
    interval_edges = [probe.timer.now()]
    interval_units = []
    for label in labels:
        tally = workload.run_interval(label)
        interval_edges.append(probe.timer.now())
        interval_units.append(tally.transactions + tally.queries_executed)
    ended_ns = time.perf_counter_ns()
    probe.sample_cpu()
    mark = probe.mark
    if mark is None:
        raise RuntimeError("stream too short: the warm-up never ended")
    if tracer is not None:
        tracer.set_unit(-1)
    units = len(probe.done_at)
    stats = sm.stats.delta(mark["stats"])
    probes = probe.timer.probes
    parts = metrics.Segments.even(mark["seconds"], probe.done_at, probes)
    cpu_at = [metrics.interpolate(probe.cpu, edge) for edge in parts.edges]
    intervals = metrics.Segments(
        interval_edges, interval_units, probes
    ).each_per_unit()
    result: dict[str, Any] = {
        "units": units, "stats": stats, "failed": 0,
        "us_per_unit": parts.per_unit() * 1e6,
        "cpu_ms_per_unit": parts.per_unit(cpu_at) * 1e3,
        "latency_s": {
            name: parts.latency(samples)
            for name, samples in probe.samples.items()
        },
        "interval_slowdown": intervals[-1] / intervals[0],
    }
    if tracer is not None:
        summary = tracer.summarize(mark["ns"], ended_ns)
        result["layers"] = layer_metrics(
            summary, stats, units, ended_ns - mark["ns"]
        )
        result["layer_self_us"] = summary.layer_self_us()

    problems = []
    if whole:
        try:
            scanned = workload.check_integrity()
        except AssertionError as exc:
            problems.append(f"check_integrity: {exc}")
            scanned = {}
        if not db.verify_storage().ok:
            problems.append("verify_storage() reported problems before close")
    result["rss_mib"] = metrics.peak_rss_mib()
    sm.close()
    result["db_mib"] = gen.database_bytes(sm_path(config)) / 2**20
    if whole:
        reopened_sm, reopened = make_db(server_spec("OStore"), config)
        try:
            if not reopened.verify_storage().ok:
                problems.append("verify_storage() reported problems after reopen")
            materials = sum(1 for _ in reopened.iter_materials())
            if materials != scanned.get("materials"):
                problems.append(
                    f"reopen found {materials} materials, the run had "
                    f"{scanned.get('materials')}"
                )
        finally:
            reopened_sm.close()
    result["problems"] = problems
    result["correct"] = not problems
    return result


def sm_path(config: BenchmarkConfig) -> str:
    """The page file ``ServerSpec.make`` created under ``config.db_dir``."""
    assert config.db_dir is not None
    (name,) = [n for n in os.listdir(config.db_dir) if n.endswith(".db")]
    return os.path.join(config.db_dir, name)


# -- per-layer metrics from one traced pass -----------------------------------------


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    summary: TraceSummary, stats: dict[str, int], units: int, window_ns: int
) -> dict[str, float | None]:
    """Every per-layer metric one traced pass can give on its own."""
    per_unit = 1.0 / units
    per_kunit = 1000.0 / units
    layer_us = summary.layer_self_us()
    wall_ns = window_ns - layer_us.pop(PROBE_LAYER, 0.0) * 1e3

    def self_per_unit(layer: str, names: tuple[str, ...] | None = None) -> float:
        if names is None:
            return layer_us.get(layer, 0.0) * per_unit
        return summary.self_us(layer, names) * per_unit

    def mean_us(durations: list[int]) -> float:
        return ratio(sum(durations), len(durations)) / 1e3

    lock_attempts = summary.layer_entries("locks", ("lock_object", "lock_objects"))
    labbase_entries = {
        name.rsplit(".", 1)[-1]: summary.entries[fid]
        for fid, (layer, name) in enumerate(summary.functions)
        if layer == "labbase"
    }
    update_calls = [
        duration for name in UPDATE_CALLS
        for duration, _unit in labbase_entries.get(name, ())
    ]
    query_calls = [
        duration for name, entries in labbase_entries.items()
        if name not in UPDATE_CALLS + TRANSACTION_CALLS
        for duration, _unit in entries
    ]
    closes = sorted(
        duration for duration, _unit in summary.layer_entries("commit", ("close",))
    )
    storage_commits = summary.call_count("storage", ("commit",))
    encoded = stats["records_fast_path"] + stats["records_fallback"]
    values = {
        "wire.bytes_per_unit": 0.0,   # the replay loop counts them itself
        "wire.codec_us_per_unit": self_per_unit("wire"),
        "service.self_us_per_unit": self_per_unit("service"),
        # One lock acquisition per attempt at a unit: every attempt
        # beyond a unit's first is a retry after a conflict.
        "service.retries_per_kunit": (
            len(lock_attempts) - len({unit for _ns, unit in lock_attempts})
        ) * per_kunit,
        "locks.self_us_per_unit": self_per_unit("locks"),
        "locks.acquisitions_per_unit": stats["lock_acquisitions"] * per_unit,
        "locks.waits_per_kunit": stats["lock_waits"] * per_kunit,
        "commit.self_us_per_unit": self_per_unit("commit"),
        "commit.group_width": ratio(
            stats["sessions_per_group"], stats["group_commits"]
        ),
        "commit.stalls_per_kunit": stats["commit_stalls"] * per_kunit,
        "commit.close_ms_p50": (
            metrics.percentile(closes, 0.5) / 1e6 if closes else 0.0
        ),
        "labbase.self_us_per_unit": self_per_unit("labbase"),
        "labbase.update_us_per_call": mean_us(update_calls),
        "labbase.query_us_per_call": mean_us(query_calls),
        "objcache.self_us_per_unit": self_per_unit("objcache"),
        "objcache.hit_ratio": ratio(
            stats["cache_hits"], stats["cache_hits"] + stats["cache_misses"]
        ),
        "objcache.coalesce_ratio": ratio(
            stats["cache_coalesced"],
            stats["cache_coalesced"] + stats["objects_written"],
        ),
        "objcache.evictions_per_kunit": stats["cache_evictions"] * per_kunit,
        "storage.self_us_per_unit": self_per_unit("storage"),
        "storage.commit_self_ms_per_commit": ratio(
            summary.self_us("storage", ("commit",)) / 1e3, storage_commits
        ),
        "storage.objects_read_per_unit": stats["objects_read"] * per_unit,
        "storage.objects_written_per_unit": stats["objects_written"] * per_unit,
        "codec.encode_us_per_unit": self_per_unit("codec", ("encode",)),
        "codec.decode_us_per_unit": self_per_unit("codec", ("decode",)),
        "codec.fast_path_ratio": ratio(stats["records_fast_path"], encoded),
        "codec.bytes_per_record": ratio(
            stats["bytes_written"], stats["objects_written"]
        ),
        "buffer.self_us_per_unit": self_per_unit("buffer"),
        "buffer.hit_ratio": ratio(
            stats["buffer_hits"], stats["buffer_hits"] + stats["major_faults"]
        ),
        "buffer.faults_per_kunit": stats["major_faults"] * per_kunit,
        "buffer.prefetch_absorption": ratio(
            stats["prefetch_hits"], stats["prefetch_hits"] + stats["major_faults"]
        ),
        "pagefile.read_us_per_unit": self_per_unit(
            "pagefile", ("read_page", "read_pages")
        ),
        "pagefile.write_us_per_unit": self_per_unit(
            "pagefile", ("write_page", "write_pages")
        ),
        "pagefile.sync_us_per_unit": self_per_unit("pagefile", ("sync",)),
        "pagefile.meta_us_per_unit": self_per_unit("pagefile", ("write_meta",)),
        "pagefile.page_writes_per_unit": stats["page_writes"] * per_unit,
        "pagefile.io_batches_per_kunit": stats["io_batches"] * per_kunit,
        "pagefile.syncs_per_kunit": (
            summary.call_count("pagefile", ("sync",)) * per_kunit
        ),
        "pagefile.meta_bytes_per_commit": ratio(
            stats["meta_bytes_written"], stats["commits"]
        ),
        "workflow.self_us_per_unit": self_per_unit("workflow"),
        "stream.query_self_us_per_unit": self_per_unit(
            "stream", ("run_random_query",)
        ),
        "trace.coverage": sum(layer_us.values()) * 1e3 / wall_ns,
    }
    idle = {layer for layer in OPTIONAL_LAYERS if not summary.call_count(layer)}
    return {
        name: None if name.split(".")[0] in idle else value
        for name, value in values.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOAD_NAMES)
    parser.add_argument("--mode", required=True,
                        choices=("replay", "stream", "stream-quarter",
                                 "stream-setup"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    with paths.scratch_dir(f"{args.workload}-{args.mode}") as workdir:
        if args.mode == "replay":
            result = replay_pass(
                gen.SERVED[args.workload], args.seed, args.scale, workdir, tracer
            )
        elif args.mode == "stream-setup":
            stream_setup(args.seed, args.scale, workdir)[1].close()
            result = {}
        else:
            result = stream_pass(
                args.seed, args.scale, workdir, tracer,
                whole=args.mode == "stream",
            )
    if tracer is not None:
        tracer.dump(
            str(paths.OUT / f"{args.workload}.trace.json"),
            {
                "workload": args.workload, "seed": args.seed,
                "scale": args.scale, "units": result["units"],
                "layer_self_us": result["layer_self_us"],
            },
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

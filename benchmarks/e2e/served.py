"""The served, untraced pass: two closed-loop stations against `repro serve`.

The server is the shipped command with no knobs, in its own process.
The generator is this process: one thread and one socket connection per
station, each waiting for its reply before it sends its next unit.  The
first 5% of each script runs before the clock starts.  After the clock
stops the outputs are checked: every answer that could be known
beforehand, a ``drain`` and ``verify`` through the wire, and then —
after a SIGKILL, so nothing the server still held in memory can help —
a cold reopen of the file in this process, compared against exactly the
units the server acknowledged.
"""

from __future__ import annotations

import os
import random
import re
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any

import gen
import metrics
import paths
from repro.errors import ReproError
from repro.labbase.database import LabBase
from repro.server import ServiceClient
from repro.storage.objectstore import ObjectStoreSM

#: Materials whose history and most-recent value the cold reopen checks.
REOPEN_SAMPLE = 200
#: How often the generator's main thread reads the server's CPU time
#: and runs the speed probe.
SAMPLE_SECONDS = 0.1
_ADDRESS = re.compile(rb" on ([0-9.]+):(\d+) ")


#: Stands in for the answer of a unit the server refused.
REFUSED = object()


class Server:
    """``python -m repro serve DB --port 0`` as a subprocess."""

    def __init__(self, db_path: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", db_path, "--port", "0"],
            stdout=subprocess.PIPE, env=paths.child_env(),
        )
        try:
            assert self.process.stdout is not None
            ready, _, _ = select.select([self.process.stdout], [], [], 60)
            banner = self.process.stdout.readline() if ready else b""
            match = _ADDRESS.search(banner)
            if match is None:
                raise RuntimeError(f"server did not announce a port: {banner!r}")
        except BaseException:
            self.kill()
            raise
        self.host = match.group(1).decode()
        self.port = int(match.group(2))

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.process.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        return metrics.peak_rss_mib(self.process.pid)

    def kill(self) -> None:
        """SIGKILL, and wait until the process is gone."""
        self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class Station:
    """A built database, its server, and the connected clients."""

    def __init__(self, spec: gen.ServedWorkload, seed: int, workdir: str) -> None:
        started = time.perf_counter()
        self.workdir = workdir
        os.makedirs(workdir)
        self.path = os.path.join(workdir, "lab.db")
        self.preload = gen.build_database(self.path, spec.materials, seed)
        self.server = Server(self.path)
        self.clients: list[ServiceClient] = []
        try:
            for client in range(gen.CLIENTS):
                self.clients.append(
                    ServiceClient(self.server.host, self.server.port, f"c{client}")
                )
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - started

    def close(self) -> None:
        self.server.kill()
        for client in self.clients:
            client.close()   # the peer is dead: this only closes our socket


def drive(
    client: ServiceClient, script: list[gen.Unit], first: int, last: int,
    latency: list[float], done_at: list[float], answers: list[Any],
) -> None:
    """Send units ``first..last`` one after the other, timing each."""
    call = client.call_with_retry
    clock = time.perf_counter
    for index in range(first, last):
        op, args, _expected = script[index]
        started = clock()
        try:
            value = call(op, **args)
        except ReproError:
            value = REFUSED
        done_at[index] = finished = clock()
        latency[index] = finished - started
        # An in_state answer lists a third of the database: keep its size.
        answers[index] = len(value) if type(value) is list else value


@dataclass
class StationLog:
    """What the generator saw: per client and unit, and the server's CPU."""

    started: float
    latency: list[list[float]]
    done_at: list[list[float]]
    answers: list[list[Any]]
    cpu: list[tuple[float, float]]      # (time, server cpu seconds so far)
    probes: list[tuple[float, float]]   # (time, speed-probe seconds)


def run_stations(
    server: Server, clients: list[ServiceClient], scripts: list[list[gen.Unit]],
    warm: int,
) -> tuple[StationLog, dict[str, int]]:
    """Warm up, start the clock while both stations wait, run the timed
    part; returns the log and the server's counters at the clock's start."""
    count = len(scripts[0])
    log = StationLog(
        started=0.0,
        latency=[[0.0] * count for _ in clients],
        done_at=[[0.0] * count for _ in clients],
        answers=[[None] * count for _ in clients],
        cpu=[],
        probes=[],
    )
    barrier = threading.Barrier(len(clients) + 1)
    errors: list[BaseException] = []

    def station(which: int) -> None:
        columns = (log.latency[which], log.done_at[which], log.answers[which])
        try:
            drive(clients[which], scripts[which], 0, warm, *columns)
            barrier.wait()   # every station is warm
            barrier.wait()   # the clock has started
            drive(clients[which], scripts[which], warm, count, *columns)
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=station, args=(which,), name=f"station-{which}")
        for which in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    stats_before: dict[str, int] = {}
    try:
        barrier.wait()
        stats_before = clients[0].stats()
        log.probes.append((time.perf_counter(), metrics.probe()))
        log.started = time.perf_counter()
        log.cpu.append((log.started, server.cpu_seconds()))
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    while any(thread.is_alive() for thread in threads):
        time.sleep(SAMPLE_SECONDS)
        log.probes.append((time.perf_counter(), metrics.probe()))
        log.cpu.append((time.perf_counter(), server.cpu_seconds()))
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"a station died: {errors[0]!r}") from errors[0]
    return log, stats_before


def check_answers(
    spec: gen.ServedWorkload, scripts: list[list[gen.Unit]],
    answers: list[list[Any]],
) -> list[str]:
    """Every answer that was decidable when the script was generated."""
    problems = []
    for which, (script, got) in enumerate(zip(scripts, answers)):
        # A client's model of its own half holds only while every one of
        # its updates was acknowledged; key lookups never depend on that.
        trusted = True
        for index, ((op, _args, expected), answer) in enumerate(zip(script, got)):
            if answer is REFUSED:
                trusted = trusted and op not in gen.UPDATE_OPS
                continue
            if op == "in_state" and not isinstance(answer, int):
                problems.append(f"c{which} unit {index}: in_state gave no list")
            if expected is None or not (trusted or op == "lookup"):
                continue
            if answer != expected:
                problems.append(
                    f"c{which} unit {index}: {op} answered {answer!r}, "
                    f"expected {expected!r}"
                )
    return problems


def check_reopened(
    path: str, preload: gen.Preload, scripts: list[list[gen.Unit]],
    answers: list[list[Any]], seed: int,
) -> list[str]:
    """Cold-reopen the killed server's file and compare a seeded sample
    of materials with what the acknowledged units imply."""
    acknowledged = [
        [answer is not REFUSED for answer in got] for got in answers
    ]
    lengths, values = gen.final_state(preload, scripts, acknowledged)
    sample = random.Random(f"labflow-e2e-reopen-{seed}").sample(
        range(len(preload.oids)), min(REOPEN_SAMPLE, len(preload.oids))
    )
    problems = []
    sm = ObjectStoreSM(path)
    try:
        problems += [f"reopen: {problem}" for problem in sm.open_problems()]
        problems += [f"reopen verify: {p}" for p in sm.verify().problems]
        db = LabBase(sm)
        for index in sample:
            oid = preload.oids[index]
            history = len(db.material_history(oid))
            recent = db.most_recent(oid, "value")
            if history != lengths[index] or recent != values[index]:
                problems.append(
                    f"reopen: material {preload.keys[index]} has {history} "
                    f"steps, value {recent!r}; acknowledged units imply "
                    f"{lengths[index]}, {values[index]!r}"
                )
    finally:
        sm.close()
    return problems


def served_pass(
    spec: gen.ServedWorkload, seed: int, scale: float, setups: int,
    tamper: bool = False,
) -> dict[str, Any]:
    """One untraced run of a served workload, checked."""
    with paths.scratch_dir(spec.name) as workdir:
        setup_seconds = []
        for attempt in range(setups):
            station = Station(spec, seed, os.path.join(workdir, f"db{attempt}"))
            setup_seconds.append(station.setup_seconds)
            if attempt < setups - 1:
                station.close()
                shutil.rmtree(station.workdir)
        try:
            result = measure_station(spec, seed, scale, station, tamper)
        finally:
            station.close()
        result["setup_s"] = setup_seconds
        return result


def measure_station(
    spec: gen.ServedWorkload, seed: int, scale: float, station: Station,
    tamper: bool = False,
) -> dict[str, Any]:
    """Drive both stations through their scripts, then check and kill."""
    server, clients, preload = station.server, station.clients, station.preload
    scripts = gen.make_scripts(spec, preload, seed, gen.scaled_units(spec, scale))
    count = len(scripts[0])
    warm = gen.warmup_units(count)
    if tamper:
        # Self-test only: spoil the first checkable expectation.
        index = next(i for i, unit in enumerate(scripts[0]) if unit[2] is not None)
        op, args, expected = scripts[0][index]
        scripts[0][index] = (op, args, f"not {expected!r}")

    log, stats_before = run_stations(server, clients, scripts, warm)
    answers = log.answers
    problems = []
    clients[0].drain()
    if not clients[0].verify_ok():
        problems.append("the verify op reported problems")
    stats = clients[0].stats()
    rss_mib = server.peak_rss_mib()
    server.kill()
    db_bytes = gen.database_bytes(station.path)

    problems += check_answers(spec, scripts, answers)
    problems += check_reopened(station.path, preload, scripts, answers, seed)

    samples: dict[str, list[tuple[float, float]]] = {
        name: [] for name in ("update", "query", *metrics.SERVED_OPS)
    }
    finished = []
    failed = 0
    for script, latency, done_at, got in zip(
        scripts, log.latency, log.done_at, answers
    ):
        finished += done_at[warm:]
        for index in range(warm, count):
            op = script[index][0]
            if got[index] is REFUSED:
                failed += 1
                continue
            sample = (done_at[index], latency[index])
            samples[op].append(sample)
            samples["update" if op in gen.UPDATE_OPS else "query"].append(sample)
    parts = metrics.Segments.even(log.started, finished, log.probes)
    cpu_at = [metrics.interpolate(log.cpu, edge) for edge in parts.edges]
    return {
        "units": len(finished),
        "us_per_unit": parts.per_unit() * 1e6,
        "failed": failed,
        "stats": {
            name: stats[name] - stats_before.get(name, 0) for name in stats
        },
        "cpu_ms_per_unit": parts.per_unit(cpu_at) * 1e3,
        "rss_mib": rss_mib,
        "db_mib": db_bytes / 2**20,
        "latency_s": {
            name: parts.latency(values)
            for name, values in samples.items()
        },
        "problems": problems,
        "correct": not problems,
    }

"""Self-test of the instrument: ``pytest benchmarks/e2e`` (under 30 s).

It runs the benchmark at ``--scale 0.02`` and shows that it reports what
``BENCHMARK.json`` declares, that its trace adds up, that its counts
repeat, and — the part a benchmark most needs — that it can fail.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
import gen  # noqa: E402
import metrics  # noqa: E402
import paths  # noqa: E402
import served  # noqa: E402

SCALE = "0.02"
SEED = "41"


def run_py(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", SCALE, "--seed", SEED,
         "--setups", "1", *args],
        cwd=paths.ROOT, capture_output=True, text=True, timeout=120,
    )


def driver_line(workload: str, trace: int) -> dict:
    done = run_py("--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((paths.ROOT / "BENCHMARK.json").read_text())


def test_manifest_is_what_the_benchmark_declares(manifest):
    assert manifest == metrics.manifest()
    assert [w["name"] for w in manifest["workloads"]] == list(gen.WORKLOAD_NAMES)
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


@pytest.mark.parametrize("workload", ["served_mix_hot", "stream_e1"])
def test_every_declared_metric_is_emitted_and_nothing_else(manifest, workload):
    for trace, block in ((0, "end_to_end"), (1, "per_layer")):
        result = driver_line(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in manifest[block]}
        emitted = {n: m["unit"] for n, m in result["metrics"].items()}
        assert emitted == declared
        values = {n: m["value"] for n, m in result["metrics"].items()}
        if trace == 0:
            assert all(value > 0 for value in values.values()), values
        else:
            # Layer self times are exclusive: they cannot add up to more
            # than the wall they were cut from, and must cover most of it.
            assert 0.90 <= values["trace.coverage"] <= 1.0
            served_only = ("wire.codec_us_per_unit", "service.self_us_per_unit")
            for name in served_only:
                assert (values[name] > 0) == (workload != "stream_e1")
            assert (values["workflow.self_us_per_unit"] > 0) == (
                workload == "stream_e1"
            )


def test_traced_counts_repeat_exactly():
    passes = [
        run.worker("served_mix_hot", "replay", int(SEED), float(SCALE), traced=True)
        for _ in range(2)
    ]
    assert passes[0]["stats"] == passes[1]["stats"]
    counts = [
        {name: value for name, value in done["layers"].items()
         if metrics.UNITS[name] in ("count", "B", "1") and name != "trace.coverage"}
        for done in passes
    ]
    assert counts[0] == counts[1]
    assert counts[0]["locks.waits_per_kunit"] > 0


def test_a_refused_unit_counts_as_failed():
    spec = gen.SERVED["served_mix_hot"]
    with paths.scratch_dir("selftest") as workdir:
        station = served.Station(spec, int(SEED), os.path.join(workdir, "db"))
        try:
            # The server never opened this session: it refuses every unit.
            station.clients[0].session = "nobody"
            result = served.measure_station(spec, int(SEED), float(SCALE), station)
        finally:
            station.close()
    assert result["failed"] == result["units"] // gen.CLIENTS
    assert result["failed"] / result["units"] > 0


def test_a_wrong_answer_fails_the_run():
    done = run_py("--workload", "served_mix_hot", "--trace", "0", "--tamper")
    assert done.returncode != 0
    assert "WRONG" in done.stdout
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False


def test_recorded_numbers_separate_the_layers():
    """The workloads stress different layers, as README.md predicts."""
    recorded = json.loads((HERE / "baseline.json").read_text())["workloads"]

    def median(workload: str, name: str) -> float:
        return recorded[workload][name].get("median", 0.0)

    hot, large = "served_mix_hot", "served_mix_large"
    read, stream = "served_read_large", "stream_e1"
    meta = "pagefile.meta_bytes_per_commit"
    assert median(large, meta) >= 10 * median(hot, meta) > 0
    assert not median(read, meta) and not median(stream, meta)
    faults = "buffer.faults_per_kunit"
    assert median(read, faults) >= 10 * median(hot, faults)
    stalls = "commit.stalls_per_kunit"
    assert median(hot, stalls) >= 10 * median(large, stalls)
    assert median(hot, stalls) > 0
    assert all(
        recorded[stream][name]["n"] == 0
        for name in recorded[stream] if name.startswith("wire.")
    )
    for workload in recorded:
        assert recorded[workload]["trace.coverage"]["median"] >= 0.90
        assert recorded[workload]["failed_share"]["median"] == 0

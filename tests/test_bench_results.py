"""The committed bench results hold nothing a re-run could move.

CI's bench-smoke job re-runs the benches over the tracked
``benchmarks/results/*.json`` files and fails on any ``git diff`` of
them, so a payload may carry counts, ratios of counts and booleans only.
A timing put back into a payload would fail that gate on every run;
this test catches it without running a bench.

Every gated payload is also recomputed here, at its bench's own small
scale, and compared with the committed file (nothing is written), so a
change that moves one of their counts fails tier-1 until the bench is
re-run and its file committed.
"""

import importlib
import json
import os
import subprocess

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(REPO, "benchmarks")

_TIMING_SUFFIXES = ("_us", "_ms", "_sec", "_seconds", "_ns")


def _tracked_results() -> list[str]:
    try:
        listed = subprocess.run(
            ["git", "ls-files", "--", "benchmarks/results/*.json"],
            cwd=REPO, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    return listed.stdout.split()


def _keys(node: object):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)


def test_committed_bench_results_parse_and_hold_no_timings():
    paths = _tracked_results()
    assert paths, "no bench results are committed"
    for path in paths:
        with open(os.path.join(REPO, path)) as handle:
            payload = json.load(handle)
        timings = [
            key for key in _keys(payload)
            if key.endswith(_TIMING_SUFFIXES) or "speedup" in key
        ]
        assert not timings, f"{path} records timings: {timings}"


def _bench(module: str, monkeypatch):
    """Import one bench module from ``benchmarks/`` without running it."""
    monkeypatch.syspath_prepend(BENCHMARKS)
    return importlib.import_module(module)


def _committed(name: str) -> object:
    with open(os.path.join(BENCHMARKS, "results", f"{name}.json")) as handle:
        return json.load(handle)


def test_a1_payload_matches_a_fresh_ablation(monkeypatch):
    a1 = _bench("bench_a1_most_recent_index", monkeypatch)
    ablation = {"on": a1._run(True), "off": a1._run(False)}
    assert a1._payload(ablation) == _committed("a1_most_recent_index")


def test_a2_payload_matches_a_fresh_sweep(tmp_path, monkeypatch):
    a2 = _bench("bench_a2_buffer_sweep", monkeypatch)
    assert a2._payload(a2._sweep(str(tmp_path))) == _committed("a2_buffer_sweep")


def test_a4_payload_matches_a_fresh_ablation(monkeypatch):
    a4 = _bench("bench_a4_object_cache", monkeypatch)
    on, _on_us = a4._run(a4.DEFAULT_CACHE_OBJECTS)
    off, _off_us = a4._run(0)
    assert {"on": on, "off": off} == _committed("a4_object_cache")


def test_a5_payload_matches_a_fresh_ablation(monkeypatch):
    a5 = _bench("bench_a5_readahead", monkeypatch)
    ablation = {
        name: {"on": a5._run(cls, a5.DEFAULT_READAHEAD_PAGES), "off": a5._run(cls, 0)}
        for name, cls in a5._SERVERS
    }
    assert a5._payload(ablation) == _committed("a5_readahead")


def test_a6_payload_matches_a_fresh_sweep(monkeypatch):
    a6 = _bench("bench_a6_group_commit", monkeypatch)
    runs = {
        (sessions, group): a6._run(sessions, group)[0]
        for sessions in a6._SESSION_COUNTS
        for group in (True, False)
    }
    payload = a6._payload(runs, a6._run_contended())
    assert payload == _committed("a6_group_commit")


def test_a8_payload_matches_a_fresh_run_of_both_codecs(monkeypatch):
    a8 = _bench("bench_a8_codec", monkeypatch)
    # The repeats only pick the fastest stream; every one counts the same.
    monkeypatch.setattr(a8, "_STREAM_REPEATS", 1)
    labf, _labf_us = a8._run("labf")
    pickled, _pickle_us = a8._run("pickle")
    fast = len(a8._fast_records(a8._capture_stream_records()))
    assert a8._payload(labf, pickled, fast) == _committed("a8_codec")


def test_e5_payload_matches_a_fresh_fault_profile(tmp_path, monkeypatch):
    e5 = _bench("bench_e5_locality", monkeypatch)
    profile = e5._fault_profile(str(tmp_path))
    assert e5._payload(profile) == _committed("e5_locality")


def test_e6_payload_matches_a_fresh_load(tmp_path, monkeypatch):
    e6 = _bench("bench_e6_db_size", monkeypatch)
    sizes = {server: e6._load(server, str(tmp_path)) for server in e6._SERVERS}
    assert e6._payload(sizes) == _committed("e6_db_size")


def test_e8_payload_matches_fresh_operation_counts(monkeypatch):
    e8 = _bench("bench_e8_operation_mix", monkeypatch)
    assert e8._operation_counts() == _committed("e8_operation_mix")

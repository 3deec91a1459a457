"""Tests for the observability layer (repro.obs).

Covers the metric registry's formulas against hand-computed values,
snapshot/delta/reset under an attached object cache, byte-identical
sampler and tracer JSONL under an injected clock (including a
hypothesis replay property), the served ``sample`` op and the live
monitor over a real socket, and the zero-overhead guarantee (sampling
on/off produces bit-identical databases and identical answers).
"""

import filecmp
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServerError
from repro.labbase import LabBase
from repro.obs import (
    DERIVED_METRICS,
    IntervalSampler,
    ManualClock,
    UnitTracer,
    gauges_from,
    metric,
    sample_from_snapshots,
)
from repro.obs.monitor import monitor, render_sample_table
from repro.server import (
    LabFlowService,
    LocalClient,
    ServiceClient,
    ServiceRunner,
    bootstrap_schema,
)
from repro.storage import ObjectStoreSM
from repro.storage.stats import STAT_FIELDS, StorageStats

# -- clock ------------------------------------------------------------------


def test_manual_clock_is_deterministic():
    clock = ManualClock(start=10.0, step=0.5)
    assert [clock(), clock(), clock()] == [10.0, 10.5, 11.0]
    clock.advance(2.0)
    assert clock() == 13.5
    replay = ManualClock(start=10.0, step=0.5)
    assert [replay() for _ in range(3)] == [10.0, 10.5, 11.0]


# -- registry ---------------------------------------------------------------


def test_registry_reads_only_declared_counters():
    declared = set(STAT_FIELDS)
    seen = set()
    for spec in DERIVED_METRICS:
        assert spec.name not in seen
        seen.add(spec.name)
        assert spec.numerator in declared
        assert set(spec.denominator) <= declared


def test_metric_lookup():
    assert metric("hit_ratio").numerator == "buffer_hits"
    with pytest.raises(KeyError):
        metric("no_such_gauge")


def test_gauges_default_on_zero_denominator():
    gauges = gauges_from({})
    for spec in DERIVED_METRICS:
        assert gauges[spec.name] == spec.default


def test_gauge_properties_match_registry():
    """Every registered formula against a hand-computed value (a gauge
    added to the registry must be added here)."""
    stats = StorageStats()
    stats.buffer_hits = 30
    stats.major_faults = 10
    stats.prefetch_hits = 5
    stats.cache_hits = 8
    stats.cache_misses = 2
    stats.cache_coalesced = 4
    stats.objects_written = 12
    stats.group_commits = 3
    stats.sessions_per_group = 9
    stats.commit_stalls = 1
    stats.records_fast_path = 6
    stats.records_fallback = 2
    assert gauges_from(stats.snapshot()) == pytest.approx({
        "hit_ratio": 30 / 40,
        "cache_hit_ratio": 8 / 10,
        "prefetch_absorption": 5 / 15,
        "coalesce_ratio": 4 / 16,
        "group_width": 9 / 3,
        "commit_stall_ratio": 1 / 3,
        "fast_path_ratio": 6 / 8,
    })


# -- StorageStats under an attached object cache ----------------------------


def test_snapshot_delta_reset_with_object_cache():
    sm = ObjectStoreSM(buffer_pages=64)
    db = LabBase(sm, object_cache=128)
    db.define_material_class("m")
    db.define_step_class("s", ["a"], ["m"])
    oid = db.create_material("m", "m-0", 1)
    before = sm.stats.snapshot()
    assert set(before) == set(STAT_FIELDS)
    db.record_step("s", 2, [oid], {"a": 1})
    for _ in range(3):
        db.most_recent(oid, "a")
    after = sm.stats.snapshot()
    delta = sm.stats.delta(before)
    assert set(delta) == set(STAT_FIELDS)
    for name in STAT_FIELDS:
        assert delta[name] == after[name] - before[name]
    assert after["cache_hits"] > 0  # the cache served repeat reads
    assert gauges_from(delta)["cache_hit_ratio"] > 0.0
    sm.stats.reset()
    assert all(value == 0 for value in sm.stats.snapshot().values())
    sm.close()


# -- sampler determinism ----------------------------------------------------


def _scripted_source(frames):
    iterator = iter(frames)
    return lambda: next(iterator)


_FRAMES = [
    {"buffer_hits": 0, "major_faults": 0, "group_commits": 0},
    {"buffer_hits": 40, "major_faults": 10, "group_commits": 2},
    {"buffer_hits": 90, "major_faults": 10, "group_commits": 5},
]


def _sampled_jsonl(frames):
    sink = io.StringIO()
    sampler = IntervalSampler(
        _scripted_source(frames), clock=ManualClock(start=1.0, step=0.25), sink=sink
    )
    for _ in frames:
        sampler.sample()
    return sink.getvalue(), sampler.samples


def test_sampler_jsonl_is_byte_identical_across_replays():
    first, samples = _sampled_jsonl(_FRAMES)
    second, _ = _sampled_jsonl(_FRAMES)
    assert first == second
    lines = first.splitlines()
    assert len(lines) == len(_FRAMES)
    for line in lines:
        decoded = json.loads(line)
        assert decoded == json.loads(json.dumps(decoded, sort_keys=True))


def test_sampler_gauges_are_per_interval():
    _text, samples = _sampled_jsonl(_FRAMES)
    assert samples[0].dt == 0.0 and samples[1].dt == 0.25
    # second interval: 50 hits, 0 faults -> interval hit ratio 1.0
    assert samples[2].delta["buffer_hits"] == 50
    assert samples[2].gauges["hit_ratio"] == 1.0
    # first real interval: 40 hits / 10 faults
    assert samples[1].gauges["hit_ratio"] == pytest.approx(0.8)


@settings(max_examples=25, deadline=None)
@given(
    increments=st.lists(
        st.fixed_dictionaries(
            {
                "buffer_hits": st.integers(min_value=0, max_value=1000),
                "major_faults": st.integers(min_value=0, max_value=1000),
                "group_commits": st.integers(min_value=0, max_value=50),
            }
        ),
        min_size=1,
        max_size=8,
    )
)
def test_sampler_replay_property(increments):
    frames = []
    totals = {"buffer_hits": 0, "major_faults": 0, "group_commits": 0}
    for step in increments:
        totals = {name: totals[name] + step[name] for name in totals}
        frames.append(dict(totals))
    first, samples = _sampled_jsonl(frames)
    second, _ = _sampled_jsonl(frames)
    assert first == second  # byte-identical under the injected clock
    summed = {name: 0 for name in totals}
    for sample in samples:
        for name in summed:
            summed[name] += sample.delta[name]
    assert summed == totals  # deltas partition the cumulative counters


# -- tracer determinism -----------------------------------------------------


def _traced_jsonl():
    sink = io.StringIO()
    tracer = UnitTracer(clock=ManualClock(start=0.0, step=0.001), sink=sink)
    tracer.unit_begin("alice", "record_step")
    tracer.lock_wait("alice", "record_step")
    tracer.unit_end(
        "alice",
        "record_step",
        lock_seconds=0.002,
        exec_seconds=0.004,
        drain_seconds=0.0005,
    )
    tracer.group_flush(width=2, units=3)
    tracer.abort("bob", "set_state", error_type="LockError")
    return sink.getvalue(), tracer


def test_tracer_jsonl_is_byte_identical_across_replays():
    first, tracer = _traced_jsonl()
    second, _ = _traced_jsonl()
    assert first == second
    assert first == tracer.jsonl()
    events = [json.loads(line) for line in first.splitlines()]
    assert [event["event"] for event in events] == [
        "unit_begin", "lock_wait", "unit_end", "group_flush", "abort",
    ]
    assert [event["seq"] for event in events] == list(range(5))


def test_tracer_histograms_and_summary():
    _text, tracer = _traced_jsonl()
    summary = tracer.summary()
    assert summary["events"] == 5
    assert summary["by_event"] == {
        "unit_begin": 1, "lock_wait": 1, "unit_end": 1,
        "group_flush": 1, "abort": 1,
    }
    histograms = summary["histograms"]
    assert set(histograms) == {"lock", "exec", "drain"}
    assert histograms["exec"]["total"] == 1
    assert histograms["exec"]["sum_seconds"] == pytest.approx(0.004)


def test_tracer_keeps_a_bounded_tail_and_counts_every_event(monkeypatch):
    """A traced server runs for days: memory holds the last events only,
    while the sink gets the whole stream and the summary counts it."""
    from repro.obs import tracing

    monkeypatch.setattr(tracing, "TRACE_EVENTS_KEPT", 4)
    sink = io.StringIO()
    tracer = UnitTracer(clock=ManualClock(), sink=sink)
    for _ in range(10):
        tracer.unit_begin("alice", "set_state")
        tracer.unit_end(
            "alice", "set_state",
            lock_seconds=0.0, exec_seconds=0.0, drain_seconds=0.0,
        )
    tracer.group_flush(width=1, units=10)
    assert len(tracer.events) == 4
    assert [event["seq"] for event in tracer.events] == [17, 18, 19, 20]
    summary = tracer.summary()
    assert summary["events"] == 21
    assert summary["by_event"] == {"unit_begin": 10, "unit_end": 10, "group_flush": 1}
    assert summary["histograms"]["exec"]["total"] == 10
    assert len(sink.getvalue().splitlines()) == 21


def test_sampler_keeps_a_bounded_tail_and_numbers_every_sample(monkeypatch):
    from repro.obs import sampler

    monkeypatch.setattr(sampler, "SAMPLES_KEPT", 2)
    sink = io.StringIO()
    frames = [{"buffer_hits": n} for n in range(5)]
    polled = IntervalSampler(_scripted_source(frames), clock=ManualClock(), sink=sink)
    for _ in frames:
        polled.sample()
    assert [sample.seq for sample in polled.samples] == [3, 4]
    assert [json.loads(line)["seq"] for line in sink.getvalue().splitlines()] == [
        0, 1, 2, 3, 4,
    ]


# -- service integration ----------------------------------------------------


def _service_db(tmp_path=None, name="db.pages"):
    path = None if tmp_path is None else os.path.join(str(tmp_path), name)
    sm = ObjectStoreSM(path=path, buffer_pages=64)
    db = LabBase(sm)
    bootstrap_schema(db)
    return db


def _run_workload(client):
    oid = client.create_material("clone", "a-0", 1, state="active")
    client.record_step("measure", 2, [oid], {"value": 7})
    client.set_state(oid, "done", 3)
    assert client.most_recent(oid, "value") == 7
    return oid


def _traced_service_run(tmp_path, name):
    db = _service_db(tmp_path, name)
    tracer = UnitTracer(clock=ManualClock(start=0.0, step=0.001))
    service = LabFlowService(db, group_cap=2, tracer=tracer)
    client = LocalClient(service, "alice")
    _run_workload(client)
    client.close()
    service.shutdown()
    jsonl = tracer.jsonl()
    db.storage.close()
    return jsonl


def test_service_trace_is_byte_identical_across_runs(tmp_path):
    first = _traced_service_run(tmp_path, "one.pages")
    second = _traced_service_run(tmp_path, "two.pages")
    assert first == second
    events = [json.loads(line)["event"] for line in first.splitlines()]
    assert "unit_begin" in events and "unit_end" in events
    assert "group_flush" in events  # the coordinator reported its widths


def test_service_sample_payload():
    db = _service_db()
    tracer = UnitTracer(clock=ManualClock())
    service = LabFlowService(db, group_cap=2, tracer=tracer)
    client = LocalClient(service, "alice")
    _run_workload(client)
    payload = service.sample()
    assert set(payload["counters"]) == set(STAT_FIELDS)
    assert set(payload["gauges"]) == {spec.name for spec in DERIVED_METRICS}
    assert payload["gauges"]["group_width"] > 0.0
    assert payload["open_sessions"] == 1
    assert payload["trace"]["events"] > 0
    client.close()
    service.shutdown()
    db.storage.close()


def test_observability_off_is_bit_identical(tmp_path):
    """Tracing + sampling attached vs absent: same bytes, same answers."""
    answers = {}
    for name, traced in (("plain.pages", False), ("traced.pages", True)):
        db = _service_db(tmp_path, name)
        tracer = UnitTracer(clock=ManualClock()) if traced else None
        service = LabFlowService(db, group_cap=2, tracer=tracer)
        sampler = (
            IntervalSampler(service.stats_snapshot, clock=ManualClock())
            if traced
            else None
        )
        client = LocalClient(service, "alice")
        oid = _run_workload(client)
        if sampler is not None:
            sampler.sample()
        answers[name] = (
            client.most_recent(oid, "value"),
            client.state_of(oid),
            client.history_len(oid),
        )
        if sampler is not None:
            sampler.sample()
        client.close()
        service.shutdown()
        db.storage.close()
    assert answers["plain.pages"] == answers["traced.pages"]
    assert filecmp.cmp(
        os.path.join(str(tmp_path), "plain.pages"),
        os.path.join(str(tmp_path), "traced.pages"),
        shallow=False,
    )


# -- the live monitor -------------------------------------------------------


@pytest.fixture
def served(tmp_path):
    db = _service_db(tmp_path)
    tracer = UnitTracer()
    service = LabFlowService(db, group_cap=4, tracer=tracer)
    runner = ServiceRunner(service)
    host, port = runner.start()
    yield host, port, service
    runner.stop()
    db.storage.close()


def test_monitor_streams_samples_over_socket(served):
    host, port, _service = served
    alice = ServiceClient(host, port, "alice")
    _run_workload(alice)
    alice.drain()
    out = io.StringIO()
    collected = monitor(
        host,
        port,
        samples=3,
        interval=0.0,
        out=out,
        clock=ManualClock(start=5.0, step=0.5),
        sleep=lambda seconds: None,
    )
    alice.close()
    assert len(collected) == 3
    assert collected[0].gauges["group_width"] > 0.0  # group commits visible
    text = out.getvalue()
    header = render_sample_table([]).splitlines()[0]
    assert header in text
    assert "group_width" in header and "commit_stall_ratio" in header
    assert "unit phase durations (server-side)" in text
    # streamed rows align with the header printed up front
    rows = [line for line in text.splitlines() if line.startswith("   ")]
    assert any(len(row) == len(header) for row in rows)


def test_monitor_refuses_dead_address():
    with pytest.raises(ServerError):
        monitor(
            "127.0.0.1", 1, samples=1, interval=0.0, out=io.StringIO(),
            sleep=lambda seconds: None,
        )

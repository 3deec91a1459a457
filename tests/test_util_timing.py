"""Unit tests for the resource meter."""

import dataclasses

import pytest

from repro.util.timing import ResourceMeter, ResourceUsage


class _FakeFaults:
    def __init__(self):
        self.major_faults = 0


def test_lap_before_start_raises():
    with pytest.raises(RuntimeError):
        ResourceMeter().lap()


def test_lap_measures_fault_delta():
    faults = _FakeFaults()
    meter = ResourceMeter(fault_source=faults)
    meter.start()
    faults.major_faults = 7
    first = meter.lap(size_bytes=100)
    assert first.majflt == 7
    faults.major_faults = 10
    second = meter.lap(size_bytes=200)
    assert second.majflt == 3
    assert second.size_bytes == 200


def test_elapsed_is_positive_and_split_per_interval():
    meter = ResourceMeter()
    meter.start()
    total = 0
    for _ in range(10000):
        total += 1
    first = meter.lap()
    second = meter.lap()
    assert first.elapsed_sec >= 0
    assert second.elapsed_sec >= 0
    assert len(meter.intervals) == 2


def test_total_sums_intervals_and_keeps_latest_size():
    meter = ResourceMeter()
    meter.start()
    meter.lap(size_bytes=100)
    meter.lap(size_bytes=250)
    total = meter.total()
    assert total.size_bytes == 250
    assert total.majflt == 0


def test_start_resets_history():
    meter = ResourceMeter()
    meter.start()
    meter.lap()
    meter.start()
    assert meter.intervals == []


def test_usage_addition():
    a = ResourceUsage(1.0, 0.5, 0.1, 10, 100)
    b = ResourceUsage(2.0, 1.0, 0.2, 5, 80)
    combined = a + b
    assert combined.elapsed_sec == pytest.approx(3.0)
    assert combined.user_cpu_sec == pytest.approx(1.5)
    assert combined.sys_cpu_sec == pytest.approx(0.3)
    assert combined.majflt == 15
    assert combined.size_bytes == 100  # latest/max, not summed
    # no field is dropped by ``+``, whatever fields there are: each is
    # summed or (size) the maximum, never left at a default
    names = [field.name for field in dataclasses.fields(ResourceUsage)]
    a = ResourceUsage(*range(1, len(names) + 1))
    b = ResourceUsage(*range(11, len(names) + 11))
    for name in names:
        ours, theirs = getattr(a, name), getattr(b, name)
        assert getattr(a + b, name) in (ours + theirs, max(ours, theirs)), name


def test_as_rows_matches_paper_resources():
    usage = ResourceUsage(1.0, 0.5, 0.1, 10, 0)
    rows = dict(usage.as_rows())
    assert set(rows) == {
        "elapsed sec", "user cpu sec", "sys cpu sec", "majflt", "size (bytes)",
    }
    assert rows["size (bytes)"] == "-"  # main-memory convention


def test_meter_without_fault_source_reads_zero():
    meter = ResourceMeter()
    meter.start()
    assert meter.lap().majflt == 0

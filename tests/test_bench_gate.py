"""The counter gate can fail: mutation tests over the committed baselines.

``repro bench compare`` against ``BENCH_A4/A5/A6/A8.json`` is the CI
regression gate.  These tests read the four *committed* files and check,
in seconds and without running a bench, that the gate is armed: the
recorded gauges are the ones the registry assigns to each schema and
follow from the recorded counters, and perturbing any one recorded
value past its tolerance — or dropping it — is reported as a drift.
"""

import copy
import json
import os

import pytest

from repro.cli import main
from repro.obs import DERIVED_METRICS
from repro.obs import baseline as bl

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMAS = sorted(bl.BASELINE_BENCHES)

#: The block each A-bench names under ``gauge_block`` (for A5, the
#: best-absorbing server of the recorded run).
GAUGE_BLOCKS = {
    "A4": "on",
    "A5": "servers.Texas.on",
    "A6": "s4_on",
    "A8": "labf",
}


def _committed(schema):
    return bl.load_json(bl.baseline_path(schema, REPO))


def _payload(baseline):
    """A bench payload that canonicalizes back to ``baseline``: the
    flattened counters nested again, plus the gauge-block pointer."""
    payload = {bl.GAUGE_BLOCK_KEY: GAUGE_BLOCKS[baseline["schema"]]}
    for dotted, value in baseline["counters"].items():
        *parents, leaf = dotted.split(".")
        node = payload
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return payload


def _drift_keys(baseline, fresh):
    drifts, _notes = bl.compare(baseline, fresh)
    return [(drift.metric, drift.kind) for drift in drifts]


def test_every_gauge_belongs_to_a_recorded_schema():
    assert {spec.baseline for spec in DERIVED_METRICS} == set(SCHEMAS)


@pytest.mark.parametrize("schema", SCHEMAS)
def test_committed_gauges_follow_from_committed_counters(schema):
    baseline = _committed(schema)
    # canonicalize emits exactly the gauges the registry assigns to the
    # schema, so equality also pins which gauges the file records
    assert bl.canonicalize(schema, _payload(baseline)) == baseline
    assert bl.compare(baseline, baseline) == ([], [])


@pytest.mark.parametrize("schema", SCHEMAS)
def test_every_recorded_counter_is_gated(schema):
    baseline = _committed(schema)
    for name, value in baseline["counters"].items():
        band = bl.DEFAULT_TOLERANCE * max(1.0, abs(value))
        for moved in (value + int(band) + 1, value - int(band) - 1):
            fresh = copy.deepcopy(baseline)
            fresh["counters"][name] = moved
            assert _drift_keys(baseline, fresh) == [(name, "counter")]
        fresh = copy.deepcopy(baseline)
        del fresh["counters"][name]
        assert _drift_keys(baseline, fresh) == [(name, "missing")]


@pytest.mark.parametrize("spec", DERIVED_METRICS, ids=lambda spec: spec.name)
def test_every_recorded_gauge_is_gated(spec):
    baseline = _committed(spec.baseline)
    value = baseline["gauges"][spec.name]
    for sign in (1, -1):
        fresh = copy.deepcopy(baseline)
        fresh["gauges"][spec.name] = value + sign * spec.tolerance * 0.9
        assert _drift_keys(baseline, fresh) == []
        fresh["gauges"][spec.name] = value + sign * spec.tolerance * 1.1
        assert _drift_keys(baseline, fresh) == [(spec.name, "gauge")]
    fresh = copy.deepcopy(baseline)
    del fresh["gauges"][spec.name]
    assert _drift_keys(baseline, fresh) == [(spec.name, "missing")]


def test_group_width_collapse_is_caught():
    """The drift that once went unnoticed: 4.0 recorded as 0.0."""
    baseline = _committed("A6")
    assert baseline["gauges"]["group_width"] == 4.0
    fresh = copy.deepcopy(baseline)
    fresh["gauges"]["group_width"] = 0.0
    assert _drift_keys(baseline, fresh) == [("group_width", "gauge")]


@pytest.mark.parametrize("schema", SCHEMAS)
def test_cli_gate_exits_1_on_a_perturbed_bench_result(schema, tmp_path):
    baseline = _committed(schema)
    payload = _payload(baseline)
    results = str(tmp_path)
    report = os.path.join(results, "report.json")
    argv = ["bench", "compare", "--baseline", bl.baseline_path(schema, REPO),
            "--results", results, "--tolerance", str(bl.DEFAULT_TOLERANCE),
            "--report", report]
    bl.dump_json(bl.results_path(schema, results), payload)
    assert main(argv) == 0

    # zero the numerator of the schema's first gauge in the gauge block
    spec = next(s for s in DERIVED_METRICS if s.baseline == schema)
    block = payload
    for key in GAUGE_BLOCKS[schema].split("."):
        block = block[key]
    block[spec.numerator] = 0
    bl.dump_json(bl.results_path(schema, results), payload)
    assert main(argv) == 1
    drifts = json.load(open(report))["drifts"]
    assert any(drift["kind"] == "counter" for drift in drifts)
    if schema == "A6":
        assert any(
            drift["metric"] == "group_width" and drift["fresh"] == 0.0
            for drift in drifts
        )

    # a bench that stops emitting a counter is a drift too
    del block[spec.numerator]
    bl.dump_json(bl.results_path(schema, results), payload)
    assert main(argv) == 1
    assert any(
        drift["kind"] == "missing" for drift in json.load(open(report))["drifts"]
    )

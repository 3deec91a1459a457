"""The concurrency sanitizer: the static pass and the schedule fuzzer.

The static pass is LF08 over the page locks: re-introducing the
lock-upgrade rollback leak must be caught on the source.  Around it: stale
``lint: ignore`` detection, and the schedule fuzzer's serial-equivalence
sweep across every registered backend.  That the service answers only
its owning thread is pinned in ``tests/test_server.py``.
"""

import threading

import pytest

from repro.analysis import main as lint_main
from repro.analysis.core import (
    Project,
    SourceModule,
    run_rules,
    stale_ignores,
)
from repro.analysis.main import default_root
from repro.analysis.rules import ALL_RULES, rules_by_id
from repro.server import fuzz
from repro.server.fuzz import fuzz_backend, make_schedule, run_schedule
from repro.storage import registry
from repro.util.rng import DeterministicRng

import os


def _shipped_source(*parts):
    path = os.path.join(default_root(), *parts)
    return open(path, encoding="utf-8").read()


# ---------------------------------------------------------------------------
# the PR 6 regression trap: lock-upgrade rollback leak
# ---------------------------------------------------------------------------


def test_shipped_rollback_restore_is_clean():
    source = _shipped_source("labbase", "sessions.py")
    project = Project([SourceModule("src/repro/labbase/sessions.py", source)])
    assert run_rules(project, rules_by_id(["LF08"])) == []


def test_reintroduced_rollback_leak_is_caught():
    """Deleting the downgrade loop re-creates PR 6's upgrade leak."""
    downgrade_loop = (
        "        for page_id in taken.upgraded:\n"
        "            self._sm.downgrade_page(client, page_id)\n"
    )
    source = _shipped_source("labbase", "sessions.py")
    assert downgrade_loop in source, "regression trap lost its anchor"
    leaky = source.replace(downgrade_loop, "")
    project = Project([SourceModule("src/repro/labbase/sessions.py", leaky)])
    findings = run_rules(project, rules_by_id(["LF08"]))
    assert any("downgrade" in f.message for f in findings)


# ---------------------------------------------------------------------------
# stale-ignore detection
# ---------------------------------------------------------------------------

_IGNORE_DEMO = (
    "# module: repro.storage.demo\n"
    "def f():\n"
    "    try:\n"
    "        pass\n"
    "    # lint: ignore[LF06] -- live: suppresses the handler below\n"
    "    except Exception:\n"
    "        pass\n"
    "    # lint: ignore[LF06] -- stale: suppresses nothing\n"
    "    x = 1\n"
    "    # lint: ignore[LF99] -- unknown rule id\n"
    "    return x\n"
)


def test_stale_and_unknown_ignores_are_flagged():
    project = Project([SourceModule("demo.py", _IGNORE_DEMO)])
    used = set()
    findings = run_rules(project, ALL_RULES, used_suppressions=used)
    assert findings == []  # the live marker suppressed the only finding
    stale = stale_ignores(
        project, ALL_RULES, used, known_ids={r.id for r in ALL_RULES}
    )
    assert [f.line for f in stale] == [8, 10]
    assert "stale suppression" in stale[0].message
    assert "unknown rule id" in stale[1].message
    assert all(f.rule == "LF00" for f in stale)


def test_docstring_mentions_are_not_markers():
    source = (
        "# module: repro.storage.demo\n"
        '"""Docs may cite ``# lint: ignore[LF06]`` without creating '
        'a suppression."""\n'
        "x = 1\n"
    )
    module = SourceModule("demo.py", source)
    assert module.suppression_sites() == ()


def test_shipped_tree_has_no_stale_ignores(capsys):
    assert lint_main(["--check-ignores"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_check_ignores_exit_code(tmp_path, capsys):
    demo = tmp_path / "demo.py"
    demo.write_text(_IGNORE_DEMO)
    assert lint_main([str(demo), "--check-ignores"]) == 1
    out = capsys.readouterr().out
    assert "LF00" in out and "stale suppression" in out


# ---------------------------------------------------------------------------
# the schedule fuzzer
# ---------------------------------------------------------------------------


def test_schedule_is_deterministic_and_complete():
    rng = DeterministicRng(11)
    schedule = make_schedule(3, 5, rng.substream("schedule"))
    again = make_schedule(3, 5, DeterministicRng(11).substream("schedule"))
    assert schedule == again
    assert len(schedule) == 15
    assert all(schedule.count(i) == 5 for i in range(3))
    other = make_schedule(3, 5, DeterministicRng(12).substream("schedule"))
    assert other != schedule  # seeds genuinely vary the interleaving


def test_fuzzer_validates_inputs():
    with pytest.raises(ValueError):
        run_schedule([])
    with pytest.raises(ValueError):
        run_schedule([object()], units_per_session=0)


@pytest.mark.parametrize(
    "backend_name",
    registry.backend_names(),
    ids=lambda name: name,
)
def test_fuzzed_schedule_matches_serial_replay(backend_name):
    """The tentpole invariant, per backend: interleaved == serial."""
    for seed in (0, 1):
        report = fuzz_backend(backend_name, seed=seed, units_per_session=5)
        assert report.identical, (
            f"{backend_name} seed {seed}: fuzzed database diverged "
            "from the serial replay of its own completion order"
        )
        assert report.completed_units > 0
        # The sweep is shown to contend, not assumed to: interleaved
        # sessions must have forced at least one early group close.
        if registry.backend(backend_name).concurrent:
            assert report.commit_stalls > 0
        else:
            assert report.commit_stalls == 0


def test_fuzz_reports_are_reproducible():
    first = fuzz_backend("OStore", seed=9, units_per_session=4)
    second = fuzz_backend("OStore", seed=9, units_per_session=4)
    assert first.to_json() == second.to_json()


def test_a_fuzzed_run_starts_no_thread(monkeypatch):
    """One loop drives the schedule: the threads alive before the run
    are the threads alive inside every unit and after it."""
    before = set(threading.enumerate())
    during = []
    mix_unit = fuzz._mix_unit

    def observed(*args):
        during.append(set(threading.enumerate()))
        mix_unit(*args)

    monkeypatch.setattr(fuzz, "_mix_unit", observed)
    report = fuzz_backend("OStore", seed=2, units_per_session=4)
    assert report.identical
    assert len(during) == report.sessions * report.units_per_session
    assert all(threads == before for threads in during)
    assert set(threading.enumerate()) == before

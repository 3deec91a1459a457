"""The concurrency sanitizer: the static pass and the schedule fuzzer.

The acceptance story: deliberately reordering two lock acquisitions must
be caught by LF08 on the source.  Around that core: the one-loop
front-end's thread model, the PR 6 rollback-leak regression trap, stale
``lint: ignore`` detection, and the schedule fuzzer's serial-equivalence
sweep across every registered backend.
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
from repro.analysis.concurrency import model_for
from repro.analysis.main import collect_paths, default_root, load_project
from repro.analysis.rules import ALL_RULES, rules_by_id
from repro.obs.tracing import LOCK_RANKS, LOCK_SITES
from repro.server import fuzz
from repro.server.fuzz import fuzz_backend, make_schedule, run_schedule
from repro.storage import registry
from repro.util.rng import DeterministicRng

import os


def _shipped_source(*parts):
    path = os.path.join(default_root(), *parts)
    return open(path, encoding="utf-8").read()


# ---------------------------------------------------------------------------
# the reorder acceptance
# ---------------------------------------------------------------------------

_RANK_TABLE = (
    "# module: repro.obs.tracing\n"
    "LOCK_RANKS = {'gate': 0, 'mutex': 10}\n"
    "LOCK_SITES = {'gate': 'Server._gate', 'mutex': 'Server._mutex'}\n"
)

_SERVER_TEMPLATE = (
    "# module: repro.server.reorder_demo\n"
    "import threading\n"
    "\n"
    "\n"
    "class Server:\n"
    "    def __init__(self):\n"
    "        self._gate = threading.Lock()\n"
    "        self._mutex = threading.RLock()\n"
    "\n"
    "    def unit(self):\n"
    "        with {outer}:\n"
    "            with {inner}:\n"
    "                return 1\n"
)


def _reorder_findings(outer, inner):
    project = Project(
        [
            SourceModule("tracing.py", _RANK_TABLE),
            SourceModule(
                "server.py",
                _SERVER_TEMPLATE.format(outer=outer, inner=inner),
            ),
        ]
    )
    return run_rules(project, rules_by_id(["LF08"]))


def test_static_prong_accepts_ranked_order():
    assert _reorder_findings("self._gate", "self._mutex") == []


def test_static_prong_flags_the_reorder():
    findings = _reorder_findings("self._mutex", "self._gate")
    assert findings, "swapping the two acquisitions must be flagged"
    assert any("inversion" in f.message for f in findings)


def test_lock_tables_agree_with_each_other():
    assert set(LOCK_RANKS) == set(LOCK_SITES)
    ranks = list(LOCK_RANKS.values())
    assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)


# ---------------------------------------------------------------------------
# the served front-end: one rooted loop thread that owns its state
# ---------------------------------------------------------------------------


def _shipped_project(replace=None):
    """The shipped tree as a project; ``replace`` maps a display path's
    tail to substitute source text."""
    project, errors = load_project(collect_paths([default_root()]))
    assert not errors
    if replace is None:
        return project
    modules = []
    for module in project.modules:
        for tail, text in replace.items():
            if module.path.endswith(tail):
                module = SourceModule(module.path, text)
        modules.append(module)
    return Project(modules)


def test_front_end_is_one_rooted_loop_thread():
    model = model_for(_shipped_project())
    entries = {entry.label: entry for entry in model.entries}
    loop = entries["thread:repro.server.service_runner.ServiceRunner._loop"]
    assert not loop.multi  # one loop, not a worker per connection
    assert [
        label for label in entries
        if label.startswith("thread:repro.server.service_runner")
    ] == [loop.label]
    reached = model.reach[loop.label]
    assert "repro.server.service_runner.LabFlowService.submit" in reached
    assert "repro.server.communicator.FrameBuffer.take" in reached


def test_loop_state_moved_onto_the_runner_is_caught():
    """The front-end has no lock because the loop's state is arguments
    and locals; LF09 is what keeps it that way."""
    anchor = "        connections: dict[int, _Connection] = {}  # by descriptor\n"
    source = _shipped_source("server", "service_runner.py")
    assert anchor in source, "mutation lost its anchor"
    shared = source.replace(anchor, anchor + "        self._address = None\n")
    project = _shipped_project({"server/service_runner.py": shared})
    findings = run_rules(project, rules_by_id(["LF09"]))
    assert any("ServiceRunner._address" in f.message for f in findings)


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

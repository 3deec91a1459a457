"""Tests for the repro.analysis invariant linter.

The fixture corpus under ``tests/lint_fixtures/<RULE>/`` drives the
per-rule checks: ``good_*``/``support_*`` files must be clean for their
rule, every ``bad_*`` file must trip it.  The remaining tests pin the
engine-level guarantees — deterministic reports, self-application over
the shipped tree, and regression traps that re-introduce previously
fixed violations into real source and expect the linter to object.
"""

import json
import os

import pytest

from repro.analysis import main as lint_main
from repro.analysis.core import Project, SourceModule, run_rules
from repro.analysis.main import collect_paths, default_root, load_project
from repro.analysis.rules import ALL_RULES, rules_by_id

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")

RULE_IDS = tuple(rule.id for rule in ALL_RULES)


def _fixture_project(rule_id):
    paths = collect_paths([os.path.join(FIXTURES, rule_id)])
    assert paths, f"no fixtures for {rule_id}"
    project, errors = load_project(paths)
    assert not errors, errors
    return project


# -- fixture corpus ---------------------------------------------------------


def test_every_rule_has_fixture_coverage():
    for rule_id in RULE_IDS:
        names = sorted(os.listdir(os.path.join(FIXTURES, rule_id)))
        good = [n for n in names if n.startswith("good_")]
        bad = [n for n in names if n.startswith("bad_")]
        assert good, f"{rule_id}: no passing fixture"
        assert len(bad) >= 2, f"{rule_id}: need at least two failing fixtures"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_against_fixture_corpus(rule_id):
    project = _fixture_project(rule_id)
    findings = run_rules(project, rules_by_id([rule_id]))
    flagged_files = {os.path.basename(f.path) for f in findings}
    for module in project:
        name = os.path.basename(module.path)
        if name.startswith("bad_"):
            assert name in flagged_files, f"{rule_id} missed {name}"
        else:
            assert name not in flagged_files, (
                f"{rule_id} false positive in {name}: "
                + "; ".join(f.render() for f in findings if f.path == module.path)
            )
    for finding in findings:
        assert finding.rule == rule_id


def test_findings_carry_positions_and_messages():
    findings = run_rules(_fixture_project("LF01"), rules_by_id(["LF01"]))
    assert findings
    for finding in findings:
        assert finding.line >= 1 and finding.col >= 1
        assert finding.message
        rendered = finding.render()
        assert f":{finding.line}:" in rendered and "LF01" in rendered


# -- suppression ------------------------------------------------------------


def test_inline_suppression_silences_one_rule():
    source = (
        "# module: repro.storage.suppressed\n"
        "def tidy(store):\n"
        "    try:\n"
        "        store.flush()\n"
        "    except Exception:  # lint: ignore[LF06]\n"
        "        pass\n"
    )
    project = Project([SourceModule("suppressed.py", source)])
    assert run_rules(project, rules_by_id(["LF06"])) == []


def test_standalone_comment_suppresses_next_line():
    source = (
        "# module: repro.storage.suppressed\n"
        "def tidy(store):\n"
        "    try:\n"
        "        store.flush()\n"
        "    # lint: ignore[LF06]\n"
        "    except Exception:\n"
        "        pass\n"
    )
    project = Project([SourceModule("suppressed.py", source)])
    assert run_rules(project, rules_by_id(["LF06"])) == []


def test_suppression_is_per_rule():
    source = (
        "# module: repro.storage.suppressed\n"
        "import os\n"
        "def tidy(store, fd):\n"
        "    try:\n"
        "        os.write(fd, b'x')  # lint: ignore[LF06]\n"
        "    except Exception:\n"
        "        pass\n"
    )
    project = Project([SourceModule("suppressed.py", source)])
    rules = {f.rule for f in run_rules(project, rules_by_id(["LF01", "LF06"]))}
    assert rules == {"LF01", "LF06"}  # ignore[LF06] on the os.write line is inert


# -- self-application -------------------------------------------------------


def test_shipped_tree_is_clean(capsys):
    assert lint_main([]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_json_report_is_deterministic(capsys):
    assert lint_main(["--format", "json"]) == 0
    first = capsys.readouterr().out
    assert lint_main(["--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["version"] == 1
    assert payload["checked_files"] > 0
    assert payload["findings"] == []


def test_json_schema_on_findings(capsys):
    bad = os.path.join(FIXTURES, "LF01", "bad_os_write.py")
    assert lint_main([bad, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["checked_files"] == 1
    assert sum(payload["counts"].values()) == len(payload["findings"])
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "path", "line", "col", "message"}


# -- regression traps -------------------------------------------------------


def _shipped_source(*parts):
    return open(os.path.join(default_root(), *parts), encoding="utf-8").read()


def test_reintroduced_sessions_reach_in_is_caught():
    source = _shipped_source("labbase", "sessions.py") + (
        "\n\ndef peek(manager):\n"
        "    return manager._directory\n"
    )
    project = Project(
        [SourceModule("src/repro/labbase/sessions.py", source)]
    )
    findings = run_rules(project, rules_by_id(["LF03"]))
    assert any("_directory" in f.message for f in findings)


def test_reintroduced_unsorted_set_iteration_is_caught():
    source = _shipped_source("storage", "disk.py") + (
        "\n\ndef flush_unsorted(dirty_ids):\n"
        "    pending = set(dirty_ids)\n"
        "    for page_id in pending:\n"
        "        pass\n"
    )
    project = Project([SourceModule("src/repro/storage/disk.py", source)])
    findings = run_rules(project, rules_by_id(["LF02"]))
    assert any("hash order" in f.message for f in findings)


def test_reintroduced_pagefile_construction_is_caught():
    source = _shipped_source("storage", "buffer.py") + (
        "\n\ndef side_file(path):\n"
        "    return PageFile(path)\n"
    )
    project = Project([SourceModule("src/repro/storage/buffer.py", source)])
    findings = run_rules(project, rules_by_id(["LF01"]))
    assert any(f.rule == "LF01" for f in findings)


# -- CLI plumbing -----------------------------------------------------------


def test_unknown_rule_id_is_an_error(capsys):
    assert lint_main(["--rules", "LF99"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_unparsable_input_is_an_error(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def half(:\n")
    assert lint_main([str(broken)]) == 2
    assert "broken.py" in capsys.readouterr().err


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out
    # retired ids (LF04, LF05, LF07, LF08, LF09) are gone; the rest keep
    # their numbers
    assert RULE_IDS == ("LF01", "LF02", "LF03", "LF06")


def test_rule_subset_runs_only_named_rules():
    bad_dir = os.path.join(FIXTURES, "LF06")
    paths = collect_paths([bad_dir])
    project, _ = load_project(paths)
    findings = run_rules(project, rules_by_id(["LF01"]))
    assert findings == []  # LF06 fixtures are clean under LF01

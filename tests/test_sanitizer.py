"""The audit of the ``lint: ignore`` markers, every rule's one escape
hatch: a marker that suppresses nothing, or names no rule, is a finding.
"""

from repro.analysis import main as lint_main
from repro.analysis.core import Project, SourceModule, run_rules, stale_ignores
from repro.analysis.rules import ALL_RULES


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

"""LF08's regression traps on the shipped source, and the audit of the
``lint: ignore`` markers that are LF08's (and every rule's) escape hatch.

Re-introducing the lock-upgrade rollback leak, or an acquisition loop
that cannot give back a partial grab, must be caught on the real
source.  Serial equivalence of interleaved sessions is pinned in
``tests/test_server_properties.py``; that the service answers only its
owning thread, in ``tests/test_server.py``.
"""

from repro.analysis import main as lint_main
from repro.analysis.core import (
    Project,
    SourceModule,
    run_rules,
    stale_ignores,
)
from repro.analysis.main import default_root
from repro.analysis.rules import ALL_RULES, rules_by_id

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


def test_reintroduced_unguarded_acquisition_is_caught():
    """Taking ``lock_objects``' loop out of its try leaks every page the
    loop already took when a later one conflicts."""
    guarded = (
        "        try:\n"
        "            for oid in sorted(set(int(oid) for oid in oids)):\n"
        "                taken.extend(self.lock_object(client, oid, exclusive, mates))\n"
        "        except LockError:\n"
        "            self._restore_pages(client, taken)\n"
        "            raise\n"
    )
    unguarded = (
        "        for oid in sorted(set(int(oid) for oid in oids)):\n"
        "            taken.extend(self.lock_object(client, oid, exclusive, mates))\n"
    )
    source = _shipped_source("labbase", "sessions.py")
    assert guarded in source, "regression trap lost its anchor"
    leaky = source.replace(guarded, unguarded)
    project = Project([SourceModule("src/repro/labbase/sessions.py", leaky)])
    findings = run_rules(project, rules_by_id(["LF08"]))
    assert any("no release guard" in f.message for f in findings)


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

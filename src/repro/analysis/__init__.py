"""Repo-specific static analysis for the storage stack.

The storage layers accumulate invariants the test suite can only check
probabilistically — every disk write visible to the fault injector,
deterministic crash-matrix write schedules, no reach-ins past a
module's accessors, no handler that swallows an injected crash.  This
package enforces them *mechanically*, the way
``repro.storage.integrity`` enforces the data-level invariants I1–I9:
an AST pass over the source tree with four repo-specific rules (LF01,
LF02, LF03, LF06), run by CI and by ``repro lint`` /
``python -m repro.analysis``.  The page-lock policy is held by
behavioural tests instead (``repro.analysis.rules`` says which).

Only the standard library is used (``ast``, ``argparse``, ``json``), so
the checker runs anywhere the code itself runs.
"""

from __future__ import annotations

from repro.analysis.core import Finding, Project, SourceModule, run_rules
from repro.analysis.main import main
from repro.analysis.rules import ALL_RULES, rules_by_id

__all__ = [
    "ALL_RULES",
    "Finding",
    "Project",
    "SourceModule",
    "main",
    "rules_by_id",
    "run_rules",
]

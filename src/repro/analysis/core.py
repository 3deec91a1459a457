"""Rule engine: source modules, findings, suppression, the run loop.

A :class:`Project` is the unit of analysis — every module is parsed up
front so rules can consult cross-module facts (which private names a
module defines, which counters the stats block declares).  Rules are
small classes over the parsed trees; the engine applies per-line
suppression comments and returns findings in a deterministic order, so
two runs over the same tree render byte-identical reports.

Suppression syntax (the only escape hatch)::

    risky_call()  # lint: ignore[LF06] -- justification here

The marker silences the named rule(s) on its own line, or — when the
comment stands alone — on the next code line below it.  Rule ids may be
comma-separated: ``# lint: ignore[LF01, LF03]``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

#: ``# module: repro.storage.foo`` near the top of a file overrides the
#: path-derived module name — test fixtures use this to pose as storage
#: modules without living inside the package.
_MODULE_OVERRIDE = re.compile(r"#\s*module:\s*([A-Za-z_][\w.]*)")

_SUPPRESS = re.compile(r"#\s*lint:\s*ignore\[([A-Za-z0-9_,\s]+)\]")

#: Underscore attributes that are public API of stdlib types, not
#: privacy violations (namedtuple's documented methods).
NAMEDTUPLE_METHODS = frozenset(
    {"_replace", "_asdict", "_fields", "_make", "_field_defaults"}
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True, order=True)
class SuppressionSite:
    """One ``lint: ignore[...]`` marker: where it sits, what it covers."""

    path: str
    line: int    #: the marker's own 1-based line
    target: int  #: the line whose findings it suppresses
    rule: str


class SourceModule:
    """One parsed source file plus its lint-relevant derived data."""

    def __init__(self, path: str, text: str, name: str | None = None) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.name = name or _module_name(path, text)
        self.tree = ast.parse(text, filename=path)
        self._suppressions: dict[int, set[str]] | None = None
        self._sites: tuple[SuppressionSite, ...] | None = None

    # -- suppression ---------------------------------------------------------

    def suppressed_rules(self, line: int) -> set[str]:
        """Rule ids suppressed at a 1-based source line."""
        if self._suppressions is None:
            table: dict[int, set[str]] = {}
            for site in self.suppression_sites():
                table.setdefault(site.target, set()).add(site.rule)
            self._suppressions = table
        return self._suppressions.get(line, set())

    def suppression_sites(self) -> tuple[SuppressionSite, ...]:
        """Every marker in the file (``--check-ignores`` ground truth).

        Only real ``COMMENT`` tokens count: a marker *mentioned* in a
        docstring or an error-message string is documentation, not a
        suppression — the tokenizer is what tells them apart.
        """
        if self._sites is None:
            sites: list[SuppressionSite] = []
            reader = io.StringIO(self.text).readline
            for token in tokenize.generate_tokens(reader):
                if token.type != tokenize.COMMENT:
                    continue
                match = _SUPPRESS.search(token.string)
                if match is None:
                    continue
                rules = {part.strip() for part in match.group(1).split(",")}
                rules.discard("")
                index = token.start[0]
                target = index
                if not self.lines[index - 1][: token.start[1]].strip():
                    # Comment-only line: the marker covers the line below.
                    target = index + 1
                sites.extend(
                    SuppressionSite(self.path, index, target, rule)
                    for rule in sorted(rules)
                )
            self._sites = tuple(sites)
        return self._sites

    # -- private-name inventory (LF03's ground truth) ------------------------

    def private_names(self) -> set[str]:
        """Every ``_name`` this module defines as attribute or method.

        Collected from ``self._x`` / ``cls._x`` assignments, class-body
        assignments (dataclass fields included), method definitions, and
        module-level bindings — anything an ``obj._x`` access inside the
        same module could legitimately refer to.
        """
        names: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    names.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if node.attr.startswith("_") and _receiver_is_self(node.value):
                    names.add(node.attr)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id.startswith("_"):
                        names.add(target.id)
        return names


def _receiver_is_self(node: ast.expr) -> bool:
    """Whether an attribute receiver is ``self``/``cls`` (or ``super()``)."""
    if isinstance(node, ast.Name):
        return node.id in ("self", "cls")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "super"
    return False


def _module_name(path: str, text: str) -> str:
    for raw in text.splitlines()[:10]:
        match = _MODULE_OVERRIDE.search(raw)
        if match is not None:
            return match.group(1)
    parts = path.replace("\\", "/").split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if "repro" in parts[:-1]:
        index = len(parts) - 2 - parts[-2::-1].index("repro")
        dotted = parts[index:-1] + ([] if stem == "__init__" else [stem])
        return ".".join(dotted)
    return stem


class Project:
    """Every module under analysis, parsed, addressable by dotted name."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules = sorted(modules, key=lambda m: m.path)
        self.by_name = {module.name: module for module in self.modules}

    def __iter__(self) -> Iterator[SourceModule]:
        return iter(self.modules)

    def module(self, name: str) -> SourceModule | None:
        return self.by_name.get(name)


class Rule:
    """Base class: one invariant, checked over the whole project."""

    id: str = "LF00"
    title: str = ""

    def applies(self, module: SourceModule) -> bool:
        return True

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project:
            if self.applies(module):
                yield from self.check_module(project, module)

    def check_module(
        self, project: Project, module: SourceModule
    ) -> Iterable[Finding]:
        return ()

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


def run_rules(
    project: Project,
    rules: Sequence[Rule],
    used_suppressions: set[tuple[str, int, str]] | None = None,
) -> list[Finding]:
    """Apply rules, drop suppressed findings, return in stable order.

    When ``used_suppressions`` is given, every suppression that actually
    swallowed a finding is recorded into it as ``(path, line, rule)`` —
    the evidence ``--check-ignores`` subtracts from the marker inventory
    to expose stale ignores.
    """
    findings: list[Finding] = []
    for rule in rules:
        for found in rule.check(project):
            module = next(
                (m for m in project if m.path == found.path), None
            )
            if module is not None and rule.id in module.suppressed_rules(found.line):
                if used_suppressions is not None:
                    used_suppressions.add((found.path, found.line, rule.id))
                continue
            findings.append(found)
    findings.sort()
    return findings


def stale_ignores(
    project: Project,
    rules: Sequence[Rule],
    used_suppressions: set[tuple[str, int, str]],
    known_ids: set[str] | None = None,
) -> list[Finding]:
    """Markers that suppress nothing, plus markers naming unknown rules.

    Staleness is only judged for markers of rules in ``rules`` — a
    marker for a rule the caller did not run may be load-bearing, and
    silence about it is the only honest answer.  A marker naming a rule
    outside ``known_ids`` (the full registered set) is always flagged:
    it can never suppress anything.  Returned as ``LF00`` findings so
    the reporters and exit codes treat dead markers like any other
    defect.
    """
    selected = {rule.id for rule in rules}
    findings = []
    for module in project:
        for site in module.suppression_sites():
            if known_ids is not None and site.rule not in known_ids:
                findings.append(
                    Finding(
                        path=site.path,
                        line=site.line,
                        col=1,
                        rule="LF00",
                        message=(
                            f"unknown rule id {site.rule!r} in lint: "
                            "ignore marker; it suppresses nothing"
                        ),
                    )
                )
                continue
            if site.rule not in selected:
                continue
            if (module.path, site.target, site.rule) in used_suppressions:
                continue
            findings.append(
                Finding(
                    path=site.path,
                    line=site.line,
                    col=1,
                    rule="LF00",
                    message=(
                        f"stale suppression: {site.rule} reports nothing "
                        f"on line {site.target}; remove the "
                        "lint: ignore marker or fix the rule id"
                    ),
                )
            )
    findings.sort()
    return findings


# -- shared scope predicates -------------------------------------------------


def in_storage_stack(name: str) -> bool:
    """The modules whose invariants the LF rules guard."""
    return (
        name.startswith("repro.storage")
        or name.startswith("repro.labbase")
        or name.startswith("repro.server")
    )


def in_crash_path(name: str) -> bool:
    """Modules where nondeterminism breaks the crash matrix or benches."""
    return name in (
        "repro.storage.disk",
        "repro.storage.faultinject",
        "repro.storage.base",
        "repro.storage.buffer",
        # The record codec writes the bytes the crash matrix replays and
        # the bit-identity properties compare; encode order must never
        # depend on hash order or the clock.
        "repro.storage.codec",
    ) or name.startswith("repro.benchmark")

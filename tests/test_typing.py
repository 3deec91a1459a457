"""The typing ratchet.

``pyproject.toml`` promotes ``repro.storage``, ``repro.labbase``,
``repro.server`` and ``repro.obs`` to mypy's strict flag set.  CI runs
mypy itself; this module keeps two guarantees testable without mypy
installed:

* the ratchet configuration stays present and free of ``ignore_errors``
  escape hatches;
* every function in the ratcheted packages is fully annotated (the
  load-bearing half of ``disallow_untyped_defs`` /
  ``disallow_incomplete_defs``), so annotation regressions fail fast
  locally instead of surfacing only in CI.

When mypy *is* available the full strict check runs here too.
"""

import ast
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
RATCHETED = (
    "repro/storage",
    "repro/labbase",
    "repro/server",
    "repro/obs",
)


def _ratcheted_files():
    for package in RATCHETED:
        root = os.path.join(SRC, package)
        for dirpath, _, filenames in os.walk(root):
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def test_ratchet_config_present_and_honest():
    text = open(os.path.join(REPO, "pyproject.toml")).read()
    assert "[tool.mypy]" in text
    assert '"repro.storage.*"' in text and '"repro.labbase.*"' in text
    assert '"repro.server.*"' in text and '"repro.obs.*"' in text
    assert "disallow_untyped_defs = true" in text
    assert "ignore_errors = true" not in text  # no blanket escape hatches


def test_ratcheted_packages_are_fully_annotated():
    gaps = []
    for path in _ratcheted_files():
        tree = ast.parse(open(path, encoding="utf-8").read())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            for param in params:
                if param.arg in ("self", "cls"):
                    continue
                if param.annotation is None:
                    gaps.append(f"{path}:{node.lineno} {node.name}({param.arg})")
            for star in (args.vararg, args.kwarg):
                if star is not None and star.annotation is None:
                    gaps.append(f"{path}:{node.lineno} {node.name}(*{star.arg})")
            if node.returns is None:
                gaps.append(f"{path}:{node.lineno} {node.name} -> ?")
    assert not gaps, "unannotated defs in ratcheted packages:\n" + "\n".join(gaps)


@pytest.mark.skipif(
    shutil.which("mypy") is None, reason="mypy not installed (CI runs it)"
)
def test_mypy_strict_on_ratcheted_packages():
    result = subprocess.run(
        [
            sys.executable, "-m", "mypy",
            "-p", "repro.storage", "-p", "repro.labbase", "-p", "repro.server",
            "-p", "repro.obs",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr

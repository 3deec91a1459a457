"""Where the benchmark finds the program, and where it may write."""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Run outputs (trace files, scratch databases); listed in .gitignore.
OUT = HERE / "out"


def add_src() -> None:
    """Put the repository's ``src/`` on the import path, or stop.

    The benchmark measures the program in the checkout it was started
    from; in a directory that holds only the benchmark there is nothing
    to measure, and the run must fail rather than report.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"{SRC}/repro not found: nothing to benchmark here")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for the server and worker subprocesses."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


@contextmanager
def scratch_dir(label: str) -> Iterator[str]:
    """A fresh directory under ``out/``, removed on the way out."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{label}-", dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)

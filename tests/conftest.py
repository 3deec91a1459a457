"""Shared fixtures.

``any_sm`` parametrizes over every server version in
``repro.storage.SERVER_VERSIONS`` so each behavioural test runs against
every one — the same "identical LabBase over every store" discipline
the paper uses.
"""

from __future__ import annotations

import contextlib
import gc

import pytest

from repro.benchmark import BenchmarkConfig, server_spec
from repro.labbase import LabBase, LabClock
from repro.storage import SERVER_VERSIONS, OStoreMM

PERSISTENT = tuple(cls.name for cls in SERVER_VERSIONS if cls.persistent)


def _open_sm(name, tmp_path):
    """The version called ``name`` as the harness builds it, with a
    64-page pool and its file under ``tmp_path`` when persistent."""
    config = BenchmarkConfig(db_dir=str(tmp_path), buffer_pages=64)
    return server_spec(name).make(config)


@contextlib.contextmanager
def frozen_heap():
    """Freeze what earlier tests left on the heap for the block.

    The S5 shape check compares the user CPU of servers run back to back
    in this process, so a full collection over that heap must not land
    inside one server's run.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@pytest.fixture(params=sorted(cls.name for cls in SERVER_VERSIONS))
def any_sm(request, tmp_path):
    """One storage manager of each kind, file-backed when persistent."""
    sm = _open_sm(request.param, tmp_path)
    yield sm
    try:
        sm.close()
    except Exception:
        pass


@pytest.fixture(params=PERSISTENT)
def persistent_sm(request, tmp_path):
    """A file-backed page store (reopen tests)."""
    sm = _open_sm(request.param, tmp_path)
    yield sm
    try:
        sm.close()
    except Exception:
        pass


@pytest.fixture
def mm_db():
    """A LabBase over a main-memory store (fast unit tests)."""
    return LabBase(OStoreMM())


@pytest.fixture
def clock():
    return LabClock()


@pytest.fixture
def genome_db(mm_db):
    """LabBase with the genome workflow's schema installed."""
    from repro.workflow import build_genome_workflow, WorkflowEngine
    from repro.util.rng import DeterministicRng

    graph = build_genome_workflow()
    engine = WorkflowEngine(mm_db, graph, DeterministicRng(11))
    engine.install_schema()
    return mm_db, engine

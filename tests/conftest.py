"""Shared fixtures.

``any_sm`` parametrizes over every registered storage backend so each
behavioural test runs against every server version — the same
"identical LabBase over every store" discipline the paper uses.  The
set comes from the backend registry: registering another version makes
the whole behavioural suite cover it with no test edits.
"""

from __future__ import annotations

import os

import pytest

from repro.labbase import LabBase, LabClock
from repro.storage import OStoreMM
from repro.storage.registry import backends

SM_FACTORIES = {info.name: info.make for info in backends()}

PERSISTENT = tuple(info.name for info in backends(persistent=True))


@pytest.fixture(params=sorted(SM_FACTORIES))
def any_sm(request, tmp_path):
    """One storage manager of each kind, file-backed when persistent."""
    name = request.param
    path = None
    if name in PERSISTENT:
        path = os.path.join(tmp_path, "store.db")
    sm = SM_FACTORIES[name](path, 64)
    yield sm
    try:
        sm.close()
    except Exception:
        pass


@pytest.fixture(params=PERSISTENT)
def persistent_sm(request, tmp_path):
    """A file-backed page store (reopen tests)."""
    name = request.param
    path = os.path.join(tmp_path, "store.db")
    sm = SM_FACTORIES[name](path, 64)
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

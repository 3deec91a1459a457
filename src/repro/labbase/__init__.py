"""LabBase: the workflow DBMS wrapper the benchmark runs through.

The paper's Architecture (C): queries and updates go to LabBase, which
implements event histories, most-recent access structures, workflow
states and schema evolution on top of an object storage manager with a
fixed three-class schema (``sm_step``, ``sm_material``, ``material_set``).
"""

from repro.labbase.bulkload import BulkLoader, BulkRef
from repro.labbase.catalog import Catalog
from repro.labbase.chronicle import Chronicle, ReworkReport, StepClassProfile
from repro.labbase.database import (
    LabBase,
    SEG_CATALOG,
    SEG_HISTORY,
    SEG_MATERIALS,
    SEG_SETS,
    SEGMENT_PLAN,
)
from repro.labbase.history import HistoryStore
from repro.labbase.model import TABLE_1
from repro.labbase.schema import MaterialClass, StepClass, StepClassVersion
from repro.labbase.sessions import SessionManager
from repro.labbase.statestore import StateStore, state_set_name
from repro.labbase.temporal import LabClock
from repro.labbase.views import MaterialView, view

__all__ = [
    "LabBase",
    "BulkLoader",
    "BulkRef",
    "Catalog",
    "Chronicle",
    "StepClassProfile",
    "ReworkReport",
    "HistoryStore",
    "StateStore",
    "state_set_name",
    "SessionManager",
    "MaterialClass",
    "StepClass",
    "StepClassVersion",
    "MaterialView",
    "view",
    "LabClock",
    "TABLE_1",
    "SEGMENT_PLAN",
    "SEG_CATALOG",
    "SEG_MATERIALS",
    "SEG_SETS",
    "SEG_HISTORY",
]

"""Outside-in spans: time the calls into each layer's public functions.

Nothing inside ``src/`` knows about this.  ``install`` replaces the
public methods named in :data:`LAYERS` with timing wrappers (class-level,
so objects built afterwards — including the bound methods a buffer pool
captures from its page file — go through them), and only the traced
pass ever calls it.  Each call becomes one span: function, start, end,
the span that was open when it started (kept per thread), and the unit
being served.  A
layer's self time is the time inside its spans minus the time inside the
spans they opened, so the layers add up to the unit without double
counting.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro.benchmark.operations import QueryRunner
from repro.benchmark.workload import LabFlowWorkload
from repro.labbase.database import LabBase
from repro.labbase.sessions import SessionManager
from repro.server.commit import CommitCoordinator
from repro.server.service_runner import LabFlowService
from repro.storage.base import PagedStorageManager
from repro.storage.buffer import BufferPool
from repro.storage.codec import RecordCodec
from repro.storage.disk import PageFile
from repro.storage.locks import LockManager
from repro.storage.objcache import ObjectCache
from repro.workflow.engine import WorkflowEngine

#: layer -> [(class, public method names)].  ``None`` means every public
#: method the class itself defines.  The wire functions and
#: ``apply_request`` are module-level, so the replay loop wraps them at
#: its own call sites with :meth:`Tracer.wrap`.
LAYERS: dict[str, list[tuple[type, tuple[str, ...] | None]]] = {
    "service": [
        (LabFlowService, ("submit", "drain", "open_session", "close_session")),
    ],
    "locks": [
        (SessionManager, ("lock_object", "lock_objects", "release", "detach")),
        (LockManager, ("acquire", "release", "release_all", "downgrade")),
    ],
    "commit": [(CommitCoordinator, ("close",))],
    "labbase": [(LabBase, None)],
    "objcache": [
        (ObjectCache, (
            "read", "write", "allocate_write", "delete", "begin", "commit",
            "abort", "begin_unit", "end_unit", "discard_unit", "flush",
            "evict", "invalidate",
        )),
    ],
    "storage": [
        (PagedStorageManager, (
            "read", "write", "allocate_write", "delete", "begin", "commit",
            "abort", "checkpoint", "pages_of",
        )),
    ],
    "codec": [(RecordCodec, ("encode", "decode"))],
    "buffer": [(BufferPool, ("fetch", "admit_new", "flush_dirty", "drop_dirty"))],
    "pagefile": [
        (PageFile, (
            "read_page", "read_pages", "write_page", "write_pages", "sync",
            "write_meta",
        )),
    ],
    "workflow": [(WorkflowEngine, ("advance", "create_material"))],
    "stream": [
        (QueryRunner, ("run_random_query",)),
        (LabFlowWorkload, ("run_interval",)),
    ],
}

#: Layers whose wrappers the replay loop applies itself.
WIRE_FUNCTIONS = (
    "encode_request", "decode_request", "encode_response", "decode_response",
)


class _ThreadLog(threading.local):
    """One flat event list per thread: ``fid, start_ns`` on entry,
    ``_EXIT, end_ns`` on exit, ``_UNIT, unit`` when the unit changes."""

    def __init__(self, logs: list[list[int]]) -> None:
        self.events: list[int] = []
        logs.append(self.events)


_EXIT = -1
_UNIT = -2


class Tracer:
    """Collects spans in memory; aggregates and writes them at the end.

    A wrapper only appends to its thread's log (four appends and two
    clock reads a call, about 0.4 us); :meth:`rows` rebuilds the spans,
    each with its parent, by replaying every log against a stack.
    """

    def __init__(self) -> None:
        self.functions: list[tuple[str, str]] = []   # fid -> (layer, name)
        self._logs: list[list[int]] = []
        self._local = _ThreadLog(self._logs)

    def reset(self) -> None:
        """Forget the spans so far (set-up ran through the wrappers too)."""
        for log in self._logs:
            log.clear()

    def set_unit(self, unit: int) -> None:
        self._local.events += (_UNIT, unit)

    def wrap(self, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        fid = len(self.functions)
        self.functions.append((layer, name))
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            log = local.events.append
            log(fid)
            log(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                log(_EXIT)
                log(clock())

        return traced

    def rows(self) -> list[list[Any]]:
        """One row per finished span:
        ``[fid, start_ns, end_ns, parent row or None, unit]``."""
        rows: list[list[Any]] = []
        for log in self._logs:
            stack: list[list[Any]] = []
            unit = -1
            for kind, value in zip(log[::2], log[1::2]):
                if kind == _UNIT:
                    unit = value
                elif kind == _EXIT:
                    stack.pop()[2] = value
                else:
                    row = [kind, value, 0, stack[-1] if stack else None, unit]
                    rows.append(row)
                    stack.append(row)
            for row in stack:   # still open when the log ended
                rows.remove(row)
        return rows

    def install(self) -> None:
        """Wrap every function of :data:`LAYERS`; a name this tree no
        longer has is reported and skipped, not fatal."""
        for layer, targets in LAYERS.items():
            for cls, names in targets:
                if names is None:
                    names = tuple(
                        name for name, member in vars(cls).items()
                        if not name.startswith("_") and inspect.isfunction(member)
                    )
                for name in names:
                    member = vars(cls).get(name)
                    if not inspect.isfunction(member):
                        print(
                            f"spans: {cls.__name__}.{name} not found, layer "
                            f"{layer!r} loses it", file=sys.stderr,
                        )
                        continue
                    setattr(
                        cls, name, self.wrap(layer, f"{cls.__name__}.{name}", member)
                    )

    def summarize(self, since_ns: int, until_ns: int) -> "TraceSummary":
        """Totals per function over the measured window (unit boundaries).

        Spans outside it are dropped; one that straddles an edge (only a
        loop that encloses every unit can) counts for the part inside.
        """
        def measured(start: int, end: int) -> int:
            return max(0, min(end, until_ns) - max(start, since_ns))

        rows = self.rows()
        child_ns: dict[int, int] = defaultdict(int)
        for _fid, start, end, parent, _unit in rows:
            if parent is not None:
                child_ns[id(parent)] += measured(start, end)
        summary = TraceSummary(self.functions)
        for row in rows:
            fid, start, end, parent, unit = row
            if end <= since_ns or start >= until_ns:
                continue
            duration = measured(start, end)
            summary.calls[fid] += 1
            summary.self_ns[fid] += duration - child_ns[id(row)]
            if parent is None or self.functions[parent[0]][0] != self.functions[fid][0]:
                summary.entries[fid].append((duration, unit))
        return summary

    def dump(self, path: str, extra: dict[str, object]) -> None:
        """Write every span, columnar, next to the numbers derived from it."""
        rows = self.rows()
        index_of = {id(row): index for index, row in enumerate(rows)}
        payload = {
            **extra,
            "functions": [
                {"layer": layer, "function": name}
                for layer, name in self.functions
            ],
            "spans": {
                "function": [row[0] for row in rows],
                "start_ns": [row[1] for row in rows],
                "end_ns": [row[2] for row in rows],
                "parent": [
                    -1 if row[3] is None else index_of[id(row[3])]
                    for row in rows
                ],
                "unit": [row[4] for row in rows],
            },
        }
        with open(path, "w") as sink:
            json.dump(payload, sink, separators=(",", ":"))


class TraceSummary:
    """Per-function totals over the measured units of one traced pass."""

    def __init__(self, functions: list[tuple[str, str]]) -> None:
        self.functions = functions
        self.calls: dict[int, int] = defaultdict(int)
        self.self_ns: dict[int, int] = defaultdict(int)
        #: (duration, unit) of spans entered from another layer or the top
        self.entries: dict[int, list[tuple[int, int]]] = defaultdict(list)

    def _fids(self, layer: str, names: tuple[str, ...] | None) -> list[int]:
        return [
            fid for fid, (fn_layer, fn_name) in enumerate(self.functions)
            if fn_layer == layer
            and (names is None or fn_name.rsplit(".", 1)[-1] in names)
        ]

    def self_us(self, layer: str, names: tuple[str, ...] | None = None) -> float:
        return sum(self.self_ns[fid] for fid in self._fids(layer, names)) / 1e3

    def call_count(self, layer: str, names: tuple[str, ...] | None = None) -> int:
        return sum(self.calls[fid] for fid in self._fids(layer, names))

    def layer_entries(
        self, layer: str, names: tuple[str, ...]
    ) -> list[tuple[int, int]]:
        return [
            entry for fid in self._fids(layer, names)
            for entry in self.entries[fid]
        ]

    def layer_self_us(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for fid, self_ns in self.self_ns.items():
            totals[self.functions[fid][0]] += self_ns / 1e3
        return dict(totals)

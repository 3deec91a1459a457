"""Workload traces: record a stream once, replay it anywhere.

The paper's methodology replays the identical stream against every
server version.  Our generators guarantee that via seeding; traces make
the guarantee *portable*: a recorded trace is a JSON-lines file of
logical operations that replays bit-identically onto a LabBase over
any storage manager without re-running the generator.

Materials are identified by ``(class, key)`` — never by oid, which is
backend-specific — and step-class versions by their attribute set, the
paper's own version identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable

from repro.errors import BenchmarkError


@dataclass
class Trace:
    """An ordered list of logical workload events."""

    events: list[dict] = field(default_factory=list)

    def append(self, op: str, **payload) -> None:
        self.events.append({"op": op, **payload})

    def __len__(self) -> int:
        return len(self.events)

    def operations(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event["op"]] = counts.get(event["op"], 0) + 1
        return counts

    # -- persistence ----------------------------------------------------------

    def dump(self, fp: IO[str]) -> None:
        for event in self.events:
            fp.write(json.dumps(event, sort_keys=True) + "\n")

    @classmethod
    def load(cls, fp: IO[str]) -> "Trace":
        trace = cls()
        for number, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                trace.events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise BenchmarkError(f"trace line {number}: {exc}") from exc
        return trace


class TracingServer:
    """A recording proxy around a LabBase.

    Delegates every call; records the update operations (U1-U4, state
    changes, transactions) into a :class:`Trace` in replayable, logical
    form.  Query methods pass through unrecorded (replays regenerate
    them or not, per the caller's purpose).
    """

    def __init__(self, inner, trace: Trace | None = None) -> None:
        self._inner = inner
        self.trace = trace if trace is not None else Trace()
        self._names: dict[int, tuple[str, str]] = {}  # oid -> (class, key)

    # -- recording helpers ---------------------------------------------------------

    def _name(self, oid: int) -> tuple[str, str]:
        name = self._names.get(oid)
        if name is None:
            raise BenchmarkError(
                f"oid {oid} was not created through this TracingServer"
            )
        return name

    # -- schema ----------------------------------------------------------------------

    def define_material_class(self, name, key_attribute="name",
                              description="", parent=None):
        self.trace.append(
            "define_material_class",
            name=name, key_attribute=key_attribute,
            description=description, parent=parent,
        )
        return self._inner.define_material_class(
            name, key_attribute, description, parent
        )

    def define_step_class(self, name, attributes, involves_classes=(),
                          description=""):
        attributes = list(attributes)
        self.trace.append(
            "define_step_class",
            name=name, attributes=attributes,
            involves_classes=list(involves_classes), description=description,
        )
        return self._inner.define_step_class(
            name, attributes, involves_classes, description
        )

    # -- updates -----------------------------------------------------------------------

    def create_material(self, class_name, key, valid_time, state=None):
        self.trace.append(
            "create_material",
            class_name=class_name, key=key, valid_time=valid_time, state=state,
        )
        oid = self._inner.create_material(class_name, key, valid_time, state)
        self._names[oid] = (class_name, key)
        return oid

    def record_step(self, class_name, valid_time, involves,
                    results=None, version_id=None):
        involved = [int(oid) for oid in involves]
        version_attrs = None
        if version_id is not None:
            version = self._inner.catalog.step_class(class_name).version_by_id(
                version_id
            )
            version_attrs = sorted(version.attributes)
        self.trace.append(
            "record_step",
            class_name=class_name,
            valid_time=valid_time,
            involves=[list(self._name(oid)) for oid in involved],
            # lists, not tuples: events must survive a JSON round trip
            results=[[attr, value] for attr, value in sorted((results or {}).items())],
            version_attrs=version_attrs,
        )
        return self._inner.record_step(
            class_name, valid_time, involved, results, version_id
        )

    def set_state(self, material_oid, state, valid_time):
        class_name, key = self._name(material_oid)
        self.trace.append(
            "set_state",
            class_name=class_name, key=key, state=state, valid_time=valid_time,
        )
        return self._inner.set_state(material_oid, state, valid_time)

    # -- transactions --------------------------------------------------------------------

    def begin(self):
        self.trace.append("begin")
        self._inner.begin()

    def commit(self):
        self.trace.append("commit")
        self._inner.commit()

    def abort(self):
        self.trace.append("abort")
        self._inner.abort()

    # -- everything else passes through -----------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def replay(trace: Trace, server) -> dict[str, int]:
    """Apply a trace to a fresh server; returns operation counts.

    The server is a :class:`~repro.labbase.LabBase` (replay reads its
    ``catalog``).  Replay is deterministic: logical names resolve
    through the server's own key index, so backend oids never leak
    between runs.
    """
    counts: dict[str, int] = {}
    for event in trace.events:
        op = event["op"]
        counts[op] = counts.get(op, 0) + 1
        if op == "define_material_class":
            server.define_material_class(
                event["name"], event["key_attribute"],
                event["description"], event["parent"],
            )
        elif op == "define_step_class":
            server.define_step_class(
                event["name"], event["attributes"],
                tuple(event["involves_classes"]), event["description"],
            )
        elif op == "create_material":
            server.create_material(
                event["class_name"], event["key"],
                event["valid_time"], event["state"],
            )
        elif op == "record_step":
            involves = [
                server.lookup(class_name, key)
                for class_name, key in event["involves"]
            ]
            version_id = None
            if event.get("version_attrs") is not None:
                step_class = server.catalog.step_class(event["class_name"])
                version = step_class.find_version(
                    frozenset(event["version_attrs"])
                )
                if version is None:
                    raise BenchmarkError(
                        f"replay: no version of {event['class_name']!r} with "
                        f"attributes {event['version_attrs']}"
                    )
                version_id = version.version_id
            server.record_step(
                event["class_name"], event["valid_time"], involves,
                dict(event["results"]), version_id,
            )
        elif op == "set_state":
            oid = server.lookup(event["class_name"], event["key"])
            server.set_state(oid, event["state"], event["valid_time"])
        elif op == "begin":
            server.begin()
        elif op == "commit":
            server.commit()
        elif op == "abort":
            server.abort()
        else:
            raise BenchmarkError(f"replay: unknown trace op {op!r}")
    return counts

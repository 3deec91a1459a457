"""Deterministic schedule fuzzing for the concurrent server.

The property tests replay one fixed interleaving per seed; the fuzzer
explores *many* interleavings and checks the same invariant for each:
an interleaved run must produce a database bit-identical to a serial
replay of its own completion order (Section 7's serial-equivalence
claim, exercised instead of assumed).

Determinism is the whole design.  :func:`run_schedule` derives the
entire schedule — which session runs each unit, and what that unit
does — from one seed before the first unit runs, then runs the units in
that order on the calling thread, one client per session.  What is
interleaved is the *sessions*: their units meet in the service's lock
table and commit groups exactly as the served front-end's one loop
thread would deliver them, so lock conflicts, early group closes and
the retry path all run.  A thread per session would add nothing: the
order is fixed before the first unit, and the service runs units one at
a time whichever thread submits them (DESIGN.md §17).

Backends that refuse concurrent sessions are still swept — with one
session the schedule degenerates to serial, and the equivalence check
becomes a replay-determinism check, which is exactly the guarantee those
backends do make.  Backends with no client sessions at all get the same
driver over :class:`_DirectClient`.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.labbase.database import LabBase
from repro.server.client_runner import MIX_STATES, LocalClient, bootstrap_schema
from repro.server.service_runner import LabFlowService
from repro.storage import registry
from repro.util.rng import DeterministicRng

DEFAULT_SESSIONS = 3
DEFAULT_UNITS = 8
_CODE_SPAN = 1 << 30


def make_schedule(
    n_sessions: int, units_per_session: int, rng: DeterministicRng
) -> tuple[int, ...]:
    """A full interleaving: session index for each of the N*U slots.

    Every session appears exactly ``units_per_session`` times; the order
    is a seeded draw among sessions with work remaining, so different
    seeds yield genuinely different contention patterns while one seed
    always yields the same schedule.
    """
    remaining = [units_per_session] * n_sessions
    schedule: list[int] = []
    while any(remaining):
        candidates = [i for i, left in enumerate(remaining) if left]
        pick = rng.choice(candidates)
        remaining[pick] -= 1
        schedule.append(pick)
    return tuple(schedule)


class MixClient(Protocol):
    """The op surface the mix interpreter drives.

    Both the service-backed :class:`LocalClient` and the session-less
    :class:`_DirectClient` satisfy it.
    """

    session: str

    def create_material(
        self,
        class_name: str,
        key: str,
        valid_time: int,
        state: str | None = None,
    ) -> int: ...

    def record_step(
        self,
        class_name: str,
        valid_time: int,
        involves: list[int],
        results: dict[str, object] | None = None,
    ) -> object: ...

    def set_state(
        self, material_oid: int, state: str, valid_time: int
    ) -> None: ...

    def state_of(self, material_oid: int) -> object: ...

    def history_len(self, material_oid: int) -> object: ...


def _mix_unit(
    client: MixClient,
    code: int,
    tick: int,
    own: list[int],
    pool: list[int],
) -> None:
    """One unit of the mix, decoded from ``code``.

    The op vocabulary mirrors the property tests' interpreter: create /
    step / state-set / two query shapes, with every session's seed
    material in every pool so schedules genuinely contend on shared
    pages.
    """
    target = pool[code % len(pool)]
    kind = code % 5
    if kind == 0:
        own.append(
            client.create_material(
                "clone",
                f"{client.session}-{tick}",
                tick,
                state=MIX_STATES[code % len(MIX_STATES)],
            )
        )
    elif kind == 1:
        involves = [target]
        extra = pool[(code // 7) % len(pool)]
        if extra != target:
            involves.append(extra)
        client.record_step("measure", tick, involves, {"value": code})
    elif kind == 2:
        client.set_state(target, MIX_STATES[code % len(MIX_STATES)], tick)
    elif kind == 3:
        client.state_of(target)
    else:
        client.history_len(target)


def run_schedule(
    clients: Sequence[MixClient],
    *,
    units_per_session: int = DEFAULT_UNITS,
    seed: int = 0,
) -> None:
    """Drive one seeded interleaving through ``clients``, one per session.

    The schedule and every unit's op code are drawn from ``seed`` before
    the first unit runs; the units then run in schedule order on the
    calling thread, so the execution order is the same every run, on
    every backend.  Whatever a unit raises ends the run — a
    :class:`~repro.errors.LockError` past the service's retry budget
    included, which needs a foreign lock holder the fuzzer never makes.
    """
    if not clients:
        raise ValueError("the fuzzer needs at least one session")
    if units_per_session < 1:
        raise ValueError("units_per_session must be positive")
    rng = DeterministicRng(seed)
    schedule = make_schedule(
        len(clients), units_per_session, rng.substream("schedule")
    )
    code_stream = rng.substream("codes")
    codes = [code_stream.randint(0, _CODE_SPAN - 1) for _ in schedule]
    own: list[list[int]] = []
    tick = 0
    for client in clients:
        tick += 1
        own.append(
            [
                client.create_material(
                    "clone", f"{client.session}-seed", tick, state="active"
                )
            ]
        )
    for index, code in zip(schedule, codes):
        tick += 1
        pool = own[index] + [mine[0] for mine in own]
        _mix_unit(clients[index], code, tick, own[index], pool)


# ---------------------------------------------------------------------------
# direct drive: the client for backends with no client sessions at all
# ---------------------------------------------------------------------------


_UPDATE_OPS = frozenset({"create_material", "record_step", "set_state"})


def _arg_int(args: dict[str, object], key: str) -> int:
    value = args[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"recorded unit arg {key!r} is not an int: {value!r}")
    return value


def _arg_oids(args: dict[str, object], key: str) -> list[int]:
    value = args[key]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"recorded unit arg {key!r} is not a list: {value!r}")
    return [int(oid) for oid in value]


def apply_unit(db: LabBase, op: str, args: dict[str, object]) -> object:
    """Run one recorded unit straight against a :class:`LabBase`.

    This is the replay interpreter for backends the service cannot wrap
    (no ``attach_client``): one transaction per update unit, queries
    outside any transaction — the same unit boundaries the serial
    witness uses.
    """
    update = op in _UPDATE_OPS
    if update:
        db.begin()
    if op == "create_material":
        state = args.get("state")
        value: object = db.create_material(
            str(args["class_name"]),
            str(args["key"]),
            _arg_int(args, "valid_time"),
            state=None if state is None else str(state),
        )
    elif op == "record_step":
        results = args.get("results")
        value = db.record_step(
            str(args["class_name"]),
            _arg_int(args, "valid_time"),
            _arg_oids(args, "involves"),
            results if isinstance(results, dict) else None,
        )
    elif op == "set_state":
        db.set_state(
            _arg_int(args, "material_oid"),
            str(args["state"]),
            _arg_int(args, "valid_time"),
        )
        value = None
    elif op == "state_of":
        value = db.state_of(_arg_int(args, "material_oid"))
    elif op == "history_len":
        value = len(db.material_history(_arg_int(args, "material_oid")))
    else:
        raise ValueError(f"unknown direct op {op!r}")
    if update:
        db.commit()
    return value


class _DirectClient:
    """The :class:`LocalClient` op surface over a bare :class:`LabBase`.

    No sessions, no locks — the single-threaded stand-in for backends
    that cannot be served.  Update units are recorded in ``completed``
    in execution order, mirroring ``LabFlowService.completed_units``.
    """

    def __init__(
        self,
        db: LabBase,
        session: str,
        completed: list[tuple[str, str, dict[str, object]]],
    ) -> None:
        self._db = db
        self.session = session
        self._completed = completed

    def _unit(self, op: str, args: dict[str, object]) -> object:
        value = apply_unit(self._db, op, args)
        if op in _UPDATE_OPS:
            self._completed.append((self.session, op, dict(args)))
        return value

    def create_material(
        self,
        class_name: str,
        key: str,
        valid_time: int,
        state: str | None = None,
    ) -> int:
        oid = self._unit(
            "create_material",
            {
                "class_name": class_name,
                "key": key,
                "valid_time": valid_time,
                "state": state,
            },
        )
        assert isinstance(oid, int)
        return oid

    def record_step(
        self,
        class_name: str,
        valid_time: int,
        involves: list[int],
        results: dict[str, object] | None = None,
    ) -> object:
        return self._unit(
            "record_step",
            {
                "class_name": class_name,
                "valid_time": valid_time,
                "involves": list(involves),
                "results": results,
            },
        )

    def set_state(self, material_oid: int, state: str, valid_time: int) -> None:
        self._unit(
            "set_state",
            {
                "material_oid": material_oid,
                "state": state,
                "valid_time": valid_time,
            },
        )

    def state_of(self, material_oid: int) -> object:
        return self._unit("state_of", {"material_oid": material_oid})

    def history_len(self, material_oid: int) -> object:
        return self._unit("history_len", {"material_oid": material_oid})


# ---------------------------------------------------------------------------
# the sweep harness: fuzz a backend, replay serially, compare
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzzed schedule on one backend."""

    backend: str
    seed: int
    sessions: int
    units_per_session: int
    completed_units: int
    #: Commit groups the fuzzed service closed early to free a contended
    #: lock — how hard the schedule made its sessions collide (0 for
    #: direct-driven backends, which have no groups).
    commit_stalls: int
    identical: bool
    fingerprint: str

    def to_json(self) -> dict[str, object]:
        return {
            "backend": self.backend,
            "seed": self.seed,
            "sessions": self.sessions,
            "units_per_session": self.units_per_session,
            "completed_units": self.completed_units,
            "commit_stalls": self.commit_stalls,
            "identical": self.identical,
            "fingerprint": self.fingerprint,
        }


def file_fingerprint(directory: str) -> str:
    """SHA-256 over every file (name and bytes) under ``directory``."""
    digest = hashlib.sha256()
    for entry in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry)
        if not os.path.isfile(path):
            continue
        digest.update(entry.encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def logical_fingerprint(db: LabBase) -> str:
    """SHA-256 over every material and step record, in oid order.

    The byte-equality witness for backends with no bytes on disk.
    """
    digest = hashlib.sha256()
    for oid, record in sorted(db.iter_materials()):
        digest.update(repr((oid, sorted(record.items()))).encode())
    for oid, record in sorted(db.iter_steps()):
        digest.update(repr((oid, sorted(record.items()))).encode())
    return digest.hexdigest()


def fuzz_backend(
    backend_name: str,
    *,
    seed: int = 0,
    sessions: int = DEFAULT_SESSIONS,
    units_per_session: int = DEFAULT_UNITS,
) -> FuzzReport:
    """Fuzz one schedule, replay its completion order serially, compare.

    Non-concurrent backends run a single session (their contract), and
    backends with no session support at all run the schedule straight
    against the database; the comparison still holds for both, now as a
    replay-determinism check.
    """
    info = registry.backend(backend_name)
    servable = hasattr(info.cls, "attach_client")
    n_sessions = sessions if info.concurrent else 1
    names = [f"s{i}" for i in range(n_sessions)]
    with tempfile.TemporaryDirectory(prefix="labflow-fuzz-") as root:
        fuzz_dir = os.path.join(root, "fuzzed")
        serial_dir = os.path.join(root, "serial")
        os.mkdir(fuzz_dir)
        os.mkdir(serial_dir)

        store = registry.create(
            backend_name,
            path=os.path.join(fuzz_dir, "db.pages") if info.persistent else None,
        )
        db = LabBase(store)
        bootstrap_schema(db)
        completed: list[tuple[str, str, dict[str, object]]] = []
        if servable:
            service = LabFlowService(db, group_cap=3)
            clients = [LocalClient(service, name) for name in names]
            run_schedule(
                clients, units_per_session=units_per_session, seed=seed
            )
            for client in clients:
                client.close()
            completed = service.completed_units()
            service.shutdown()
        else:
            run_schedule(
                [_DirectClient(db, name, completed) for name in names],
                units_per_session=units_per_session,
                seed=seed,
            )
        commit_stalls = store.stats.commit_stalls
        assert db.verify_storage().ok
        if info.persistent:
            store.close()
            fuzzed_print = file_fingerprint(fuzz_dir)
        else:
            fuzzed_print = logical_fingerprint(db)
            store.close()

        replay = registry.create(
            backend_name,
            path=(
                os.path.join(serial_dir, "db.pages")
                if info.persistent
                else None
            ),
        )
        replay_db = LabBase(replay)
        bootstrap_schema(replay_db)
        if servable:
            witness = LabFlowService(replay_db, group_cap=1)
            witness.open_session("serial")
            # The witness must replay units in completion order — one
            # session, one unit at a time, so there is nothing to rank.
            # lint: ignore[LF08] -- serial replay preserves completion order
            for _session, op, args in completed:
                witness.submit("serial", op, args)
            witness.shutdown()
        else:
            for _session, op, args in completed:
                apply_unit(replay_db, op, args)
        if info.persistent:
            replay.close()
            serial_print = file_fingerprint(serial_dir)
        else:
            serial_print = logical_fingerprint(replay_db)
            replay.close()

    return FuzzReport(
        backend=backend_name,
        seed=seed,
        sessions=n_sessions,
        units_per_session=units_per_session,
        completed_units=len(completed),
        commit_stalls=commit_stalls,
        identical=fuzzed_print == serial_print,
        fingerprint=fuzzed_print,
    )


def fuzz_sweep(
    backend_names: Sequence[str] | None = None,
    *,
    seeds: Sequence[int] = (0, 1),
    sessions: int = DEFAULT_SESSIONS,
    units_per_session: int = DEFAULT_UNITS,
) -> list[FuzzReport]:
    """Fuzz every backend (or the named ones) across ``seeds``."""
    names = (
        list(backend_names)
        if backend_names is not None
        else list(registry.backend_names())
    )
    reports = []
    # Backends run one at a time in registry column order; each run tears
    # its service down before the next starts, so nothing is held across
    # iterations and acquisition ranking across sessions does not apply.
    # lint: ignore[LF08] -- sequential sweep, no locks held across runs
    for name in names:
        # lint: ignore[LF08] -- sequential sweep, no locks held across runs
        for seed in seeds:
            reports.append(
                fuzz_backend(
                    name,
                    seed=seed,
                    sessions=sessions,
                    units_per_session=units_per_session,
                )
            )
    return reports

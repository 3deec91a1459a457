"""Seeded inputs: the preloaded database and the per-client op scripts.

Everything a run feeds the program is made here from ``--seed`` before
any clock starts: the database contents (states and measured values),
and for each of the two lab stations the full list of units it will
send, each with the answer it must get back where that answer can be
known beforehand.  The program under test receives only these inputs.

Valid times are globally unique (the preload uses ``1..T0``; unit ``i``
of client ``c`` uses ``T0 + 1 + i * CLIENTS + c``), so "the most recent
value by valid time" is decidable however the two stations interleave.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from repro.labbase.bulkload import BulkLoader
from repro.labbase.database import LabBase
from repro.server import bootstrap_schema
from repro.storage.objectstore import ObjectStoreSM

#: ``nproc`` is 2: one generator process, two closed-loop stations.
CLIENTS = 2
#: Workflow states of the scripted schema (``bootstrap_schema`` has one
#: material class, ``clone``, and one step class, ``measure(value)``).
STATES = ("active", "busy", "done")
STEPS_PER_MATERIAL = 3
#: Share of every script that runs before the clock starts.
WARMUP_SHARE = 0.05
#: Share of every script the in-process traced pass replays.
TRACED_SHARE = 0.25
#: Unit counts below are sized so one workload measures for about this
#: long at the seed commit; ``--seconds S`` scales all four by S / 25.
NOMINAL_SECONDS = 25

UPDATE_OPS = ("record_step", "set_state", "create_material")

MIX = (
    ("record_step", 40), ("set_state", 15), ("create_material", 5),
    ("most_recent", 16), ("lookup", 10), ("history_len", 6),
    ("state_of", 4), ("in_state", 4),
)
READ_MIX = (
    ("most_recent", 50), ("history_len", 25), ("lookup", 15), ("state_of", 10),
)


@dataclass(frozen=True)
class ServedWorkload:
    """One served workload: how big, what mix, who touches what."""

    name: str
    units: int            # at scale 1.0, both clients together
    materials: int        # preloaded, STEPS_PER_MATERIAL steps each
    mix: tuple[tuple[str, int], ...]
    partitioned: bool     # each client owns a contiguous half
    why: str


SERVED = {
    spec.name: spec
    for spec in (
        ServedWorkload(
            "served_mix_hot", 36_000, 500, MIX, False,
            "60% updates, both clients on the same 500 materials (fits pool "
            "and object cache): per-unit wire/service/lock/LabBase/encode work "
            "and lock conflicts with commit stalls dominate",
        ),
        ServedWorkload(
            "served_mix_large", 10_000, 16_000, MIX, True,
            "same mix on 16000 materials (3x the pool, 16x the object cache), "
            "one half per client: group commit at cap 8, O(database) "
            "checkpoint blob per commit and buffer faults dominate",
        ),
        ServedWorkload(
            "served_read_large", 100_000, 16_000, READ_MIX, False,
            "read-only on the large database, every answer checked against "
            "the preload: wire, service, buffer pool, page reads and decode; "
            "a write-path change must leave it flat",
        ),
    )
}

STREAM_NAME = "stream_e1"
#: ``clones_per_interval`` of the paper stream at scale 1.0.
STREAM_CLONES_PER_INTERVAL = 500
STREAM_WHY = (
    "the paper's E1 update stream embedded on on-disk OStore, one commit per "
    "transaction, no wire/service/group commit/checkpoint: workflow engine, "
    "LabBase, object cache and encode dominate"
)

WORKLOAD_NAMES = (*SERVED, STREAM_NAME)


def scaled_units(spec: ServedWorkload, scale: float) -> int:
    """Unit count at ``scale``: even, and never so small a phase is empty."""
    per_client = max(40, round(spec.units * scale / CLIENTS))
    return per_client * CLIENTS


def stream_clones(scale: float) -> int:
    return max(4, round(STREAM_CLONES_PER_INTERVAL * scale))


@dataclass
class Preload:
    """What the built database holds, by material index."""

    oids: list[int]
    keys: list[str]
    states: list[str]
    values: list[int]     # most-recent "value" of each material
    last_time: int        # T0: the highest valid time the preload used


def build_database(path: str, materials: int, seed: int) -> Preload:
    """Build and close the preloaded database through the public API."""
    rng = random.Random(f"labflow-e2e-preload-{seed}")
    sm = ObjectStoreSM(path)
    try:
        db = LabBase(sm)
        bootstrap_schema(db)
        loader = BulkLoader(db)
        keys = [f"m-{index:05d}" for index in range(materials)]
        states = [rng.choice(STATES) for _ in range(materials)]
        values = [0] * materials
        tick = 0
        refs = []
        for index in range(materials):
            tick += 1
            refs.append(
                loader.add_material("clone", keys[index], tick, state=states[index])
            )
        for index in range(materials):
            for _ in range(STEPS_PER_MATERIAL):
                tick += 1
                values[index] = rng.randrange(1_000_000)
                loader.add_step(
                    "measure", tick, [refs[index]], {"value": values[index]}
                )
        oid_of = loader.flush()
        sm.commit()
    finally:
        sm.close()
    return Preload(
        oids=[oid_of[ref] for ref in refs],
        keys=keys,
        states=states,
        values=values,
        last_time=tick,
    )


def database_bytes(path: str) -> int:
    """Page file plus metadata blob, as they lie on disk."""
    return os.path.getsize(path) + os.path.getsize(path + ".meta")


#: A unit is ``(op, args, expected)``; ``expected`` is ``None`` when the
#: answer depends on how the two clients interleave.
Unit = tuple[str, dict[str, object], object]


def make_scripts(
    spec: ServedWorkload, preload: Preload, seed: int, units: int
) -> list[list[Unit]]:
    """One script per client, ``units // CLIENTS`` units each.

    Expected answers assume every earlier unit of the same client was
    acknowledged; the run checks them only while that holds.
    """
    scripts = []
    per_client = units // CLIENTS
    ops = [op for op, _weight in spec.mix]
    count = len(preload.oids)
    for client in range(CLIENTS):
        rng = random.Random(f"labflow-e2e-{spec.name}-{seed}-{client}")
        if spec.partitioned:
            low = client * count // CLIENTS
            high = (client + 1) * count // CLIENTS
        else:
            low, high = 0, count
        # A client's view is exact when nobody else writes what it reads:
        # on its own half, or when the workload has no updates at all.
        exact = spec.partitioned or not set(ops) & set(UPDATE_OPS)
        values = dict(enumerate(preload.values))
        lengths = dict.fromkeys(range(count), STEPS_PER_MATERIAL)
        states = dict(enumerate(preload.states))
        script: list[Unit] = []
        for index, op in enumerate(_mixed(rng, spec.mix, per_client)):
            target = rng.randrange(low, high)
            oid = preload.oids[target]
            tick = preload.last_time + 1 + index * CLIENTS + client
            expected: object = None
            if op == "record_step":
                value = rng.randrange(1_000_000)
                args: dict[str, object] = {
                    "class_name": "measure", "valid_time": tick,
                    "involves": [oid], "results": {"value": value},
                }
                values[target] = value
                lengths[target] += 1
            elif op == "set_state":
                state = rng.choice(STATES)
                args = {"material_oid": oid, "state": state, "valid_time": tick}
                states[target] = state
            elif op == "create_material":
                args = {
                    "class_name": "clone", "key": f"c{client}-new-{index:06d}",
                    "valid_time": tick, "state": rng.choice(STATES),
                }
            elif op == "most_recent":
                args = {"material_oid": oid, "attribute": "value"}
                expected = values[target] if exact else None
            elif op == "lookup":
                args = {"class_name": "clone", "key": preload.keys[target]}
                expected = oid
            elif op == "history_len":
                args = {"material_oid": oid}
                expected = lengths[target] if exact else None
            elif op == "state_of":
                args = {"material_oid": oid}
                expected = states[target] if exact else None
            else:  # in_state: a global answer, only its shape is checked
                args = {"state": rng.choice(STATES)}
            script.append((op, args, expected))
        scripts.append(script)
    return scripts


def _mixed(
    rng: random.Random, mix: tuple[tuple[str, int], ...], length: int
) -> list[str]:
    """The mix in exact proportion within every block of sum-of-weights
    (100) units, shuffled inside the block: seeds and stretches of a run
    differ in order and targets, not in how many of each op they hold."""
    block = [op for op, weight in mix for _ in range(weight)]
    ops: list[str] = []
    while len(ops) < length:
        rng.shuffle(block)
        ops += block
    return ops[:length]


def warmup_units(script_length: int) -> int:
    return int(script_length * WARMUP_SHARE)


def traced_units(script_length: int) -> int:
    return max(warmup_units(script_length) + 1, int(script_length * TRACED_SHARE))


def final_state(
    preload: Preload,
    scripts: list[list[Unit]],
    acknowledged: list[list[bool]],
) -> tuple[list[int], list[int]]:
    """History length and most-recent value of every preloaded material
    after exactly the acknowledged units, whatever their interleaving."""
    index_of = {oid: index for index, oid in enumerate(preload.oids)}
    lengths = [STEPS_PER_MATERIAL] * len(preload.oids)
    # The preload's own steps all predate T0, so any acknowledged step wins.
    newest = [(0, value) for value in preload.values]
    for script, acks in zip(scripts, acknowledged):
        for (op, args, _expected), ok in zip(script, acks):
            if op != "record_step" or not ok:
                continue
            involves = args["involves"]
            results = args["results"]
            assert isinstance(involves, list) and isinstance(results, dict)
            target = index_of[involves[0]]
            lengths[target] += 1
            candidate = (args["valid_time"], results["value"])
            if candidate > newest[target]:
                newest[target] = candidate
    return lengths, [value for _tick, value in newest]

"""A6 (ablation) — group commit in the served session layer.

The page-server story of Section 10 only pays off if concurrent
sessions' commits can share their durability cost.  This ablation
drives an E8-style mix (record_step + set_state + a most_recent read
per round) through ``LabFlowService`` at 1, 2, 4 and 8 concurrent
sessions — units interleaved round-robin, each session on its own
page — with group commit on (group cap = session count) and off (group
cap 1: one storage commit per update unit).  Reported per setting: wall clock per
update unit, storage commits, mean group width, vectored I/O batches
and checkpoint bytes per unit.

One more leg is *contended*: two sessions drawing every target from one
page, 60 % updates / 40 % checking queries.  There an update holds
the page next to its commit-mates — it checks nothing, so no stall —
while a query that meets a pending writer closes the group early, so
this is the leg whose ``commit_stalls`` is not 0 by construction.

The acceptance floor pinned here (and in tests/test_server.py): at four
sessions, grouping must make *strictly* fewer io_batches + meta bytes
per committed step than the sequential per-unit baseline.
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

from repro.labbase import LabBase
from repro.obs.registry import metric
from repro.server import LabFlowService, LocalClient, bootstrap_schema
from repro.storage import PAGE_SIZE, ObjectStoreSM
from repro.util.fmt import format_table

from _common import emit

_SESSION_COUNTS = (1, 2, 4, 8)
_ROUNDS = 24

#: The contended leg's script, repeated: six updates (the first four
#: fill a group of cap 4, two stay pending), then four locking queries
#: (the first meets the pending two and stalls, the rest find no group).
_CONTENDED_PATTERN = "UUUUUUQQQQ"
_CONTENDED_CAP = 4


def _spread_sessions(sm, clients):
    """One material per session, each on its own page, so the sweep
    measures commit amortization, not page contention.

    A record that outgrows its page moves to the segment's last page,
    where two sessions' materials would meet.  So each material takes
    its first step and state here — with a value wider than any the
    rounds write, so that from then on it only shrinks in place — and
    only then is followed by two pages' worth of fillers, counted from
    what the store charges for a material record: a whole filler page
    between any two sessions' pages, so that no commit writes them as
    one vectored run and io_batches counts the same runs grouped or not.
    """
    tick = 0
    oids = []
    fillers = 0
    for index, client in enumerate(clients):
        tick += 1
        oid = client.create_material(
            "clone", f"{client.session}-m", tick, state="active"
        )
        oids.append(oid)
        if not fillers:
            page = sm.fetch_page(sm.pages_of(oid)[0])
            fillers = 2 * PAGE_SIZE * page.record_count // page.charge_bytes + 1
        tick += 1
        client.record_step("measure", tick, [oid], {"value": "-" * 32})
        tick += 1
        client.set_state(oid, "active", tick)
        for filler in range(fillers):
            tick += 1
            clients[0].create_material("clone", f"fill-{index}-{filler}", tick)
    return oids, tick


def _run(sessions: int, group: bool) -> tuple[dict, float]:
    """The swept setting's counts, and its wall clock per update unit (us)."""
    with tempfile.TemporaryDirectory() as workdir:
        sm = ObjectStoreSM(
            path=os.path.join(workdir, "db.pages"), checkpoint_every=1
        )
        db = LabBase(sm)
        bootstrap_schema(db)
        service = LabFlowService(db, group_cap=sessions if group else 1)
        clients = [LocalClient(service, f"c{i}") for i in range(sessions)]
        oids, tick = _spread_sessions(sm, clients)
        service.drain()

        before = sm.stats.snapshot()
        units = 0
        started = time.perf_counter()
        for _round in range(_ROUNDS):
            # round-robin interleave: every session contributes one
            # update unit before any session contributes its next
            for client, oid in zip(clients, oids):
                tick += 1
                client.record_step("measure", tick, [oid], {"value": tick})
                units += 1
            for client, oid in zip(clients, oids):
                tick += 1
                client.set_state(oid, "busy" if tick % 2 else "active", tick)
                units += 1
            for client, oid in zip(clients, oids):
                client.most_recent(oid, "value")
        service.drain()
        elapsed = time.perf_counter() - started
        delta = sm.stats.delta(before)

        service.shutdown()
        assert db.verify_storage().ok
        sm.close()

    counts = {
        "sessions": sessions,
        "group_commit": group,
        "units": units,
        "commits": delta["commits"],
        "group_commits": delta["group_commits"],
        "sessions_per_group": delta["sessions_per_group"],
        "group_width": metric("group_width").compute(delta),
        "commit_stalls": delta["commit_stalls"],
        "io_batches": delta["io_batches"],
        "meta_bytes_written": delta["meta_bytes_written"],
        "page_writes": delta["page_writes"],
        "cost_per_unit": (delta["io_batches"] + delta["meta_bytes_written"])
        / units,
    }
    return counts, elapsed / units * 1e6


def _run_contended() -> dict:
    """Two sessions, one page, scripted and single-threaded like the
    sweep: units alternate between the sessions, targets rotate over
    four materials created back to back."""
    with tempfile.TemporaryDirectory() as workdir:
        sm = ObjectStoreSM(
            path=os.path.join(workdir, "db.pages"), checkpoint_every=1
        )
        db = LabBase(sm)
        bootstrap_schema(db)
        service = LabFlowService(db, group_cap=_CONTENDED_CAP)
        clients = [LocalClient(service, f"c{i}") for i in range(2)]
        oids = [
            clients[n % 2].create_material("clone", f"hot-{n}", n + 1, state="active")
            for n in range(4)
        ]
        tick = len(oids)
        for client, oid in zip(clients, oids):
            tick += 1
            client.record_step("measure", tick, [oid], {"value": tick})
        service.drain()
        assert len({page for oid in oids for page in sm.pages_of(oid)}) == 1

        before = sm.stats.snapshot()
        stalls = {"U": 0, "Q": 0}
        units = {"U": 0, "Q": 0}
        for turn, kind in enumerate(_CONTENDED_PATTERN * _ROUNDS):
            client, oid = clients[turn % 2], oids[(turn // 2) % len(oids)]
            stalls_before = sm.stats.commit_stalls
            tick += 1
            if kind == "Q":
                if turn % 4 < 2:
                    client.most_recent(oid, "value")
                else:
                    client.state_of(oid)
            elif turn % 4 < 2:
                client.record_step("measure", tick, [oid], {"value": tick})
            else:
                client.set_state(oid, "busy" if tick % 2 else "active", tick)
            units[kind] += 1
            stalls[kind] += sm.stats.commit_stalls - stalls_before
        service.drain()
        delta = sm.stats.delta(before)

        service.shutdown()
        assert db.verify_storage().ok
        sm.close()

    return {
        "sessions": len(clients),
        "units": units["U"] + units["Q"],
        "update_units": units["U"],
        "query_units": units["Q"],
        "commits": delta["commits"],
        "group_commits": delta["group_commits"],
        "sessions_per_group": delta["sessions_per_group"],
        "group_width": metric("group_width").compute(delta),
        "commit_stalls": delta["commit_stalls"],
        "commit_stall_ratio": metric("commit_stall_ratio").compute(delta),
        "update_stalls": stalls["U"],
        "query_stalls": stalls["Q"],
        "lock_waits": delta["lock_waits"],
        "page_writes": delta["page_writes"],
        "cache_misses": delta["cache_misses"],
        "objects_read": delta["objects_read"],
    }


def _payload(runs: dict, contended: dict) -> dict:
    """The committed counts: every swept setting, then the contended leg."""
    payload = {
        f"s{sessions}_{'on' if group else 'off'}": run
        for (sessions, group), run in runs.items()
    }
    payload["contended"] = contended
    return payload


@pytest.fixture(scope="module")
def sweep():
    return {
        (sessions, group): _run(sessions, group)
        for sessions in _SESSION_COUNTS
        for group in (True, False)
    }


def test_a6_emit_table(benchmark, sweep):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    runs = {setting: counts for setting, (counts, _us) in sweep.items()}
    rows = []
    for sessions in _SESSION_COUNTS:
        for group in (True, False):
            run, unit_us = sweep[(sessions, group)]
            rows.append(
                [
                    f"{sessions}",
                    "on" if group else "off",
                    f"{unit_us:.0f}",
                    f"{run['commits']}",
                    f"{run['group_width']:.2f}",
                    f"{run['commit_stalls']}",
                    f"{run['io_batches']}",
                    f"{run['meta_bytes_written']}",
                    f"{run['cost_per_unit']:.1f}",
                ]
            )
    text = format_table(
        [
            "sessions",
            "group",
            "us/unit",
            "commits",
            "width",
            "stalls",
            "io_batches",
            "meta bytes",
            "cost/unit",
        ],
        rows,
        title="A6: group commit across concurrent sessions (E8-style mix)",
        align_right=(2, 3, 4, 5, 6, 7, 8),
    )
    contended = _run_contended()
    text += "\n\n" + format_table(
        ["units", "updates", "queries", "commits", "width", "stalls",
         "by updates", "by queries", "stall ratio"],
        [[
            f"{contended['units']}",
            f"{contended['update_units']}",
            f"{contended['query_units']}",
            f"{contended['commits']}",
            f"{contended['group_width']:.2f}",
            f"{contended['commit_stalls']}",
            f"{contended['update_stalls']}",
            f"{contended['query_stalls']}",
            f"{contended['commit_stall_ratio']:.2f}",
        ]],
        title=(
            "A6 contended: two sessions on one page, "
            f"group cap {_CONTENDED_CAP}, 60% updates / 40% locking queries"
        ),
        align_right=tuple(range(9)),
    )
    emit("a6_group_commit", text, payload=_payload(runs, contended))

    # The acceptance floor: at 4 concurrent sessions, group commit must
    # cost strictly less I/O per committed step than per-unit commits.
    grouped, sequential = runs[(4, True)], runs[(4, False)]
    assert grouped["units"] == sequential["units"]
    assert grouped["cost_per_unit"] < sequential["cost_per_unit"], (
        f"grouped {grouped['cost_per_unit']:.1f} !< "
        f"sequential {sequential['cost_per_unit']:.1f}"
    )
    assert grouped["meta_bytes_written"] < sequential["meta_bytes_written"]
    assert grouped["io_batches"] <= sequential["io_batches"]
    assert grouped["commits"] < sequential["commits"]

    # grouping must actually batch once there is someone to batch with,
    # and the batch should widen with the session count
    assert runs[(2, True)]["group_width"] > 1.0
    assert runs[(8, True)]["group_width"] > runs[(2, True)]["group_width"]
    for sessions in _SESSION_COUNTS:
        assert runs[(sessions, False)]["group_width"] <= 1.0

    # the contended leg: an update builds on its commit-mates' pages, so
    # only a query — an observer — ever closes a group early, and not
    # every group
    assert contended["update_stalls"] == 0
    assert contended["query_stalls"] == contended["commit_stalls"] > 0
    assert 0.0 < contended["commit_stall_ratio"] < 1.0
    assert contended["group_width"] > 1.0
    # and handing the page from one session to the other costs no cache
    # miss: both sessions share the one cache, which stays warm
    assert contended["cache_misses"] == 0


@pytest.mark.parametrize("group", [True, False], ids=["group_on", "group_off"])
def test_a6_four_session_unit_latency(benchmark, group):
    with tempfile.TemporaryDirectory() as workdir:
        sm = ObjectStoreSM(
            path=os.path.join(workdir, "db.pages"), checkpoint_every=1
        )
        db = LabBase(sm)
        bootstrap_schema(db)
        service = LabFlowService(db, group_cap=4 if group else 1)
        clients = [LocalClient(service, f"c{i}") for i in range(4)]
        oids, tick = _spread_sessions(sm, clients)
        service.drain()
        state = {"tick": tick, "turn": 0}

        def unit():
            state["tick"] += 1
            state["turn"] = (state["turn"] + 1) % 4
            clients[state["turn"]].record_step(
                "measure", state["tick"], [oids[state["turn"]]],
                {"value": state["tick"]},
            )

        benchmark(unit)
        service.shutdown()
        sm.close()

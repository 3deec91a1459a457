#!/usr/bin/env python3
"""Multi-user access: the concurrency gap between the storage managers.

The paper's usability comparison: ObjectStore mediates all access
through a page server with lock-based concurrency control; Texas
programs access their database file directly, so only one client may
attach.  This example runs a three-station lab (data entry, a
sequencing daemon, a report writer) through the served session layer
over ObjectStore — the report writer's query meets a page the daemon's
still-pending unit holds, and the service closes the commit group
early so the query reads a durable value — and then shows Texas
refusing the second user.

Run:  python examples/multi_user_lab.py
"""

from repro import LabBase, ObjectStoreSM, TexasSM
from repro.errors import ConcurrencyUnsupportedError
from repro.server import LabFlowService, LocalClient


def define_schema(db: LabBase) -> None:
    db.define_material_class("clone")
    db.define_step_class("determine_sequence", ["sequence", "quality"], ["clone"])


def main() -> None:
    print("== ObjectStore: three concurrent stations ==")
    sm = ObjectStoreSM()
    db = LabBase(sm)
    define_schema(db)
    service = LabFlowService(db, group_cap=8)
    entry = LocalClient(service, "data-entry")
    daemon = LocalClient(service, "sequencing-daemon")
    reports = LocalClient(service, "report-writer")
    print(f"sessions open: {service.open_sessions()}")

    clone = entry.create_material("clone", "clone-000001", 1,
                                  state="waiting_for_sequencing")
    # the daemon's unit executes now; it is durable when its group closes
    daemon.record_step("determine_sequence", 2, [clone],
                       {"sequence": "ACGTACGT", "quality": 0.91})
    pending = service.sample()["pending_units"]
    print(f"daemon: recorded sequencing result ({pending} units pending, "
          f"the clone's page locked until they commit)")

    # the report writer's query meets the daemon's lock: the service
    # closes the open group early, then answers from durable state
    quality = reports.most_recent(clone, "quality")
    print(f"report-writer: quality = {quality}, "
          f"commit_stalls = {sm.stats.commit_stalls}")
    for client in (entry, daemon, reports):
        client.close()
    service.shutdown()
    sm.close()

    print("\n== Texas: single-client only ==")
    texas = TexasSM()
    texas_db = LabBase(texas)
    define_schema(texas_db)
    texas_service = LabFlowService(texas_db)
    LocalClient(texas_service, "the-one-user")
    print("first user attached fine")
    try:
        LocalClient(texas_service, "a-second-user")
    except ConcurrencyUnsupportedError as exc:
        print(f"second user refused -> {exc}")
    texas_service.shutdown()
    texas.close()


if __name__ == "__main__":
    main()

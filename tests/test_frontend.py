"""The served front-end over a real socket: one loop thread, many peers.

Every case drives an awkward peer — pipelining, dribbling, oversized,
garbage, half a line, never reading, dropped — next to a second, healthy
connection that must keep getting answers, because on one thread a peer
that could stall the loop would stall everyone.
"""

import os
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ProtocolError, ServerError, UnknownMaterialError
from repro.labbase import LabBase
from repro.obs import UnitTracer
from repro.server import (
    ClientRunner,
    LabFlowService,
    Request,
    ServiceClient,
    ServiceRunner,
    bootstrap_schema,
    communicator,
    decode_response,
    encode_request,
    service_runner,
)
from repro.storage import ObjectStoreSM

TIMEOUT = 10.0


class Peer:
    """A raw socket speaking the wire protocol, as badly as a test likes."""

    def __init__(self, host, port, rcvbuf=None):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:  # before connect: it sizes the window
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(TIMEOUT)
        self.sock.connect((host, port))
        self.reader = self.sock.makefile("rb")

    def send(self, *requests):
        self.sock.sendall(b"".join(encode_request(r) for r in requests))

    def reply(self):
        header = self.reader.read(4)
        assert len(header) == 4, f"no reply, got {header!r}"
        (length,) = struct.unpack("<I", header)
        return decode_response(header + self.reader.read(length))

    def at_eof(self):
        return self.reader.read(1) == b""

    def close(self):  # again at teardown does no harm
        self.reader.close()
        self.sock.close()


@pytest.fixture
def served(tmp_path):
    sm = ObjectStoreSM(path=str(tmp_path / "db.pages"), checkpoint_every=1)
    db = LabBase(sm)
    bootstrap_schema(db)
    tracer = UnitTracer()
    service = LabFlowService(db, group_cap=4, tracer=tracer)
    runner = ServiceRunner(service)
    host, port = runner.start()
    healthy = ServiceClient(host, port, "healthy")
    healthy.create_material("clone", "h-0", 1, state="active")
    peers = []

    def connect(**kwargs):
        peers.append(Peer(host, port, **kwargs))
        return peers[-1]

    yield connect, healthy, service, runner
    for peer in peers:
        peer.close()
    runner.stop()
    sm.close()


def _still_served(healthy):
    """The healthy connection gets a right answer, now."""
    assert healthy.lookup("clone", "h-0") > 0
    assert healthy.state_of(healthy.lookup("clone", "h-0")) == "active"


def _until(condition, what):
    deadline = time.monotonic() + TIMEOUT
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


# -- framing -----------------------------------------------------------------


def test_pipelined_requests_are_answered_in_order_by_few_sends(served, monkeypatch):
    connect, healthy, _service, _runner = served
    sends = []
    original = ServiceRunner._send

    def counting(self, conn):
        sends.append(len(conn.out))
        original(self, conn)

    monkeypatch.setattr(ServiceRunner, "_send", counting)
    peer = connect()
    count = 200
    peer.send(
        Request(op="open_session", session="p"),
        *(
            Request(
                op="create_material", session="p",
                args={"class_name": "clone", "key": f"p-{i}", "valid_time": i},
            )
            for i in range(count)
        ),
        *(
            Request(op="lookup", session="p",
                    args={"class_name": "clone", "key": f"p-{i}"})
            for i in range(count)
        ),
    )
    assert peer.reply().ok
    created = [peer.reply().value for _ in range(count)]
    assert created == sorted(created) and len(set(created)) == count
    assert [peer.reply().value for _ in range(count)] == created
    # 401 frames arrived in a handful of segments, and left in as many.
    assert len(sends) <= 16
    _still_served(healthy)


def test_request_dribbled_a_byte_at_a_time(served):
    connect, healthy, _service, _runner = served
    peer = connect()
    frame = encode_request(Request(op="ping"))
    for index in range(len(frame)):
        peer.sock.sendall(frame[index:index + 1])
        if index == len(frame) // 2:
            _still_served(healthy)  # half a frame holds nobody up
    assert peer.reply().value == "pong"
    _still_served(healthy)


def test_oversized_unterminated_line_costs_its_connection_only(served, monkeypatch):
    connect, healthy, _service, _runner = served
    held = []
    original = communicator.FrameBuffer.feed

    def measuring(self, data):
        original(self, data)
        held.append(len(self))

    monkeypatch.setattr(communicator.FrameBuffer, "feed", measuring)
    peer = connect()
    # A header announcing one byte past the cap is refused as it arrives:
    # nothing of the body it announces is waited for.
    header = struct.pack("<I", communicator.MAX_MESSAGE_BYTES + 1)
    peer.sock.sendall(header + b"x" * 100)
    reply = peer.reply()
    assert not reply.ok and reply.error_type == "ProtocolError"
    assert "exceed" in reply.error
    assert peer.at_eof()
    assert max(held) <= 4 + communicator.RECV_BYTES
    _still_served(healthy)


def _frame(body):
    return struct.pack("<I", len(body)) + body


_PING = b"\x09\x00\x00"  # op code 9, empty session; then its tagged args
_EMPTY_ARGS = b"\x08\x00\x00\x00\x00"


@pytest.mark.parametrize(
    "line",
    [
        _frame(b"this is not json"),
        _frame(_PING + b"\x09\x03\x00\x00\x00" + struct.pack("<3q", 1, 2, 3)),
        _frame(b"\x00\x06\x00nobody\x00\x00" + _EMPTY_ARGS),
        _frame(b"\x09\x02\x00\xff\xfe" + _EMPTY_ARGS),
        _frame(_PING + b"\x07\x01\x00\x00\x00" * 100_000 + b"\x00"),
    ],
    ids=["garbage", "not-an-object", "no-op", "not-utf8", "nested-too-deep"],
)
def test_malformed_frame_costs_its_connection_only(served, line):
    connect, healthy, _service, _runner = served
    peer = connect()
    peer.send(Request(op="ping"))
    peer.sock.sendall(line + encode_request(Request(op="ping")))
    assert peer.reply().value == "pong"  # what came before is answered
    reply = peer.reply()
    assert not reply.ok and reply.error_type == "ProtocolError"
    assert peer.at_eof()  # what came after is not
    _still_served(healthy)


def test_eof_mid_line(served):
    connect, healthy, _service, _runner = served
    peer = connect()
    peer.sock.sendall(encode_request(Request(op="ping"))[:-5])
    peer.sock.shutdown(socket.SHUT_WR)
    reply = peer.reply()
    assert not reply.ok and reply.error_type == "ProtocolError"
    assert peer.at_eof()
    _still_served(healthy)


def test_bye_closes_after_answering(served):
    connect, healthy, _service, _runner = served
    peer = connect()
    peer.send(Request(op="ping"), Request(op="bye"), Request(op="ping"))
    assert peer.reply().value == "pong"
    assert peer.reply().value == "pong"  # bye's own answer
    assert peer.at_eof()
    _still_served(healthy)


@pytest.mark.parametrize(
    "args",
    [
        {"material_oid": 1e999},
        {"material_oid": "seven"},
        {"material_oid": None},
        {"material_oid": [1]},
        {"material_oid": 7.5},
    ],
    ids=["infinite", "word", "null", "list", "fraction"],
)
def test_bad_argument_is_a_typed_error_not_a_dead_connection(served, args):
    connect, healthy, _service, _runner = served
    peer = connect()
    peer.send(
        Request(op="open_session", session="p"),
        Request(op="state_of", session="p", args=args),
        Request(op="record_step", session="p", args={
            "class_name": "measure", "valid_time": 1,
            "involves": [args["material_oid"]],
        }),
        Request(op="ping"),
    )
    assert peer.reply().ok
    for _ in range(2):
        reply = peer.reply()
        assert not reply.ok and reply.error_type == "ProtocolError"
    assert peer.reply().value == "pong"
    _still_served(healthy)


def test_a_reply_over_the_bound_is_refused_and_the_connection_kept():
    """A stored value too large for one frame: its query gets a typed
    ``ProtocolError`` instead of a frame the client must refuse, and the
    client's next call on the same connection is answered right."""
    db = LabBase(ObjectStoreSM())
    bootstrap_schema(db)
    oid = db.create_material("clone", "big-0", 1, state="active")
    huge = "x" * (communicator.MAX_MESSAGE_BYTES + 10)
    db.record_step("measure", 2, [oid], {"value": huge})
    runner = ServiceRunner(LabFlowService(db, group_cap=1))
    host, port = runner.start()
    client = ServiceClient(host, port, "big")
    other = ServiceClient(host, port, "other")
    try:
        with pytest.raises(ProtocolError, match="exceeds"):
            client.most_recent(oid, "value")
        assert client.state_of(oid) == "active"
        assert other.lookup("clone", "big-0") == oid
    finally:
        client.close()
        other.close()
        runner.stop()


def test_a_missing_or_misspelt_argument_is_a_typed_error_not_a_guess(served):
    """An op's arguments are exactly its fields: a ``lookup`` with no
    ``key`` looked up the material 'None', and ``stat=`` in place of
    ``state=`` created a material with no state and no error."""
    connect, healthy, _service, _runner = served
    peer = connect()
    peer.send(
        Request(op="open_session", session="p"),
        Request(op="lookup", session="p", args={"class_name": "clone"}),
        Request(op="create_material", session="p", args={
            "class_name": "clone", "key": "p-0", "valid_time": 2,
            "stat": "active",
        }),
        Request(op="ping"),
    )
    assert peer.reply().ok
    for _ in range(2):
        reply = peer.reply()
        assert not reply.ok and reply.error_type == "ProtocolError"
    assert peer.reply().value == "pong"
    with pytest.raises(UnknownMaterialError):
        healthy.lookup("clone", "p-0")
    _still_served(healthy)


def test_a_bug_behind_one_frame_costs_its_connection_only(served, monkeypatch, capsys):
    connect, healthy, service, _runner = served

    def broken():
        raise RuntimeError("not a ReproError")

    monkeypatch.setattr(service, "drain", broken)
    peer = connect()
    peer.send(Request(op="drain"))
    assert peer.at_eof()
    assert "RuntimeError: not a ReproError" in capsys.readouterr().err
    _still_served(healthy)


def test_a_bug_inside_one_unit_costs_its_connection_only(served, monkeypatch, capsys):
    """``drain`` above is not a unit; this bug strikes with the unit's
    locks taken and the object cache buffering for it."""
    connect, healthy, _service, _runner = served
    oid = healthy.lookup("clone", "h-0")
    healthy.drain()

    def broken(self, material_oid, state, valid_time):
        raise ValueError("not a ReproError")

    monkeypatch.setattr(LabBase, "set_state", broken)
    peer = connect()
    peer.send(Request(op="open_session", session="p"))
    assert peer.reply().ok
    peer.send(Request(op="set_state", session="p",
                      args={"material_oid": oid, "state": "busy", "valid_time": 2}))
    assert peer.at_eof()
    assert "ValueError: not a ReproError" in capsys.readouterr().err
    _still_served(healthy)


# -- many peers, slow peers --------------------------------------------------


def test_sixty_four_simultaneous_connections(served):
    connect, healthy, _service, _runner = served
    peers = [connect() for _ in range(64)]
    for index, peer in enumerate(peers):
        peer.send(Request(op="open_session", session=f"s{index}"))
    for index, peer in enumerate(peers):
        peer.send(Request(
            op="create_material", session=f"s{index}",
            args={"class_name": "clone", "key": f"k{index}", "valid_time": index},
        ))
    oids = []
    for peer in peers:
        assert peer.reply().ok
        oids.append(peer.reply().value)
    assert len(set(oids)) == 64
    assert healthy.sample()["open_sessions"] == 65
    names = [thread.name for thread in threading.enumerate()]
    assert names.count("labflow-loop") == 1
    _still_served(healthy)


def test_peer_that_never_reads_is_paused_and_resumes(served, monkeypatch):
    connect, healthy, _service, _runner = served
    bound = 32 * 1024
    monkeypatch.setattr(service_runner, "MAX_MESSAGE_BYTES", bound)
    oid = healthy.lookup("clone", "h-0")
    members = 1500
    for index in range(members):
        healthy.create_material("clone", f"m-{index}", index, state="crowd")
    healthy.drain()
    reply_bytes = len(str(healthy.in_state("crowd")))
    requests = 3000  # ~25 MB of answers: more than any socket buffer takes
    assert requests * reply_bytes > 20 * 2**20

    def answered():
        return healthy.sample()["trace"]["by_event"]["unit_end"]

    before = answered()
    stalled = connect(rcvbuf=4096)
    stalled.send(Request(op="open_session", session="stalled"))
    assert stalled.reply().ok
    writer = threading.Thread(target=stalled.send, args=[
        Request(op="in_state", session="stalled", args={"state": "crowd"})
    ] * requests)
    writer.start()

    # The loop answers until the kernel takes no more and the unsent
    # replies pass the bound, then leaves the rest of the requests be.
    seen = [before]

    def settled():
        seen.append(answered())
        return len(seen) > 5 and len(set(seen[-5:])) == 1

    _until(settled, "the stalled peer to be paused")
    paused_at = answered() - before
    assert 0 < paused_at < requests
    for _ in range(50):  # the other station is served meanwhile
        assert healthy.state_of(oid) == "active"
    assert answered() - before == paused_at + 50

    # The peer reads: everything it asked for arrives, in order.
    for _ in range(requests):
        value = stalled.reply().value
        assert len(value) == members
    writer.join(TIMEOUT)
    assert not writer.is_alive()
    assert answered() - before == requests + 50
    stalled.send(Request(op="ping"))
    assert stalled.reply().value == "pong"


# A server whose process runs out of descriptors once its first client is
# in: every hole below the highest open descriptor is filled, and the
# limit allows none above it.
_SERVE_AT_THE_FD_LIMIT = """
import os, resource, sys, threading
from repro.labbase import LabBase
from repro.server import LabFlowService, ServiceRunner, bootstrap_schema
from repro.storage import ObjectStoreSM

db = LabBase(ObjectStoreSM())
bootstrap_schema(db)
runner = ServiceRunner(LabFlowService(db))
_host, port = runner.start()
loop = next(t for t in threading.enumerate() if t.name == "labflow-loop")
print(port, loop.native_id, flush=True)
sys.stdin.readline()
highest = max(map(int, os.listdir("/proc/self/fd")))
fd = os.open(os.devnull, os.O_RDONLY)
while fd <= highest:
    fd = os.open(os.devnull, os.O_RDONLY)
os.close(fd)
_soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (highest + 1, hard))
print("limited", flush=True)
sys.stdin.readline()
runner.stop()
"""


def _cpu_seconds(pid, tid):
    """User + system CPU of one thread, from ``/proc``."""
    with open(f"/proc/{pid}/task/{tid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_at_the_descriptor_limit_the_loop_waits_without_spinning():
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    server = subprocess.Popen(
        [sys.executable, "-c", _SERVE_AT_THE_FD_LIMIT],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    peers = []
    try:
        port, loop_tid = map(int, server.stdout.readline().split())
        first = Peer("127.0.0.1", port)
        peers.append(first)
        first.send(Request(op="ping"))
        assert first.reply().value == "pong"
        server.stdin.write("limit\n")
        server.stdin.flush()
        assert server.stdout.readline().strip() == "limited"

        # The kernel completes their handshakes; accept has nowhere to
        # put them.
        waiting = [Peer("127.0.0.1", port) for _ in range(12)]
        peers.extend(waiting)
        for peer in waiting:
            peer.send(Request(op="ping"))
        time.sleep(0.2)
        before = _cpu_seconds(server.pid, loop_tid)
        time.sleep(1.0)
        assert _cpu_seconds(server.pid, loop_tid) - before < 0.1

        first.send(Request(op="ping"))
        assert first.reply().value == "pong"
        first.close()  # frees one descriptor: the first waiting peer gets it
        assert waiting[0].reply().value == "pong"
        # ...and the eleven still waiting cost nothing either.
        before = _cpu_seconds(server.pid, loop_tid)
        time.sleep(0.5)
        assert _cpu_seconds(server.pid, loop_tid) - before < 0.05
        waiting[0].send(Request(op="ping"))
        assert waiting[0].reply().value == "pong"
    finally:
        for peer in peers:
            peer.close()
        server.stdin.close()  # the server stops
        try:
            server.wait(TIMEOUT)
        finally:
            server.kill()
            server.stdout.close()


# -- sessions belong to connections -----------------------------------------


def test_dropped_client_leaks_nothing(served):
    connect, healthy, service, runner = served
    db = service.db
    peer = connect()
    peer.send(
        Request(op="open_session", session="a"),
        Request(op="create_material", session="a",
                args={"class_name": "clone", "key": "a-0", "valid_time": 1,
                      "state": "active"}),
    )
    assert peer.reply().ok
    oid = peer.reply().value
    peer.send(Request(op="set_state", session="a",
                      args={"material_oid": oid, "state": "busy", "valid_time": 2}))
    assert peer.reply().ok
    # Mid-group: two units pending under cap 4, X locks held.
    assert any("a" in holders for holders in service._locks.table().values())
    peer.close()  # no close_session, no bye

    _until(lambda: healthy.sample()["open_sessions"] == 1, "the session to go")
    again = ServiceClient(*runner.address, "a")  # the name is free again
    assert again.state_of(oid) == "busy"
    again.close()
    healthy.drain()
    assert service._locks.table() == {}
    assert db.cache.dirty_objects == 0
    assert healthy.verify_ok()
    runner.stop()  # the log is read by the thread that owns the service
    done = [(s, op) for s, op, _args in service.completed_units() if s == "a"]
    assert done == [("a", "create_material"), ("a", "set_state")]


def test_session_closed_cleanly_is_not_closed_again(served):
    """A name released by close_session may be taken by another
    connection; the first connection's end must not take it back."""
    connect, healthy, _service, _runner = served
    first, second = connect(), connect()
    first.send(Request(op="open_session", session="n"),
               Request(op="close_session", session="n"))
    assert first.reply().ok and first.reply().ok
    second.send(Request(op="open_session", session="n"))
    assert second.reply().ok
    first.close()
    _still_served(healthy)
    second.send(Request(op="ping"))
    assert second.reply().value == "pong"
    assert healthy.sample()["open_sessions"] == 2  # "healthy" and "n"


# -- stop --------------------------------------------------------------------


def test_stop_answers_what_it_was_sent_then_ends_the_loop(served, monkeypatch):
    connect, healthy, service, runner = served
    entered, gate = threading.Event(), threading.Event()
    original = service.stats_snapshot

    def slow():
        entered.set()
        assert gate.wait(TIMEOUT)
        return original()

    monkeypatch.setattr(service, "stats_snapshot", slow)
    busy, waiting = connect(), connect()
    busy.send(Request(op="stats"))
    assert entered.wait(TIMEOUT)  # the loop is inside busy's unit
    waiting.send(Request(op="open_session", session="w"), Request(op="ping"))
    shutdowns = []
    monkeypatch.setattr(
        service, "shutdown",
        lambda shutdown=service.shutdown: (shutdowns.append(1), shutdown()),
    )
    left_open = []

    def stop():
        runner.stop()
        left_open.append(service.open_sessions())  # the stopper owns it now

    stopper = threading.Thread(target=stop)
    stopper.start()
    gate.set()
    stopper.join(TIMEOUT)
    assert not stopper.is_alive()

    assert busy.reply().ok and busy.at_eof()
    assert waiting.reply().ok and waiting.reply().value == "pong"
    assert waiting.at_eof()
    assert left_open == [[]]
    assert not [
        thread.name for thread in threading.enumerate()
        if thread.name.startswith("labflow-")
    ]
    runner.stop()  # a no-op: nothing to wake, join or shut down
    assert shutdowns == [1]
    with pytest.raises((ServerError, OSError)):
        healthy.lookup("clone", "h-0")


# -- verify on a live server -------------------------------------------------


def test_verify_over_the_wire_while_another_station_is_mid_script(served):
    connect, healthy, service, runner = served
    station = ServiceClient(*runner.address, "station")
    tally = {}
    worker = threading.Thread(
        target=lambda: tally.update(ClientRunner(station, seed=3).run(300))
    )
    worker.start()
    verdicts = []
    while worker.is_alive():
        verdicts.append(healthy.verify_ok())
    worker.join(TIMEOUT)
    assert not worker.is_alive()
    assert tally["steps"] > 0
    assert len(verdicts) > 1 and all(verdicts)
    station.close()
    assert healthy.verify_ok()

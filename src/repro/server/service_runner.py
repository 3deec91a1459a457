"""The served session layer: N clients, one LabBase, one page table.

``LabFlowService`` is the synchronous heart of the server.  Every client
request is one **unit of work**: a query first checks its material's
pages against the open group's page table, then the operation runs with
its object writes buffered in the shared object cache, then the unit
drains — its writes reach the storage manager in oid order — and, for
updates, records its pages and joins the open commit group
(:mod:`repro.server.commit`).  Units execute one at a
time on the one thread that owns the service; concurrency is in the
*interleaving* of sessions' units, exactly like the page-server model
the paper describes.  :class:`ServiceRunner` puts the core behind a
socket: one event-loop thread serves every connection and owns the
service while it runs.  Every other thread is refused with a
:class:`~repro.errors.ServerError` before the service touches any
state, so there is nothing for a thread lock to guard; a client that
wants to read a live server (``repro monitor``, ``repro serve
--sample-log``) asks over the wire like any other.

A unit is one row of :data:`~repro.server.communicator.DATA_OPS`, the
op table the wire codec is built from too: ``submit`` checks the args
against the row's fields, the row's lock field names the oids whose
pages the unit holds or checks, and the unit calls the row's LabBase
method with the args as keywords.

Page discipline (strict two-phase for updates, with nothing to wait on):

* an update unit, once it completes, holds the pages of the oids in its
  row's lock field until the group closes — no other session can
  *observe* them before they are durable.  The pages are taken from
  the store (``pages_of``) before the unit runs; the record of a
  material the unit grows may move to a page it never held, and a
  query from another session then reads that pending value without a
  stall: a known hole, recorded in ROADMAP.md's open items;
* an update checks nothing.  Units run one at a time on the owner
  thread, and every page another session holds belongs to a unit in
  the open group — the group this unit is about to join (its holders
  are its **commit-mates**).  One ``db.commit()`` makes them durable
  together, in execution order, or not at all (a completed unit is
  never rolled back), and its reply — a freshly allocated step oid, or
  ``None`` — carries nothing it read there.  Closing the group to let
  it in would split a group it was welcome in;
* a query takes no hold.  If another session holds a page of its
  material (:meth:`~repro.storage.locks.LockManager.held_by_other`),
  also one the query's own session co-holds, it would observe work
  that is not yet durable: the service counts one ``lock_waits`` and
  one ``commit_stall``, closes the group — which makes every holder
  durable and empties the table — and then runs the query, once.

Measured on ``served_mix_hot`` (both stations on the same 500
materials; EXPERIMENTS.md "E2E — PR 23"): while an update stalled on
its commit-mates, a replay of the whole script closed 2 912 groups,
2 555 of them early, and 1 723 of those conflicts were ``record_step``
or ``set_state`` meeting a commit-mate; with updates checking nothing,
the same replay closes 1 946 groups, 943 early, every one of them for
a query.

Durability: a unit's completion acknowledges *execution*; durability
arrives when its group closes (cap reached, conflict stall, or an
explicit ``drain``).  With ``group_cap=1`` every update unit closes
its own group — the sequential per-session baseline bench_a6 compares
against.
"""

from __future__ import annotations

import errno
import selectors
import socket
import sys
import threading
import time
from collections import deque
from typing import Any, Callable

from repro.errors import (
    DuplicateKeyError,
    ProtocolError,
    ReproError,
    ServerError,
    SessionError,
    TransactionError,
)
from repro.labbase.database import LabBase
from repro.labbase.sessions import SessionManager
from repro.obs.registry import gauges_from
from repro.obs.tracing import UnitTracer
from repro.server.commit import DEFAULT_GROUP_CAP, CommitCoordinator
from repro.server.communicator import (
    DATA_OPS,
    I64,
    I64S,
    MAX_MESSAGE_BYTES,
    OPT_S16,
    RECV_BYTES,
    S16,
    VALUE,
    DataOp,
    FrameBuffer,
    Request,
    Response,
    decode_request,
    encode_response,
)
from repro.storage.locks import LockManager

#: How long :meth:`ServiceRunner.stop` waits, over all connections, for
#: peers to take the replies it still owes them.
STOP_FLUSH_SECONDS = 5.0

#: How many update units :meth:`LabFlowService.completed_units` keeps —
#: the last N.  The log is the serial witness the property tests replay
#: (hundreds of units at most); a server that runs for days must not
#: keep every unit's arguments forever.
COMPLETED_LOG_UNITS = 65_536

#: ``accept`` failures that last until this process closes a descriptor
#: (its own limit, the system's, or kernel memory), unlike a peer that
#: gave up between the readiness and the ``accept``.
_OUT_OF_DESCRIPTORS = frozenset({errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM})

#: The units of work: each data op by name.
_UNITS = {row.name: row for row in DATA_OPS}


class LabFlowService:
    """N named sessions running workflow units against one LabBase."""

    def __init__(
        self,
        db: LabBase,
        *,
        group_cap: int = DEFAULT_GROUP_CAP,
        tracer: UnitTracer | None = None,
    ) -> None:
        if db.storage.in_transaction:
            raise TransactionError(
                "the served database must not have an open transaction; "
                "the service owns commit timing"
            )
        self._db = db
        self._sessions = SessionManager(db)
        self._locks = LockManager(db.storage.stats)
        self._tracer = tracer
        self._coordinator = CommitCoordinator(db, cap=group_cap, tracer=tracer)
        self._completed: deque[tuple[str, str, dict[str, object]]] = deque(
            maxlen=COMPLETED_LOG_UNITS
        )
        self._owner = threading.get_ident()

    # -- ownership -----------------------------------------------------------

    def adopt(self) -> None:
        """The calling thread becomes the owner: the one thread the
        service answers.  The thread that built the service owns it
        until then; :class:`ServiceRunner` hands it to its loop and
        takes it back once the loop has ended."""
        self._owner = threading.get_ident()

    def _check_owner(self) -> None:
        if threading.get_ident() != self._owner:
            raise ServerError(
                f"the service belongs to thread {_thread_name(self._owner)}; "
                f"thread {_thread_name(threading.get_ident())} may not call it"
            )

    # -- introspection -------------------------------------------------------

    @property
    def db(self) -> LabBase:
        return self._db

    def open_sessions(self) -> list[str]:
        self._check_owner()
        return self._sessions.open_sessions()

    def completed_units(self) -> list[tuple[str, str, dict[str, object]]]:
        """The last :data:`COMPLETED_LOG_UNITS` update units in completion
        order: ``(session, op, args)``.

        While nothing has fallen off the front, replaying exactly this
        sequence through a fresh service — any grouping, any session
        layout — produces a bit-identical database: the serial witness
        the property tests compare against.
        """
        self._check_owner()
        return [(s, op, dict(args)) for s, op, args in self._completed]

    @property
    def tracer(self) -> UnitTracer | None:
        return self._tracer

    def stats_snapshot(self) -> dict[str, int]:
        self._check_owner()
        return self._db.storage.stats.snapshot()

    def sample(self) -> dict[str, object]:
        """One observability poll: counters, gauges and service state.

        This is what the ``sample`` protocol op answers; everything in
        it is plain data, so it goes over the wire as one tagged value.
        """
        self._check_owner()
        counters = self._db.storage.stats.snapshot()
        payload: dict[str, object] = {
            "counters": counters,
            "gauges": gauges_from(counters),
            "pending_units": self._coordinator.pending_units,
            "open_sessions": len(self._sessions.open_sessions()),
        }
        if self._tracer is not None:
            payload["trace"] = self._tracer.summary()
        return payload

    # -- session lifecycle ---------------------------------------------------

    def open_session(self, name: str) -> None:
        self._check_owner()
        if not name:
            raise SessionError("session name must be non-empty")
        self._sessions.open_session(name)

    def close_session(self, name: str) -> None:
        """Detach a session; its group-pending units stay committed.

        A session that leaves, cleanly or with its connection, only
        loses what was never completed: units already in the open group
        were executed and drained.  Their holds are what keeps the other
        sessions from reading them before they are durable, so when the
        session has units in the group, the group closes first — the
        units become durable, and the holds go with the group.
        """
        self._check_owner()
        if self._sessions.is_open(name):
            if name in self._coordinator.pending_sessions():
                self._close_group()
            self._sessions.detach(name)

    # -- the unit-of-work surface -------------------------------------------

    def submit(
        self, name: str, op: str, args: dict[str, object] | None = None
    ) -> object:
        """Run one unit of work for session ``name`` and return its value."""
        self._check_owner()
        row = _UNITS.get(op)
        if row is None:
            raise ProtocolError(f"unknown operation {op!r}")
        if not self._sessions.is_open(name):
            raise SessionError(f"no open session {name!r}")
        return self._run_unit(name, row, _checked_args(row, args or {}))

    def drain(self) -> int:
        """Close the open group now; returns the units made durable."""
        self._check_owner()
        pending = self._coordinator.pending_units
        self._close_group()
        return pending

    def shutdown(self) -> None:
        """Drain, then close every remaining session (clean detach)."""
        self._check_owner()
        self._close_group()
        for name in self._sessions.open_sessions():
            self._sessions.detach(name)

    # -- unit internals ------------------------------------------------------

    def _run_unit(self, name: str, row: DataOp, args: dict[str, Any]) -> object:
        cache = self._db.cache
        tracer = self._tracer
        op = row.name
        # Every tracer touch (including clock reads) is guarded: with no
        # tracer attached this method is byte-for-byte the PR 6 path —
        # the sampling-on/off equivalence property depends on that.
        t_begin = tracer.now() if tracer is not None else 0.0
        if tracer is not None:
            tracer.unit_begin(name, op)
        pages = self._pages(row, args)
        if pages and not row.update and self._locks.held_by_other(name, pages):
            # Every holder has a unit in the open group: closing it makes
            # what the query would observe durable, and empties the table.
            stats = self._db.storage.stats
            stats.lock_waits += 1
            stats.commit_stalls += 1
            if tracer is not None:
                tracer.lock_wait(name, op)
            self._close_group()
        t_locked = tracer.now() if tracer is not None else 0.0
        cache.begin_unit()
        try:
            db = self._db
            # create_material allocates before its index insert can
            # raise, and allocation is not undoable by a unit discard:
            # refuse a duplicate before touching storage.
            if op == "create_material" and db.material_exists(
                args["class_name"], args["key"]
            ):
                raise DuplicateKeyError(args["class_name"], args["key"])
            value: object = getattr(db, row.method)(**args)
            t_executed = tracer.now() if tracer is not None else 0.0
            cache.end_unit()
        except BaseException as exc:
            # The unit never happened, whatever it died of — a refusal
            # or a bug, executing or draining: drop its buffered writes.
            # It holds no page yet.  A unit left buffering would refuse
            # every later unit of every session.
            cache.discard_unit()
            if tracer is not None:
                tracer.abort(name, op, error_type=type(exc).__name__)
            raise
        if row.update:
            for page in pages:
                self._locks.acquire(name, page)
            self._completed.append((name, op, args))
            self._coordinator.note_unit(name)
            if self._coordinator.should_close():
                self._close_group()
        if tracer is not None:
            tracer.unit_end(
                name,
                op,
                lock_seconds=t_locked - t_begin,
                exec_seconds=t_executed - t_locked,
                drain_seconds=tracer.now() - t_executed,
            )
        return value

    def _pages(self, row: DataOp, args: dict[str, Any]) -> list[int]:
        """The pages a unit holds (update) or checks (query): those of
        the oids in the row's lock field, read before the unit runs.

        create_material names none: the material does not exist yet
        and its record may share a page only with records the executor
        serializes anyway; lookup/in_state are catalog-level reads.  A
        store without concurrency support has one session, and nobody
        to hold a page against."""
        field = row.locks
        if field is None or not self._db.storage.supports_concurrency:
            return []
        oids = args[field]
        pages_of = self._db.storage.pages_of
        if isinstance(oids, list):
            return [page for oid in oids for page in pages_of(oid)]
        return pages_of(oids)

    def _close_group(self) -> None:
        # The group close IS unit/commit end: every hold goes at the
        # durability boundary.
        self._coordinator.close()
        self._locks.release_all()


def _int(name: str, value: object) -> int:
    """An int that is not a bool, an integral float, or a string that
    ``int()`` parses."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():  # 7.5, inf, nan
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:  # "x"
        raise ProtocolError(f"{name} must be an integer, got {value!r}") from exc


def _str(name: str, value: object) -> str:
    """A ``str`` the wire could carry: one UTF-8 can encode."""
    if not isinstance(value, str):
        raise ProtocolError(f"{name} must be a string, got {value!r}")
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise ProtocolError(f"{name} is not valid UTF-8: {value!r}") from exc
    return value


def _opt_str(name: str, value: object) -> str | None:
    return None if value is None else _str(name, value)


def _ints(name: str, value: object) -> list[int]:
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(f"{name} must be a list, got {value!r}")
    return [_int(name, item) for item in value]


def _object(name: str, value: object) -> object:
    if value is not None and not isinstance(value, dict):
        raise ProtocolError(f"{name} must be an object, got {value!r}")
    return value


_CHECKS: dict[str, Callable[[str, object], object]] = {
    I64: _int, S16: _str, OPT_S16: _opt_str, I64S: _ints, VALUE: _object,
}


def _checked_args(row: DataOp, args: dict[str, object]) -> dict[str, Any]:
    """``args`` as ``row``'s LabBase method takes them, or a
    :class:`ProtocolError`: the row's fields and no other key, each of
    its field's kind.  Only an optional field may be left out; the
    method's own default, ``None``, then applies."""
    checked: dict[str, Any] = {}
    for name, kind in row.fields:
        if name in args:
            checked[name] = _CHECKS[kind](name, args[name])
        elif kind != OPT_S16:
            raise ProtocolError(f"{row.name} needs {name!r}")
    if len(checked) != len(args):
        extra = [key for key in args if key not in checked]
        raise ProtocolError(f"{row.name} takes no {extra!r}")
    return checked


def _thread_name(ident: int) -> str:
    for thread in threading.enumerate():
        if thread.ident == ident:
            return f"{thread.name!r} ({ident})"
    return str(ident)  # it has ended


class _Connection:
    """One accepted socket as the loop sees it."""

    __slots__ = ("sock", "frames", "out", "mask", "finished")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.frames = FrameBuffer()  # received, not yet taken off as frames
        self.out = bytearray()       # replies encoded, not yet sent
        self.mask = selectors.EVENT_READ  # what the selector watches it for
        self.finished = False        # read no more; close once ``out`` is sent


class ServiceRunner:
    """Socket front-end: one event-loop thread, every connection, one core.

    The runner listens on ``host:port`` (port 0 picks a free port).  Its
    loop thread takes every complete frame a ``recv`` delivered, applies
    them in order to the shared :class:`LabFlowService` and answers them
    with one ``send``, so N requests written back to back come back as N
    replies in the same order.  Application errors travel back as typed
    error responses; a malformed frame costs its own connection one
    typed reply and nothing else.

    What a blocking thread per connection would give for free is built
    here: a partial ``send`` keeps its remainder and waits for
    writability; a connection whose unsent replies pass
    :data:`~repro.server.communicator.MAX_MESSAGE_BYTES` is neither read
    from nor answered until its peer drains them, so a stalled reader
    holds neither memory nor the other stations; every session a
    connection opened and did not close is closed for it, however the
    connection ends; and at the descriptor limit the loop
    stops watching the listener until it drops a connection, so the
    peers that wait in the kernel's backlog cost no CPU.

    The loop owns its sockets, its selector and its connection table —
    arguments and locals of :meth:`_loop`, never attributes — and, from
    its first statement until :meth:`stop` has joined it, the service
    itself (:meth:`LabFlowService.adopt`).  Then the thread that
    stopped the runner owns the service.
    """

    def __init__(
        self,
        service: LabFlowService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._address: tuple[str, int] | None = None
        # The loop thread and the socket whose closing wakes it.
        self._running: tuple[threading.Thread, socket.socket] | None = None

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise ServerError("server is not running")
        return self._address

    def start(self) -> tuple[str, int]:
        """Bind, listen and start the loop; returns the bound address."""
        if self._running is not None:
            raise ServerError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen()
        listener.setblocking(False)
        addr = listener.getsockname()
        self._address = str(addr[0]), int(addr[1])
        wakeup, waker = socket.socketpair()
        thread = threading.Thread(
            target=self._loop,
            args=(listener, wakeup),
            name="labflow-loop",
            daemon=True,
        )
        thread.start()
        self._running = thread, waker
        return self._address

    def stop(self) -> None:
        """Drain, then stop: the loop answers the complete frames it has
        been sent, flushes, closes its connections (failing the sessions
        they still hold) and ends; then the calling thread takes the
        service back and shuts it down.  A no-op on a runner that is not
        running."""
        running, self._running = self._running, None
        if running is None:
            return
        thread, waker = running
        waker.close()  # the loop's end of the pair reads EOF
        thread.join()
        self._service.adopt()
        self._address = None
        self._service.shutdown()

    # -- the loop thread -----------------------------------------------------

    def _loop(self, listener: socket.socket, wakeup: socket.socket) -> None:
        self._service.adopt()
        selector = selectors.DefaultSelector()
        selector.register(listener, selectors.EVENT_READ)
        selector.register(wakeup, selectors.EVENT_READ)
        connections: dict[int, _Connection] = {}  # by descriptor
        owners: dict[str, _Connection] = {}  # session -> who opened it
        listening = True
        try:
            while True:
                # Descriptor order: which unit reaches the service first
                # depends on who was ready, not on the selector's insides.
                for key, events in sorted(selector.select(), key=_descriptor):
                    if key.fileobj is wakeup:
                        return
                    if key.fileobj is listener:
                        if not self._accept(listener, selector, connections):
                            # Out of descriptors: the waiting peer keeps the
                            # listener readable, and a watched readable
                            # listener would wake every poll, forever.
                            selector.unregister(listener)
                            listening = False
                        continue
                    conn = connections[key.fd]
                    if self._turn(conn, events, owners):
                        self._watch(selector, conn)
                    else:
                        selector.unregister(conn.sock)
                        del connections[key.fd]
                        self._drop(conn, owners)
                        if not listening:  # a descriptor is free again
                            selector.register(listener, selectors.EVENT_READ)
                            listening = True
        finally:
            listener.close()
            selector.close()
            wakeup.close()
            deadline = time.monotonic() + STOP_FLUSH_SECONDS
            for fd in sorted(connections):
                conn = connections[fd]
                # What had arrived when stop() was called is answered
                # before the connection goes.
                if self._turn(conn, conn.mask, owners) and conn.out:
                    self._flush(conn, deadline)
                self._drop(conn, owners)

    def _accept(
        self,
        listener: socket.socket,
        selector: selectors.BaseSelector,
        connections: dict[int, _Connection],
    ) -> bool:
        """Take one waiting connection.  False when this process has no
        descriptor (or memory) left for it: watch the listener again only
        once a connection has been dropped."""
        try:
            sock, _addr = listener.accept()
        except OSError as exc:
            # Anything else (ConnectionAbortedError, BlockingIOError, a
            # network error accept(2) hands over) is a peer that gave up
            # between the readiness and the accept.
            return exc.errno not in _OUT_OF_DESCRIPTORS
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = connections[sock.fileno()] = _Connection(sock)
        selector.register(sock, conn.mask)
        return True

    def _turn(
        self, conn: _Connection, events: int, owners: dict[str, _Connection]
    ) -> bool:
        """One ready connection: receive once, answer every frame that
        completed, send once.  False when the connection is over."""
        try:
            if events & selectors.EVENT_READ:
                self._receive(conn)
            while not conn.finished:
                if len(conn.out) > MAX_MESSAGE_BYTES:
                    self._send(conn)
                    if len(conn.out) > MAX_MESSAGE_BYTES:
                        break  # the peer is not reading: answer no more yet
                try:
                    frame = conn.frames.take()
                    if frame is None:
                        break
                    request = decode_request(frame)
                except ProtocolError as exc:
                    conn.out += encode_response(_error_response(exc))
                    conn.finished = True
                    break
                conn.out += encode_response(self._handle(conn, request, owners))
                if request.op == "bye":
                    conn.finished = True
            if conn.out:
                self._send(conn)
        except OSError:
            return False  # reset: nobody left to answer
        # A bug one frame can reach costs that frame's connection, as it
        # cost its thread before; the other stations keep their server.
        # This is the loop's boundary; injected crashes are ReproErrors,
        # answered above.
        except Exception:
            sys.excepthook(*sys.exc_info())
            return False
        return bool(conn.out) or not conn.finished

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return  # the readiness was gone by the time we looked
        if data:
            conn.frames.feed(data)
            return
        conn.finished = True
        if len(conn.frames):
            conn.out += encode_response(_error_response(ProtocolError(
                "truncated frame (peer died mid-frame?)"
            )))

    def _send(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return
        del conn.out[:sent]

    def _watch(self, selector: selectors.BaseSelector, conn: _Connection) -> None:
        """Wait for writability while replies are unsent, and for
        readability unless they are past the bound."""
        mask = 0
        if conn.out:
            mask |= selectors.EVENT_WRITE
        if not conn.finished and len(conn.out) <= MAX_MESSAGE_BYTES:
            mask |= selectors.EVENT_READ
        if mask != conn.mask:
            conn.mask = mask
            selector.modify(conn.sock, mask)

    def _flush(self, conn: _Connection, deadline: float) -> None:
        try:
            conn.sock.settimeout(max(deadline - time.monotonic(), 0.001))
            conn.sock.sendall(conn.out)
        except OSError:
            pass  # reset, or still not reading: stop() waits no longer

    def _drop(self, conn: _Connection, owners: dict[str, _Connection]) -> None:
        """Close a connection; the sessions it opened and did not close
        are closed for it."""
        conn.sock.close()
        for name in sorted(n for n, owner in owners.items() if owner is conn):
            del owners[name]
            self._service.close_session(name)

    def _handle(
        self, conn: _Connection, request: Request, owners: dict[str, _Connection]
    ) -> Response:
        try:
            value = apply_request(self._service, request)
        except ReproError as exc:
            return _error_response(exc)
        if request.op == "open_session":
            owners[request.session] = conn
        elif request.op == "close_session":
            owners.pop(request.session, None)
        return Response(ok=True, value=value)


def apply_request(service: LabFlowService, request: Request) -> object:
    """Apply one protocol request to a service (sockets or in-process).

    The session-management and admin operations live here so the socket
    runner and :class:`~repro.server.client_runner.LocalClient` dispatch
    identically; everything else is a unit of work for ``submit``, the
    workflow units first because nearly every request is one.
    """
    op = request.op
    if op in _UNITS:
        return service.submit(request.session, op, request.args)
    if op == "ping" or op == "bye":
        return "pong"
    if op == "open_session":
        service.open_session(request.session)
        return None
    if op == "close_session":
        service.close_session(request.session)
        return None
    if op == "drain":
        return service.drain()
    if op == "stats":
        return service.stats_snapshot()
    if op == "sample":
        return service.sample()
    if op == "verify":
        service.drain()
        report = service.db.verify_storage()
        return {"ok": report.ok, "problems": list(report.problems)}
    return service.submit(request.session, op, request.args)


def _descriptor(ready: tuple[selectors.SelectorKey, int]) -> int:
    return ready[0].fd


def _error_response(exc: ReproError) -> Response:
    return Response(ok=False, error=str(exc), error_type=type(exc).__name__)

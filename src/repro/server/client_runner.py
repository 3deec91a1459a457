"""Client side of the served session layer.

Three pieces, smallest first:

* :class:`LocalClient` — the client API applied directly to an
  in-process :class:`~repro.server.service_runner.LabFlowService`
  (property tests and benchmarks want the core without socket noise);
* :class:`ServiceClient` — the same API over a socket
  :class:`~repro.server.communicator.Channel`;
* :class:`ClientRunner` — a seeded, deterministic E8-style operation
  mix (create / record_step / set_state / queries) driven through
  either client, used by the CI smoke run and bench_a6.

``run_concurrent_clients`` wires N socket clients through N threads
against one server — the shape of the CI server-smoke step.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import repro.errors as errors
from repro.errors import LockError, ProtocolError, ReproError, ServerError
from repro.labbase.database import LabBase
from repro.server.communicator import Channel, Request
from repro.server.service_runner import LabFlowService, apply_request

#: Client-side retry budget for lock conflicts.
DEFAULT_CLIENT_RETRIES = 4

#: Base client-side backoff in seconds, scaled linearly by attempt.
DEFAULT_CLIENT_BACKOFF = 0.01

#: The workflow states the scripted mix cycles materials through.
MIX_STATES = ("active", "busy", "done")

#: Materials each :class:`ClientRunner` creates and works on.
MIX_MATERIALS = 4


def bootstrap_schema(db: LabBase) -> None:
    """Register the minimal schema the scripted client mix uses.

    Idempotent; call once on the LabBase before serving it to
    :class:`ClientRunner` traffic.
    """
    db.define_material_class("clone")
    db.define_step_class("measure", ["value"], ["clone"])


class _ClientOps:
    """The operation vocabulary, shared by both client flavours."""

    session: str

    def call(self, op: str, **args: object) -> object:
        raise NotImplementedError

    # The service raises no LockError; the e2e benchmark's stations still call this.
    def call_with_retry(
        self,
        op: str,
        retries: int = DEFAULT_CLIENT_RETRIES,
        backoff: float = DEFAULT_CLIENT_BACKOFF,
        **args: object,
    ) -> object:
        """``call`` with bounded retry/backoff on lock conflicts."""
        attempts = 0
        while True:
            try:
                return self.call(op, **args)
            except LockError:
                attempts += 1
                if attempts > retries:
                    raise
                if backoff:
                    time.sleep(backoff * attempts)

    # -- updates -------------------------------------------------------------

    def create_material(
        self,
        class_name: str,
        key: str,
        valid_time: int,
        state: str | None = None,
    ) -> int:
        return _expect_int(
            self.call(
                "create_material",
                class_name=class_name,
                key=key,
                valid_time=valid_time,
                state=state,
            )
        )

    def record_step(
        self,
        class_name: str,
        valid_time: int,
        involves: list[int],
        results: dict[str, object] | None = None,
    ) -> int:
        return _expect_int(
            self.call(
                "record_step",
                class_name=class_name,
                valid_time=valid_time,
                involves=involves,
                results=results,
            )
        )

    def set_state(self, material_oid: int, state: str, valid_time: int) -> None:
        self.call(
            "set_state",
            material_oid=material_oid,
            state=state,
            valid_time=valid_time,
        )

    # -- queries -------------------------------------------------------------

    def most_recent(self, material_oid: int, attribute: str) -> object:
        return self.call(
            "most_recent", material_oid=material_oid, attribute=attribute
        )

    def state_of(self, material_oid: int) -> object:
        return self.call("state_of", material_oid=material_oid)

    def lookup(self, class_name: str, key: str) -> int:
        return _expect_int(self.call("lookup", class_name=class_name, key=key))

    def in_state(self, state: str) -> list[int]:
        value = self.call("in_state", state=state)
        if not isinstance(value, list):
            raise ProtocolError(f"in_state returned {type(value).__name__}")
        return [_expect_int(oid) for oid in value]

    def history_len(self, material_oid: int) -> int:
        """Steps in the material's history: the count its hot record
        keeps, read after the page-lock check (no history walk)."""
        return _expect_int(self.call("history_len", material_oid=material_oid))

    # -- admin ---------------------------------------------------------------

    def drain(self) -> int:
        return _expect_int(self.call("drain"))

    def stats(self) -> dict[str, int]:
        value = self.call("stats")
        if not isinstance(value, dict):
            raise ProtocolError(f"stats returned {type(value).__name__}")
        return {str(name): _expect_int(count) for name, count in value.items()}

    def sample(self) -> dict[str, object]:
        """One observability poll: counters, gauges, service state."""
        value = self.call("sample")
        if not isinstance(value, dict):
            raise ProtocolError(f"sample returned {type(value).__name__}")
        return {str(name): payload for name, payload in value.items()}

    def verify_ok(self) -> bool:
        value = self.call("verify")
        if not isinstance(value, dict):
            raise ProtocolError(f"verify returned {type(value).__name__}")
        return bool(value.get("ok"))


class LocalClient(_ClientOps):
    """The client surface applied directly to an in-process service."""

    def __init__(self, service: LabFlowService, session: str) -> None:
        self._service = service
        self.session = session
        self.call("open_session")

    def call(self, op: str, **args: object) -> object:
        request = Request(op=op, session=self.session, args=dict(args))
        return apply_request(self._service, request)

    def close(self) -> None:
        self.call("close_session")


class ServiceClient(_ClientOps):
    """The client surface over a socket connection."""

    def __init__(self, host: str, port: int, session: str) -> None:
        sock = socket.create_connection((host, port))
        # One small frame each way per unit: Nagle would only hold it back.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._channel = Channel(sock)
        self.session = session
        self._closed = False
        self.call("open_session")

    def call(self, op: str, **args: object) -> object:
        if self._closed:
            raise ServerError(f"client {self.session!r} is closed")
        request = Request(op=op, session=self.session, args=dict(args))
        try:
            response = self._channel.roundtrip(request)
        except ProtocolError as exc:
            raise ServerError(str(exc)) from exc
        if response.ok:
            return response.value
        raise _revive_error(response.error_type, response.error)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._channel.send_request(
                Request(op="close_session", session=self.session)
            )
            self._channel.recv_response()
            self._channel.send_request(Request(op="bye", session=self.session))
            self._channel.recv_response()
        except (OSError, ServerError, ProtocolError):
            pass  # closing a dead connection is still a close
        finally:
            self._channel.close()


def _revive_error(error_type: str, message: str) -> ReproError:
    """Rebuild the server's typed error so client retry logic works."""
    candidate = getattr(errors, error_type, None)
    if isinstance(candidate, type) and issubclass(candidate, ReproError):
        try:
            return candidate(message)
        except TypeError:
            # Multi-argument constructor (e.g. DuplicateKeyError): the
            # type matters more to retry logic than the re-split args.
            revived = candidate.__new__(candidate)
            Exception.__init__(revived, message)
            return revived
    return ServerError(f"{error_type or 'error'}: {message}")


def _expect_int(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"expected an integer, got {value!r}")
    return value


class ClientRunner:
    """A seeded E8-style mix of workflow units through one client.

    Deterministic for a given ``(seed, units)``: the mix interleaves
    creates, step recordings, state transitions and queries over the
    client's own :data:`MIX_MATERIALS` materials (``<session>-<i>``
    keys).
    """

    def __init__(self, client: _ClientOps, *, seed: int = 0) -> None:
        self._client = client
        self._seed = seed

    def run(self, units: int) -> dict[str, int]:
        """Drive ``units`` operations; returns an operation tally."""
        client = self._client
        rng = random.Random(self._seed)
        tally = {
            "creates": 0,
            "steps": 0,
            "state_sets": 0,
            "queries": 0,
        }
        tick = 0

        def next_tick() -> int:
            nonlocal tick
            tick += 1
            return tick

        own: list[int] = []
        stepped: list[int] = []
        for i in range(MIX_MATERIALS):
            own.append(
                client.create_material(
                    "clone",
                    f"{client.session}-{i}",
                    next_tick(),
                    state=MIX_STATES[i % len(MIX_STATES)],
                )
            )
            tally["creates"] += 1

        for _unit in range(units):
            roll = rng.random()
            if roll < 0.45:
                involves = [rng.choice(own)]
                if rng.random() < 0.3:
                    other = rng.choice(own)
                    if other != involves[0]:
                        involves.append(other)
                client.call(
                    "record_step",
                    class_name="measure",
                    valid_time=next_tick(),
                    involves=involves,
                    results={"value": tick},
                )
                stepped.extend(o for o in involves if o not in stepped)
                tally["steps"] += 1
            elif roll < 0.60:
                client.call(
                    "set_state",
                    material_oid=rng.choice(own),
                    state=rng.choice(MIX_STATES),
                    valid_time=next_tick(),
                )
                tally["state_sets"] += 1
            elif roll < 0.80 and stepped:
                client.call(
                    "most_recent",
                    material_oid=rng.choice(stepped),
                    attribute="value",
                )
                tally["queries"] += 1
            else:
                self._run_query(rng, own)
                tally["queries"] += 1
        return tally

    def _run_query(self, rng: random.Random, own: list[int]) -> None:
        client = self._client
        roll = rng.random()
        if roll < 0.4:
            client.call("state_of", material_oid=rng.choice(own))
        elif roll < 0.7:
            client.lookup("clone", f"{client.session}-0")
        else:
            client.in_state(rng.choice(MIX_STATES))


def run_concurrent_clients(
    host: str,
    port: int,
    *,
    clients: int = 4,
    units: int = 24,
    seed: int = 11,
) -> dict[str, int]:
    """N socket clients, N threads, one server: the smoke-run shape.

    Raises :class:`ServerError` if any client thread failed; otherwise
    returns the merged operation tally.
    """
    if clients < 1:
        raise ValueError("need at least one client")
    tallies: list[dict[str, int] | None] = [None] * clients
    failures: list[str] = []

    def work(index: int) -> None:
        try:
            client = ServiceClient(host, port, f"smoke-{index}")
            try:
                tallies[index] = ClientRunner(
                    client, seed=seed + index
                ).run(units)
            finally:
                client.close()
        except (ReproError, OSError) as exc:
            failures.append(f"client {index}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=work, args=(index,), name=f"labflow-client-{index}")
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise ServerError("; ".join(sorted(failures)))
    merged: dict[str, int] = {}
    for tally in tallies:
        assert tally is not None  # no failure recorded, so every slot is set
        for name, count in tally.items():
            merged[name] = merged.get(name, 0) + count
    return merged

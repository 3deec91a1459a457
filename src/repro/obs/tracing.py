"""Unit-of-work tracing: span events from the served session layer.

The service core emits one event per interesting transition —
``unit_begin`` when a unit starts, ``lock_wait`` when a query meets a
page the open group holds and closes the group first, ``unit_end`` with
per-phase durations on success, ``abort`` on a unit that never
happened, and ``group_flush`` when the commit coordinator closes a
group.  Every event is counted and, when a sink is attached, written as
sorted-JSON JSONL; with an injected :class:`~repro.obs.clock.ManualClock`
the stream is byte-identical across runs (the determinism test in
``tests/test_obs.py`` proves it).  In memory the tracer keeps only the
last :data:`TRACE_EVENTS_KEPT` events: a traced server runs for days.

``unit_end`` durations also feed fixed-boundary histograms per phase
(``lock`` / ``exec`` / ``drain``), so the monitor can show a latency
shape from state of a fixed size.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO

from repro.obs.clock import Clock, system_clock

#: The phases a successful unit is timed through.
PHASES: tuple[str, ...] = ("lock", "exec", "drain")

#: Fixed histogram bucket upper bounds, in seconds.  Durations at or
#: below a bound land in its bucket; anything larger lands in the
#: implicit overflow bucket.  Fixed boundaries keep recorded histograms
#: comparable across runs and machines.
HISTOGRAM_BOUNDS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
)

#: Durations are rounded to nanoseconds before they enter an event, so
#: the JSONL stream never depends on float repr tails.
DURATION_DIGITS = 9

#: How many events :attr:`UnitTracer.events` keeps — the last N.  The
#: sink receives every event, and :meth:`UnitTracer.summary` counts every
#: event; only the in-memory tail is bounded.
TRACE_EVENTS_KEPT = 4_096


class PhaseHistogram:
    """Counts of durations against :data:`HISTOGRAM_BOUNDS`."""

    def __init__(self) -> None:
        self.counts: list[int] = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.total = 0
        self.sum_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.total += 1
        self.sum_seconds += seconds
        for index, bound in enumerate(HISTOGRAM_BOUNDS):
            if seconds <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def as_dict(self) -> dict[str, object]:
        return {
            "bounds": list(HISTOGRAM_BOUNDS),
            "counts": list(self.counts),
            "total": self.total,
            "sum_seconds": round(self.sum_seconds, DURATION_DIGITS),
        }


class UnitTracer:
    """Collects span events and per-phase duration histograms.

    Single-threaded, like the service that feeds it: every event comes
    from the thread that owns the service, and a reader on another
    thread asks that thread — the ``sample`` op carries
    :meth:`summary` over the wire.
    """

    def __init__(
        self, *, clock: Clock = system_clock, sink: IO[str] | None = None
    ) -> None:
        self._clock = clock
        self._sink = sink
        self._seq = 0
        self._by_event: dict[str, int] = {}
        self.events: deque[dict[str, object]] = deque(maxlen=TRACE_EVENTS_KEPT)
        self.histograms: dict[str, PhaseHistogram] = {
            phase: PhaseHistogram() for phase in PHASES
        }

    def now(self) -> float:
        """One reading of the tracer's clock (for phase bracketing)."""
        return self._clock()

    # -- emission points (called by the server layer) -----------------------

    def unit_begin(self, session: str, op: str) -> None:
        self._emit("unit_begin", session=session, op=op)

    def lock_wait(self, session: str, op: str) -> None:
        self._emit("lock_wait", session=session, op=op)

    def unit_end(
        self,
        session: str,
        op: str,
        *,
        lock_seconds: float,
        exec_seconds: float,
        drain_seconds: float,
    ) -> None:
        durations = {
            "lock": round(lock_seconds, DURATION_DIGITS),
            "exec": round(exec_seconds, DURATION_DIGITS),
            "drain": round(drain_seconds, DURATION_DIGITS),
        }
        for phase in PHASES:
            self.histograms[phase].record(durations[phase])
        self._emit("unit_end", session=session, op=op, durations=durations)

    def abort(self, session: str, op: str, error_type: str) -> None:
        self._emit("abort", session=session, op=op, error_type=error_type)

    def group_flush(self, width: int, units: int) -> None:
        self._emit("group_flush", width=width, units=units)

    # -- reading ------------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """A JSON-safe digest: event counts and phase histograms."""
        return {
            "events": self._seq,
            "by_event": dict(self._by_event),
            "histograms": {
                phase: hist.as_dict()
                for phase, hist in self.histograms.items()
            },
        }

    def jsonl(self) -> str:
        """The kept events (the whole stream while fewer than
        :data:`TRACE_EVENTS_KEPT` were emitted) as sorted-JSON JSONL."""
        return "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in self.events
        )

    # -- internals ----------------------------------------------------------

    def _emit(self, name: str, **fields: object) -> None:
        event: dict[str, object] = {
            "event": name,
            "seq": self._seq,
            "t": round(self._clock(), DURATION_DIGITS),
        }
        event.update(fields)
        self._seq += 1
        self._by_event[name] = self._by_event.get(name, 0) + 1
        self.events.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event, sort_keys=True) + "\n")
            self._sink.flush()

"""Interval sampling: periodic counter snapshots with derived gauges.

The sampler is deliberately dumb about *where* counters come from — it
polls any zero-argument callable returning a counter mapping (a
``StorageStats.snapshot`` bound method, a served ``sample`` op, a
recorded list in a test).  Each poll produces one :class:`Sample`:
the cumulative counters, the increments since the previous poll, and
the registered gauges computed over that interval.  With a sink
attached, every sample is appended as one sorted-JSON line, so a log
from an injected :class:`~repro.obs.clock.ManualClock` run is
byte-identical across replays.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import IO, Callable, Mapping

from repro.obs.clock import Clock, system_clock
from repro.obs.registry import gauges_from

#: Float fields are rounded before serialization so a JSONL stream is a
#: stable artifact, not a parade of 17-digit reprs.
FLOAT_DIGITS = 6

#: How many samples :attr:`IntervalSampler.samples` keeps — the last N.
#: The sink receives every sample.
SAMPLES_KEPT = 1_024


@dataclass(frozen=True)
class Sample:
    """One interval observation: cumulative counters, interval delta, gauges."""

    seq: int
    t: float                     # clock reading when taken
    dt: float                    # seconds since the previous sample
    counters: dict[str, int]     # cumulative snapshot
    delta: dict[str, int]        # increments over this interval
    gauges: dict[str, float]     # registered gauges over this interval

    def to_json(self) -> str:
        payload = {
            "seq": self.seq,
            "t": round(self.t, FLOAT_DIGITS),
            "dt": round(self.dt, FLOAT_DIGITS),
            "counters": self.counters,
            "delta": self.delta,
            "gauges": {
                name: round(value, FLOAT_DIGITS)
                for name, value in self.gauges.items()
            },
        }
        return json.dumps(payload, sort_keys=True)


def sample_from_snapshots(
    seq: int,
    t: float,
    dt: float,
    current: Mapping[str, int],
    previous: Mapping[str, int] | None = None,
) -> Sample:
    """Build a :class:`Sample` from two cumulative counter snapshots."""
    counters = {name: int(value) for name, value in current.items()}
    if previous is None:
        delta = dict(counters)
    else:
        delta = {
            name: value - int(previous.get(name, 0))
            for name, value in counters.items()
        }
    return Sample(
        seq=seq, t=t, dt=dt, counters=counters, delta=delta,
        gauges=gauges_from(delta),
    )


class IntervalSampler:
    """Polls a counter source into :class:`Sample` observations.

    The caller owns the cadence: each :meth:`sample` call takes one
    observation.  ``repro serve --sample-log`` calls it on a timer from
    a wire client's thread (:func:`repro.obs.monitor.start_sample_log`);
    the deterministic tests call it directly with a manual clock.
    ``samples`` keeps the last :data:`SAMPLES_KEPT` of them.
    """

    def __init__(
        self,
        source: Callable[[], Mapping[str, int]],
        *,
        clock: Clock = system_clock,
        sink: IO[str] | None = None,
    ) -> None:
        self._source = source
        self._clock = clock
        self._sink = sink
        self._last: dict[str, int] | None = None
        self._last_t: float | None = None
        self._seq = 0
        self.samples: deque[Sample] = deque(maxlen=SAMPLES_KEPT)

    def sample(self) -> Sample:
        """Take one observation now (by the injected clock)."""
        t = self._clock()
        current = self._source()
        dt = 0.0 if self._last_t is None else t - self._last_t
        observation = sample_from_snapshots(self._seq, t, dt, current, self._last)
        self._seq += 1
        self._last = observation.counters
        self._last_t = t
        self.samples.append(observation)
        if self._sink is not None:
            self._sink.write(observation.to_json() + "\n")
            self._sink.flush()
        return observation

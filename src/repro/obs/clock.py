"""Injectable monotonic clocks for the observability layer.

Everything in ``repro.obs`` that needs "now" takes a clock argument
instead of reading the wall clock directly, for the same reason the
storage stack never reads ``time.time()``: a run whose schedule
depends on ambient time can never be replayed bit-for-bit
(``tests/test_hash_seed.py`` and the drift tests in
``tests/test_bench_results.py`` compare the bytes of repeated runs).
Production code injects :func:`system_clock` (``perf_counter``, the
one timing source the harness already trusts); deterministic tests
inject a :class:`ManualClock` and get byte-identical sample and trace
streams across runs.
"""

from __future__ import annotations

import time
from typing import Callable

#: A clock is any zero-argument callable returning monotonic seconds.
Clock = Callable[[], float]


def system_clock() -> float:
    """Monotonic seconds; the production clock (``time.perf_counter``)."""
    return time.perf_counter()


class ManualClock:
    """A clock whose hands only move when the test moves them.

    Every *read* advances the clock by ``step`` (after returning the
    current value), so code that brackets a phase with two reads sees a
    deterministic nonzero duration without any explicit ``advance``
    calls.  ``advance`` adds extra time on top, for tests that model
    idle gaps between units.
    """

    def __init__(self, start: float = 0.0, step: float = 0.0) -> None:
        if step < 0.0:
            raise ValueError("clock step must be >= 0")
        self._now = start
        self._step = step

    def __call__(self) -> float:
        value = self._now
        self._now += self._step
        return value

    def advance(self, seconds: float) -> None:
        """Move time forward without a read."""
        if seconds < 0.0:
            raise ValueError("time does not run backwards")
        self._now += seconds

    @property
    def now(self) -> float:
        """The current reading, without advancing."""
        return self._now

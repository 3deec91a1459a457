"""Wire clients that watch a running server work.

``repro monitor`` opens a plain protocol channel to a live ``repro
serve``, polls the ``sample`` operation on an interval, turns successive
counter snapshots into interval :class:`~repro.obs.sampler.Sample` rows
and streams them as a live table (fixed column widths, so rows printed a
minute apart still line up under the original header).  On detach it
prints the server's per-phase unit histograms when tracing is enabled
over there.  ``repro serve --sample-log`` runs the same kind of client
inside the server's process (:func:`start_sample_log`): the service
answers only its loop thread, so a sampler asks the loop like anyone
else.

This module intentionally lives outside ``repro.obs.__init__``'s
import surface: it imports the server package, which itself imports
``repro.obs.tracing`` — importing it eagerly would be a cycle.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import IO, Callable, Mapping, Sequence

from repro.errors import ProtocolError, ServerError
from repro.obs.clock import Clock, system_clock
from repro.obs.registry import DERIVED_METRICS
from repro.obs.sampler import IntervalSampler, Sample
from repro.server.communicator import Channel, Request
from repro.util.fmt import format_table

#: The fixed lead columns: (header, per-interval counter delta shown).
_DELTA_COLUMNS = (
    ("commits", "commits"),
    ("units", "sessions_per_group"),
    ("majflt", "major_faults"),
)


def render_sample_table(samples: Sequence[Sample], title: str | None = None) -> str:
    """Interval samples as a fixed-width table; one line per sample.

    The delta columns are per-interval counter increments; the gauge
    columns are the registered ratios over the same interval, one per
    :data:`~repro.obs.registry.DERIVED_METRICS` spec in registry order.
    The widths are fixed (not :func:`repro.util.fmt.format_table`) so a
    row streamed minutes later still lines up under the header.
    """
    gauge_widths = [(spec.name, max(len(spec.name), 10)) for spec in DERIVED_METRICS]
    header = "  ".join(
        ["#".rjust(4), "dt_s".rjust(8)]
        + [name.rjust(8) for name, _ in _DELTA_COLUMNS]
        + [name.rjust(width) for name, width in gauge_widths]
    )
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for sample in samples:
        cells = [str(sample.seq).rjust(4), f"{sample.dt:.3f}".rjust(8)]
        cells += [
            str(sample.delta.get(counter, 0)).rjust(8)
            for _, counter in _DELTA_COLUMNS
        ]
        cells += [
            f"{sample.gauges.get(name, 0.0):.3f}".rjust(width)
            for name, width in gauge_widths
        ]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def render_phase_histograms(
    histograms: Mapping[str, Mapping[str, object]], title: str | None = None
) -> str:
    """Per-phase duration histograms from a tracer summary."""
    rows: list[Sequence[str]] = []
    for phase in sorted(histograms):
        hist = histograms[phase]
        bounds = list(hist.get("bounds", []))  # type: ignore[arg-type]
        counts = list(hist.get("counts", []))  # type: ignore[arg-type]
        total = int(hist.get("total", 0))  # type: ignore[arg-type]
        shape = " ".join(str(int(c)) for c in counts)
        top = f"<= {float(bounds[-1]):g}s + over" if bounds else ""
        rows.append((phase, str(total), shape, top))
    return format_table(
        ["phase", "units", "bucket counts", "range"],
        rows,
        title=title,
        align_right=(1,),
    )


def fetch(channel: Channel, op: str) -> dict[str, object]:
    """One sessionless round trip (``sample``, ``stats``); raises on
    error responses."""
    response = channel.roundtrip(Request(op=op))
    if not response.ok:
        raise ServerError(f"{op} failed: {response.error}")
    if not isinstance(response.value, dict):
        raise ProtocolError(f"{op} response is not an object")
    return response.value


def _counters(raw: object) -> dict[str, int]:
    if not isinstance(raw, dict):
        raise ProtocolError("no counters in the response")
    return {str(k): int(v) for k, v in raw.items()}


def _connect(host: str, port: int) -> Channel:
    try:
        sock = socket.create_connection((host, port), timeout=10.0)
    except OSError as exc:
        raise ServerError(f"cannot reach {host}:{port}: {exc}") from exc
    return Channel(sock)


def start_sample_log(
    host: str, port: int, *, interval: float, sink: IO[str]
) -> Callable[[], None]:
    """``repro serve --sample-log``: a client thread that polls ``stats``
    every ``interval`` seconds over its own connection into an
    :class:`IntervalSampler` writing to ``sink``.  It opens no session
    and reaches the service only through the loop, like ``repro
    monitor``.  Returns the function that takes one last sample, stops
    the thread and closes the connection — call it before the server
    stops."""
    channel = _connect(host, port)
    sampler = IntervalSampler(
        lambda: _counters(fetch(channel, "stats")), sink=sink
    )
    stopping = threading.Event()

    def poll() -> None:
        while not stopping.wait(interval):
            sampler.sample()
        sampler.sample()

    thread = threading.Thread(target=poll, name="labflow-sampler", daemon=True)
    thread.start()

    def stop() -> None:
        stopping.set()
        thread.join()
        channel.close()

    return stop


def monitor(
    host: str,
    port: int,
    *,
    samples: int,
    interval: float,
    out: IO[str],
    clock: Clock = system_clock,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sample]:
    """Attach, poll ``samples`` observations, stream the table to ``out``.

    Returns every sample taken (tests read them; the CLI reads the
    rendered text); the :class:`IntervalSampler` that takes them keeps
    only its bounded tail.  ``clock`` and ``sleep`` are injectable so the
    deterministic tests replay a poll schedule without wall time.
    """
    channel = _connect(host, port)
    collected: list[Sample] = []
    header_lines = render_sample_table([]).splitlines()
    out.write(f"monitoring {host}:{port} (interval {interval:g}s)\n")
    for line in header_lines:
        out.write(line + "\n")
    out.flush()
    trace_summary: dict[str, object] | None = None

    def poll() -> dict[str, int]:
        nonlocal trace_summary
        payload = fetch(channel, "sample")
        trace = payload.get("trace")
        if isinstance(trace, dict):
            trace_summary = trace
        return _counters(payload.get("counters"))

    sampler = IntervalSampler(poll, clock=clock)
    try:
        for taken in range(1, samples + 1):
            observation = sampler.sample()
            collected.append(observation)
            out.write(render_sample_table([observation]).splitlines()[-1] + "\n")
            out.flush()
            if taken < samples and interval > 0.0:
                sleep(interval)
    finally:
        channel.close()
    if trace_summary is not None:
        histograms = trace_summary.get("histograms")
        if isinstance(histograms, dict):
            out.write(
                "\n"
                + render_phase_histograms(
                    histograms, title="unit phase durations (server-side)"
                )
                + "\n"
            )
            out.flush()
    return collected

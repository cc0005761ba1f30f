"""Near-zero-overhead span tracing with Chrome ``trace_event`` export.

The tracer answers "where does the time go inside a run" without touching
any measured bit: spans are wall-clock annotations *around* the analysis,
never inputs to it, and the on/off catalogue differential in
``tests/sweep/test_observability.py`` (plus the full-catalogue CI step)
enforces that every bound and counter is bit-identical either way.

Design constraints, in order:

- **Disabled is the default and costs nothing measurable.**  When tracing
  is off, :func:`span` returns one shared no-op context manager (no object
  is allocated — a regression test patches :class:`Span` with a bomb and
  runs a full analysis), and :func:`instant`/:func:`counter` return after
  one global load.  Hot loops therefore never need their own guard; only
  *phase*-granular call sites exist in the first place.
- **Per-process buffers.**  Each process records into its own flat list of
  ready-to-serialize event dicts stamped with its pid; pool workers drain
  their buffer after each task and ship the events back inside the result
  payload, where the parent adopts them (:func:`drain` / :func:`adopt`).
  ``time.perf_counter_ns`` is ``CLOCK_MONOTONIC`` on Linux — one clock
  domain across processes — so stitched events need no re-timing.
- **Viewable in Perfetto.**  :func:`export` wraps the events as a Chrome
  ``trace_event`` JSON object (``"X"`` complete events with microsecond
  ``ts``/``dur``, ``"C"`` counters, ``"i"`` instants, plus ``"M"``
  process-name metadata per pid), loadable in ``ui.perfetto.dev`` or
  ``chrome://tracing`` as one multi-process timeline.

Activation: :func:`start` in-process, or the ``REPRO_TRACE`` environment
variable (checked at import), which is how ``--trace`` reaches fork/spawn
pool workers.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = [
    "NULL_SPAN", "Span", "TRACE_ENV", "Tracer", "adopt", "counter", "drain",
    "enabled", "export", "instant", "reset", "span", "start", "stop",
    "write",
]

TRACE_ENV = "REPRO_TRACE"


class Tracer:
    """One process's event buffer (list of Chrome-ready event dicts)."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[dict] = []

    def span(self, name: str, **args) -> "Span":
        return Span(self, name, args)

    def instant(self, name: str, **args) -> None:
        """Record a point-in-time marker."""
        event = {"name": name, "ph": "i", "ts": time.perf_counter_ns(),
                 "pid": os.getpid(), "tid": threading.get_ident() & 0xFFFF,
                 "s": "p"}
        if args:
            event["args"] = args
        self.events.append(event)

    def counter(self, name: str, values: dict) -> None:
        """Record sampled counter values (one Perfetto track per key)."""
        self.events.append({
            "name": name, "ph": "C", "ts": time.perf_counter_ns(),
            "pid": os.getpid(), "tid": threading.get_ident() & 0xFFFF,
            "args": dict(values),
        })

    def drain(self) -> list[dict]:
        """Return and clear the buffered events (the shipping primitive)."""
        events, self.events = self.events, []
        return events


class Span:
    """A named wall-clock interval; records one ``"X"`` event on exit.

    ``ts`` is buffered in nanoseconds (exact integers from
    ``perf_counter_ns``) and converted to the Chrome format's fractional
    microseconds at export time.  Extra context can be attached while the
    span is open via :meth:`arg`.
    """

    __slots__ = ("_tracer", "name", "args", "_start")

    def __init__(self, tracer: Tracer, name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args

    def arg(self, key: str, value) -> None:
        """Attach one argument (shown in the trace viewer's detail pane)."""
        self.args[key] = value

    def __enter__(self) -> "Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter_ns()
        event = {"name": self.name, "ph": "X", "ts": self._start,
                 "dur": end - self._start, "pid": os.getpid(),
                 "tid": threading.get_ident() & 0xFFFF}
        if self.args:
            event["args"] = self.args
        self._tracer.events.append(event)


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def arg(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()

# The process tracer: None means disabled.  Pool workers inherit the
# environment variable, so a traced sweep's workers come up tracing.
_TRACER: Tracer | None = Tracer() if os.environ.get(TRACE_ENV) else None


def enabled() -> bool:
    """Is tracing active in this process?"""
    return _TRACER is not None


def start() -> Tracer:
    """Activate tracing (idempotent) and return the process tracer."""
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer()
    return _TRACER


def stop() -> list[dict]:
    """Deactivate tracing; returns whatever events were still buffered."""
    global _TRACER
    events = _TRACER.drain() if _TRACER is not None else []
    _TRACER = None
    return events


def reset() -> None:
    """Clear the buffer without changing the on/off state.

    Pool initializers call this so events copied into a forked worker's
    memory are not shipped twice (the parent still holds the originals).
    """
    if _TRACER is not None:
        _TRACER.events.clear()


def span(name: str, **args):
    """A context manager timing one phase — :data:`NULL_SPAN` when off."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return Span(tracer, name, args)


def instant(name: str, **args) -> None:
    tracer = _TRACER
    if tracer is not None:
        tracer.instant(name, **args)


def counter(name: str, values: dict) -> None:
    tracer = _TRACER
    if tracer is not None:
        tracer.counter(name, values)


def drain() -> list[dict]:
    """This process's buffered events, cleared (``[]`` when disabled)."""
    tracer = _TRACER
    return tracer.drain() if tracer is not None else []


def adopt(events: list[dict]) -> None:
    """Append events shipped from another process to this buffer."""
    tracer = _TRACER
    if tracer is not None and events:
        tracer.events.extend(events)


def export(events: list[dict] | None = None,
           process_names: dict[int, str] | None = None) -> dict:
    """Wrap events as a Chrome ``trace_event`` JSON object.

    Drains the process buffer when ``events`` is not given.  Timestamps are
    rebased to the earliest event and converted from nanoseconds to the
    format's microseconds; one ``process_name`` metadata event is emitted
    per pid (``process_names`` overrides the default labeling, in which the
    exporting process is ``repro`` and every other pid ``repro worker``).
    """
    if events is None:
        events = drain()
    base = min((event["ts"] for event in events), default=0)
    converted = []
    for event in events:
        out = dict(event)
        out["ts"] = (event["ts"] - base) / 1000.0
        if "dur" in event:
            out["dur"] = event["dur"] / 1000.0
        converted.append(out)
    pids = sorted({event["pid"] for event in converted})
    names = process_names or {}
    own = os.getpid()
    metadata = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": names.get(
             pid, "repro" if pid == own else "repro worker")}}
        for pid in pids
    ]
    return {"traceEvents": metadata + converted, "displayTimeUnit": "ms"}


def write(path: str | os.PathLike, events: list[dict] | None = None) -> dict:
    """Export (draining the buffer by default) and write JSON to ``path``.

    Written atomically (tempfile + rename): a sweep killed mid-export
    leaves either the previous trace or the new one, never a torn file.
    """
    from repro.core.atomicio import atomic_write_json

    payload = export(events)
    atomic_write_json(path, payload, indent=None)
    return payload

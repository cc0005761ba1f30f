"""Run-timeline telemetry: periodic in-run sampling plus process gauges.

While a traced analysis explores, the engine feeds the active
:class:`TimelineSampler` every ``interval`` abstract steps (deterministic
cadence — sampling is keyed to step counts, not wall-clock timers, so the
set of sampled *step positions* is reproducible even though the recorded
wall-clock values are not).  Each sample captures:

- ``steps`` — abstract steps completed so far;
- ``elapsed_s`` / ``steps_per_s`` — wall-clock progress;
- ``heap`` / ``pending`` — worklist heap size and pending-configuration
  count (the engine's live memory pressure);
- ``vs_interned`` / ``sym_interned`` — live entries in the value-set and
  masked-symbol hash-consing tables;
- ``rss_bytes`` — current peak RSS of the process.

Samples ride on the owning :class:`~repro.sweep.results.SweepResult` as the
(non-payload) ``timeline`` field, and are mirrored into the span trace as
Chrome ``"C"`` counter events, so an exported ``--trace`` file renders them
as counter tracks under each process in Perfetto.

The module also owns the two cheap always-on probes the sweep layer records
per scenario (satellite of the observability PR): :func:`peak_rss_bytes`
and the :class:`GCPauses` recorder (total stop-the-world time of cyclic-GC
passes, measured via ``gc.callbacks``).
"""

from __future__ import annotations

import gc
import os
import time

from repro.obs import trace

__all__ = [
    "DEFAULT_INTERVAL_STEPS", "GCPauses", "TimelineSampler", "active",
    "begin", "current_rss_bytes", "end", "peak_rss_bytes",
]

# Sample cadence in abstract steps; dense enough for the second-scale
# figure analyses (~100 samples for figure14d) while keeping the per-pop
# engine check to one integer comparison.
DEFAULT_INTERVAL_STEPS = 50_000


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; scaled to bytes
    either way.  Platforms without the ``resource`` module report 0.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if os.uname().sysname == "Darwin":  # pragma: no cover - macOS units
        return int(peak)
    return int(peak) * 1024


def current_rss_bytes() -> int:
    """Current (not peak) resident set size, in bytes (0 if unknown).

    The engine's ``max_rss_bytes`` guard reads this: peak RSS is monotone
    for the process lifetime, which would make one big scenario condemn
    every later scenario sharing its pool worker.  Read from
    ``/proc/self/statm`` on Linux; platforms without it fall back to the
    peak figure (conservative: guards trip earlier, never later).
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return peak_rss_bytes()


class GCPauses:
    """Totals the cyclic collector's pause time via ``gc.callbacks``.

    The engine pauses the collector during exploration, so analysis-phase
    totals are usually ~0 — which is exactly what this measures: a nonzero
    total flags collector work leaking back into the measured path.
    """

    __slots__ = ("total_s", "collections", "_started")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif phase == "stop":
            self.total_s += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self) -> "GCPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            gc.callbacks.remove(self._callback)
        except ValueError:  # pragma: no cover - someone else removed it
            pass


class TimelineSampler:
    """Collects periodic samples for one labeled run (one scenario)."""

    __slots__ = ("label", "interval", "next_due", "samples", "_t0")

    def __init__(self, label: str,
                 interval: int = DEFAULT_INTERVAL_STEPS) -> None:
        self.label = label
        self.interval = max(1, interval)
        self.next_due = 0  # first sample at step 0 (engine-run start)
        self.samples: list[dict] = []
        self._t0 = time.perf_counter()

    def sample(self, steps: int, heap: int, pending: int) -> None:
        """Record one sample; the engine calls this when ``steps`` passes
        ``next_due`` (and once more at run end)."""
        from repro.core.masked import intern_size as sym_size
        from repro.core.valueset import intern_size as vs_size

        elapsed = time.perf_counter() - self._t0
        entry = {
            "steps": steps,
            "elapsed_s": round(elapsed, 6),
            "steps_per_s": round(steps / elapsed) if elapsed > 0 else 0,
            "heap": heap,
            "pending": pending,
            "vs_interned": vs_size(),
            "sym_interned": sym_size(),
            "rss_bytes": peak_rss_bytes(),
        }
        self.samples.append(entry)
        self.next_due = steps + self.interval
        trace.counter(f"timeline.{self.label}", {
            "heap": heap, "pending": pending,
            "steps_per_s": entry["steps_per_s"],
            "rss_mb": round(entry["rss_bytes"] / 1e6, 1),
        })


# The active sampler (per process; the engine polls this at run start).
_ACTIVE: TimelineSampler | None = None


def begin(label: str) -> TimelineSampler | None:
    """Install a sampler for the next engine run when telemetry is on.

    Timeline sampling rides the tracing switch: it exists to explain traced
    runs, and keeping one switch means pool workers need only inherit
    ``REPRO_TRACE``.  Returns None (and installs nothing) when tracing is
    off.  The cadence is :data:`DEFAULT_INTERVAL_STEPS`, read at call time.
    """
    global _ACTIVE
    if not trace.enabled():
        _ACTIVE = None
        return None
    _ACTIVE = TimelineSampler(label, DEFAULT_INTERVAL_STEPS)
    return _ACTIVE


def active() -> TimelineSampler | None:
    return _ACTIVE


def end() -> list[dict]:
    """Uninstall the active sampler and return its samples."""
    global _ACTIVE
    sampler, _ACTIVE = _ACTIVE, None
    return sampler.samples if sampler is not None else []

"""Unified observability: span tracing and run timelines.

Two cooperating modules, both default-off or read-only with respect to
analysis results (the on/off catalogue differential enforces bit-identical
bounds):

- :mod:`repro.obs.trace` — phase/span tracer with Chrome ``trace_event``
  JSON export (Perfetto-loadable), per-process buffers, and cross-process
  stitching for pool-parallel sweeps.  Enabled by ``--trace`` /
  ``REPRO_TRACE``.
- :mod:`repro.obs.timeline` — periodic in-run sampling (worklist size,
  interning, steps/sec, peak RSS) attached to sweep results, plus the
  always-on per-scenario RSS/GC-pause probes.

Counters are read where they are kept (``SchedulerStats`` in result
payloads, the supervised pool's attributes, per-level ``CacheStats``), so
this package holds none.  See ``docs/observability.md`` for the span
taxonomy, the counter sources, and CLI workflows.
"""

from repro.obs import timeline, trace

__all__ = ["timeline", "trace"]

"""Structured sweep results and the on-disk JSON store.

A :class:`SweepResult` is the deterministic product of running one
:class:`~repro.sweep.scenario.Scenario`: observation counts per
(cache kind, observer) for leakage scenarios, instruction/cycle metrics for
kernel scenarios, plus engine statistics.  Figure tables and benchmarks
consume these instead of raw analyzer objects, so results serialize, cache,
and cross process boundaries losslessly (observation counts are arbitrary-
precision ints — e.g. ``8**384`` for the scatter/gather address trace — which
Python's JSON handles exactly).

Wall-clock time is carried on the result object (``elapsed``) but is *not*
part of the payload: the store's content is a pure function of the scenarios
that produced it, which the regression tests assert byte-for-byte.  The same
rule keeps the observability telemetry out of the payload: the ``timeline``
samples and the ``metrics["environment"]`` block (peak RSS, GC pauses) are
machine facts, carried on the object only.

``METRICS_SCHEMA`` versions the deterministic metrics dictionary itself.
Cached payloads record the schema they were written under, and the store
drops entries from another schema on load — a cheaper, targeted alternative
to bumping ``STORE_VERSION`` (which would discard the bounds too).
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field

from repro.core.adversary import AdversaryBound
from repro.core.atomicio import atomic_write_json
from repro.core.leakage import LeakageReport, ObservationBound
from repro.core.observers import AccessKind

__all__ = ["AdversaryRow", "BoundRow", "METRICS_SCHEMA", "STATUSES",
           "SweepResult", "ResultStore", "load_bench_log",
           "load_bench_environment", "update_bench_log"]

# Per-scenario outcome vocabulary.  ``ok`` is the only storable status —
# a failed or degraded result is reported, retried, or quarantined by the
# sweep layer, but never journaled: store bytes stay a pure function of
# the successfully analyzed scenarios.
STATUSES = ("ok", "timeout", "oom", "error")

STORE_VERSION = 1
# Version of the deterministic metrics dictionary (the engine counters of
# repro.sweep.runner._engine_metrics).  Bump when counters are added,
# removed, or renamed; the store invalidates cached entries written under a
# different schema.  Schema 1 is the implicit pre-versioning era (payloads
# with no "metrics_schema" key), retired when the observability layer
# landed.  Retiring the numpy tier's three batch counters (ops, pairs and
# scalar pairs) kept schema 2 on purpose: they were mode-sensitive counters
# (zero with the tier off), which the catalogue golden's result hashes leave
# out while hashing the schema number itself, so a bump would have rewritten
# every golden hash without any computed value changing.  Entries stored
# with those keys only carry three extra execution counters.
METRICS_SCHEMA = 2


def _bench_environment() -> dict:
    """The machine facts recorded alongside bench timings.

    ``bench-compare`` uses the recorded CPU count to decide whether a
    timing regression is comparable at all: parallel-sweep timings from a
    16-core runner gate nothing on a 2-core laptop.
    """
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def load_bench_log(path: str | os.PathLike) -> dict[str, float]:
    """Read the timings of a ``BENCH_sweep.json``-style log.

    The one reader for every consumer of the log (the merging writer below
    and the CLI's ``bench-compare``): anything that is not a well-shaped
    ``{"version": 1, "timings": {...}}`` object — missing file, truncated
    JSON, wrong type — reads as empty rather than raising.
    """
    try:
        with open(os.fspath(path), encoding="utf-8") as handle:
            loaded = json.load(handle)
    except (OSError, ValueError):
        return {}
    if isinstance(loaded, dict) and isinstance(loaded.get("timings"), dict):
        return dict(loaded["timings"])
    return {}


def load_bench_environment(path: str | os.PathLike) -> dict:
    """Read the recorded environment of a ``BENCH_sweep.json``-style log.

    Returns ``{}`` for logs written before environment recording existed,
    and for missing/corrupt files — callers treat an absent environment as
    "comparable" (the pre-existing gating behavior).
    """
    try:
        with open(os.fspath(path), encoding="utf-8") as handle:
            loaded = json.load(handle)
    except (OSError, ValueError):
        return {}
    if isinstance(loaded, dict) and isinstance(loaded.get("environment"), dict):
        return dict(loaded["environment"])
    return {}


def update_bench_log(path: str | os.PathLike, timings: dict[str, float]) -> int:
    """Merge wall-clock timings into a ``BENCH_sweep.json``-style log.

    The one writer for every producer of the log (the benchmark harness and
    the CLI's ``--bench-out``): loads the existing file if its shape is
    valid (see :func:`load_bench_log`), merges, and rewrites atomically
    with sorted keys.  The writing machine's environment (CPU count,
    Python version) is recorded alongside, replacing whatever the log
    carried before — timings and environment always describe the same
    machine.  Returns the number of entries merged in.
    """
    if not timings:
        return 0
    path = os.fspath(path)
    merged = load_bench_log(path)
    merged.update(timings)
    payload = {
        "version": 1,
        "environment": _bench_environment(),
        "timings": {key: merged[key] for key in sorted(merged)},
    }
    atomic_write_json(path, payload)
    return len(timings)


@dataclass(frozen=True, slots=True)
class BoundRow:
    """One observer's counting result, serialization-friendly."""

    kind: str          # AccessKind name: "INSTRUCTION" | "DATA" | "SHARED"
    observer: str
    count: int
    stuttering_count: int

    def to_bound(self) -> ObservationBound:
        return ObservationBound(
            kind=AccessKind[self.kind], observer=self.observer,
            count=self.count, stuttering_count=self.stuttering_count,
        )


@dataclass(frozen=True, slots=True)
class AdversaryRow:
    """One derived adversary bound (trace/time model), serialization-friendly."""

    kind: str          # AccessKind name: "INSTRUCTION" | "DATA" | "SHARED"
    model: str         # "trace" | "time"
    count: int

    def to_bound(self) -> AdversaryBound:
        return AdversaryBound(
            kind=AccessKind[self.kind], model=self.model, count=self.count,
        )


@dataclass(slots=True)
class SweepResult:
    """The outcome of one scenario run."""

    scenario: str
    fingerprint: str
    kind: str                                   # "leakage" | "kernel"
    target: str = ""                            # human-readable target label
    rows: tuple[BoundRow, ...] = ()             # leakage scenarios
    adversary_rows: tuple[AdversaryRow, ...] = ()  # derived trace/time bounds
    transforms: tuple[str, ...] = ()            # countermeasure passes applied
    metrics: dict = field(default_factory=dict)  # kernel metrics / engine stats
    warnings: tuple[str, ...] = ()
    # Outcome of the run (see STATUSES).  ``ok`` — the only value the
    # store ever sees — is *omitted* from the payload, so every successful
    # result keeps its pre-status payload bytes and fingerprinted cache
    # entry; failed results carry the exception class and a traceback
    # summary under ``metrics["error"]``.
    status: str = "ok"
    elapsed: float = 0.0                        # not part of the payload
    cached: bool = False                        # answered from a cache?
    timeline: tuple = ()                        # obs samples; not in payload

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    #: Metrics keys that carry machine facts (RSS, GC pauses) rather than
    #: deterministic analysis counters; excluded from the payload.
    NONDETERMINISTIC_METRICS = ("environment",)

    # ------------------------------------------------------------------
    # Leakage view
    # ------------------------------------------------------------------
    @property
    def report(self) -> LeakageReport:
        """Reconstruct the :class:`LeakageReport` the figure tables consume."""
        report = LeakageReport(target=self.target)
        for row in self.rows:
            report.record(row.to_bound())
        for adversary_row in self.adversary_rows:
            report.record_adversary(adversary_row.to_bound())
        report.notes = list(self.warnings)
        return report

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """Deterministic JSON form.

        Excludes wall-clock, cache state, timeline samples, and the
        machine-fact metrics block (``metrics["environment"]``): the payload
        — and therefore the store — stays a pure function of the scenario.
        A non-``ok`` status is included (it is what the pool wire format
        and the degraded-sweep reporting carry); ``ok`` is omitted so
        successful payloads are byte-identical to the pre-status era.
        """
        payload = {
            "scenario": self.scenario,
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "metrics_schema": METRICS_SCHEMA,
            "target": self.target,
            "rows": [
                [row.kind, row.observer, row.count, row.stuttering_count]
                for row in self.rows
            ],
            "adversaries": [
                [row.kind, row.model, row.count] for row in self.adversary_rows
            ],
            "transforms": list(self.transforms),
            "metrics": {
                key: value for key, value in self.metrics.items()
                if key not in self.NONDETERMINISTIC_METRICS
            },
            "warnings": list(self.warnings),
        }
        if self.status != "ok":
            payload["status"] = self.status
        return payload

    @classmethod
    def from_payload(cls, payload: dict, cached: bool = False) -> "SweepResult":
        return cls(
            status=payload.get("status", "ok"),
            scenario=payload["scenario"],
            fingerprint=payload["fingerprint"],
            kind=payload["kind"],
            target=payload.get("target", ""),
            rows=tuple(BoundRow(*row) for row in payload.get("rows", ())),
            adversary_rows=tuple(
                AdversaryRow(*row) for row in payload.get("adversaries", ())),
            transforms=tuple(payload.get("transforms", ())),
            metrics=dict(payload.get("metrics", {})),
            warnings=tuple(payload.get("warnings", ())),
            cached=cached,
        )


class ResultStore:
    """On-disk JSON store of sweep results, keyed by scenario fingerprint.

    The file layout is ``{"version": 1, "results": {fingerprint: payload}}``
    with sorted keys, so identical sweeps write byte-identical stores no
    matter the execution order or worker count.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._results: dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return  # unreadable/corrupt store: start fresh, overwrite on save
        if not isinstance(data, dict) or data.get("version") != STORE_VERSION:
            return  # incompatible store: start fresh, keep the file until save
        # Drop cached entries whose metrics were recorded under another
        # schema (including pre-versioning payloads, which carry no
        # "metrics_schema" key at all): their bounds are still correct, but
        # serving them would hand callers stale/mis-keyed counters and make
        # identical sweeps produce store files that disagree byte-for-byte
        # with fresh runs.  Invalidated scenarios simply re-run.
        # Non-``ok`` payloads are additionally dropped on load: no writer
        # of this store produces them, but a hand-edited or adversarial
        # file must not seed the cache with failed results.
        self._results = {
            fingerprint: payload
            for fingerprint, payload in dict(data.get("results", {})).items()
            if isinstance(payload, dict)
            and payload.get("metrics_schema") == METRICS_SCHEMA
            and payload.get("status", "ok") == "ok"
        }

    def get(self, fingerprint: str) -> SweepResult | None:
        payload = self._results.get(fingerprint)
        if payload is None:
            return None
        return SweepResult.from_payload(payload, cached=True)

    def put(self, result: SweepResult) -> None:
        """Record one *successful* result.

        Failed/degraded results (``status != "ok"``) are rejected loudly:
        the store's bytes are a pure function of the successfully analyzed
        scenarios, which the catalogue-golden and chaos-differential tests
        pin byte-for-byte.
        """
        if result.status != "ok":
            raise ValueError(
                f"refusing to store non-ok result "
                f"({result.scenario}: status={result.status!r})")
        self._results[result.fingerprint] = result.to_payload()

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._results

    def __len__(self) -> int:
        return len(self._results)

    def save(self) -> None:
        """Atomically rewrite the store file.

        Cheap enough to call after every completed scenario — which is
        exactly what the sweep layer's crash-safe checkpointing does — so
        a killed sweep resumes from its finished fingerprints.
        """
        payload = {
            "version": STORE_VERSION,
            "results": {key: self._results[key] for key in sorted(self._results)},
        }
        atomic_write_json(self.path, payload)

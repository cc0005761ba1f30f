"""Memory access tracing for the concrete VM.

A trace records every instruction fetch and data access in program order.
Its :meth:`Trace.view` method computes exactly the adversary views of paper
§3.2 — ``π_{n:b}`` projections of one access stream, optionally collapsed
modulo stuttering — which is what the validation harness compares against the
static bounds (the executable form of Theorem 1).

:meth:`Trace.hit_miss_view` and :meth:`Trace.time_view` derive the
*trace-based* and *time-based* adversary observations (the CacheAudit
adversary hierarchy) by replaying one access stream through a replacement-
policy cache simulator: the hit/miss sequence, and the total (hits, misses)
pair that determines execution time on an in-order machine.  Both are
deterministic functions of the block-level view — for any policy — which is
what lets :mod:`repro.core.adversary` bound them from the block trace DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["Access", "Trace", "FETCH", "READ", "WRITE"]

FETCH = "I"
READ = "R"
WRITE = "W"


class Access(NamedTuple):
    """One memory access: kind (fetch/read/write), address, size in bytes.

    A named tuple: the VM records one per fetch and data access, and a
    tuple is several times cheaper to build than a frozen dataclass.
    """

    kind: str
    addr: int
    size: int


@dataclass(slots=True)
class Trace:
    """An ordered record of the accesses of one concrete execution."""

    accesses: list[Access] = field(default_factory=list)

    def record(self, kind: str, addr: int, size: int) -> None:
        """Append one access."""
        self.accesses.append(Access(kind, addr, size))

    def fetches(self) -> list[int]:
        """Addresses of all instruction fetches."""
        return [a.addr for a in self.accesses if a.kind == FETCH]

    def data_accesses(self) -> list[int]:
        """Addresses of all data reads and writes."""
        return [a.addr for a in self.accesses if a.kind != FETCH]

    def view(self, cache_kind: str, offset_bits: int, stuttering: bool = False) -> tuple:
        """The adversary's view of this trace (paper §3.2).

        ``cache_kind`` is "I" (instruction stream), "D" (data stream) or
        "shared" (both, interleaved).  ``offset_bits`` selects the observer
        granularity; ``stuttering=True`` collapses maximal runs of equal
        observations.
        """
        observations = [addr >> offset_bits for addr in self._stream(cache_kind)]
        if not stuttering:
            return tuple(observations)
        collapsed: list[int] = []
        for observation in observations:
            if not collapsed or collapsed[-1] != observation:
                collapsed.append(observation)
        return tuple(collapsed)

    def _stream(self, cache_kind: str) -> list[int]:
        """The addresses of one cache's access stream."""
        if cache_kind == "I":
            return self.fetches()
        if cache_kind == "D":
            return self.data_accesses()
        if cache_kind == "shared":
            return [a.addr for a in self.accesses]
        raise ValueError(f"unknown cache kind {cache_kind!r}")

    def hit_miss_view(self, cache_kind: str, cache) -> tuple[bool, ...]:
        """The trace-based adversary's view: the hit/miss sequence.

        Replays this trace's ``cache_kind`` stream through ``cache`` (a fresh
        :class:`~repro.vm.cache.SetAssociativeCache` of any policy).  The
        result is a deterministic function of the block view, so its number
        of distinct values over all secrets is bounded by the block-trace
        count (see :mod:`repro.core.adversary`).
        """
        return tuple(cache.access(addr) for addr in self._stream(cache_kind))

    def time_view(self, cache_kind: str, cache) -> tuple[int, int]:
        """The time-based adversary's view: total (hits, misses).

        On an in-order cost model the execution time is an affine function
        of these two counters, so distinguishing timings is exactly
        distinguishing (hits, misses) pairs.
        """
        sequence = self.hit_miss_view(cache_kind, cache)
        hits = sum(sequence)
        return hits, len(sequence) - hits

    def __len__(self) -> int:
        return len(self.accesses)

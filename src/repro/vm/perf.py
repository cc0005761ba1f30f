"""Instruction/cycle cost model for the performance study (paper Figure 16).

The paper measures clock cycles (``rdtsc``) and instruction counts (PAPI) on
an Intel Q9550.  We substitute a simple in-order cost model on top of the
cache simulator: every instruction has a base latency, memory accesses add a
cache-hit or cache-miss latency, and multiplies/divides cost extra.  Absolute
numbers are not comparable to the paper's hardware, but the *relative* cost
of the countermeasures — which is what Figure 16 reports — is preserved
because all variants run on the same model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Instruction
from repro.vm.cache import CacheConfig, SetAssociativeCache

__all__ = ["CostModel", "PerfCounters"]


@dataclass(slots=True)
class PerfCounters:
    """Measured quantities, mirroring the rows of Figure 16."""

    instructions: int = 0
    cycles: int = 0
    memory_accesses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def merge(self, other: "PerfCounters") -> None:
        """Accumulate another counter set into this one."""
        self.instructions += other.instructions
        self.cycles += other.cycles
        self.memory_accesses += other.memory_accesses
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses


@dataclass
class CostModel:
    """In-order cost model: base latency + memory hierarchy latency.

    ``policy`` selects the replacement policy of both caches (``"lru"``,
    ``"fifo"``, ``"plru"``); when given, it rebuilds ``icache``/``dcache``
    with fresh (empty) caches of the same geometry, so pass either a policy
    name or pre-built caches, not both.  ``None`` keeps the caches as they
    are and records their policy.
    """

    base_cycles: int = 1
    mul_cycles: int = 3
    div_cycles: int = 20
    branch_cycles: int = 1
    hit_cycles: int = 3
    miss_cycles: int = 40
    policy: str | None = None
    icache: SetAssociativeCache = field(
        default_factory=lambda: SetAssociativeCache(CacheConfig(num_sets=64)))
    dcache: SetAssociativeCache = field(
        default_factory=lambda: SetAssociativeCache(CacheConfig(num_sets=64)))
    counters: PerfCounters = field(default_factory=PerfCounters)
    _mnemonic_cycles: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.policy is None:
            self.policy = self.icache.policy_name
        elif self.policy != self.icache.policy_name or self.policy != self.dcache.policy_name:
            self.icache = SetAssociativeCache(self.icache.config, policy=self.policy)
            self.dcache = SetAssociativeCache(self.dcache.config, policy=self.policy)

    def instruction(self, instr: Instruction) -> None:
        """Charge the base cost of one instruction (fetch charged separately)."""
        self.counters.instructions += 1
        mnemonic = instr.mnemonic
        cycles = self._mnemonic_cycles.get(mnemonic)
        if cycles is None:
            cycles = self._classify(mnemonic)
            self._mnemonic_cycles[mnemonic] = cycles
        self.counters.cycles += cycles

    def _classify(self, mnemonic: str) -> int:
        """Base latency of one mnemonic (memoized per cost model)."""
        if mnemonic in ("mul", "imul"):
            return self.mul_cycles
        if mnemonic == "div":
            return self.div_cycles
        if mnemonic.startswith("j") or mnemonic in ("call", "ret"):
            return self.branch_cycles
        return self.base_cycles

    def memory_access(self, kind: str, addr: int, size: int) -> None:
        """Charge one memory access through the appropriate cache."""
        cache = self.icache if kind == "I" else self.dcache
        hit = cache.access(addr)
        if kind != "I":
            self.counters.memory_accesses += 1
        if hit:
            self.counters.cache_hits += 1
            if kind != "I":
                self.counters.cycles += self.hit_cycles
        else:
            self.counters.cache_misses += 1
            self.counters.cycles += self.miss_cycles

    def charge(self, instructions: int, cycles: int) -> None:
        """Charge an analytically modeled extern call (hybrid simulation)."""
        self.counters.instructions += instructions
        self.counters.cycles += cycles

"""Abstract machine state: registers, flags, and abstract memory.

Memory locations are addressed two ways, mirroring the paper's treatment of
dynamic allocation:

- **concrete** locations (code, globals, the stack — whose pointer is a known
  constant) are keyed by address;
- **symbolic** locations (heap regions reachable from an unknown base) are
  keyed by ``(origin, offset)`` pairs from the §5.4.2 offset tracking, so
  that ``buf[k + 8·i]`` under an unknown ``buf`` still resolves to a stable
  location.

Reads of never-written locations yield *fresh unknown* symbols (cached per
location so that re-reading is stable); this is the sound default for data
the paper's analysis does not model (e.g. the contents of the pre-computed
tables, which influence values but not addresses).

Writes through secret-dependent (multi-element) addresses are weak updates:
every candidate location receives the join of its old and new contents and
is marked "maybe unwritten" so later reads conservatively include the
unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.config import AnalysisConfig
from repro.analysis.flags import TOP_FLAGS, FlagState, clear_caches as clear_flag_caches
from repro.core.bitvec import low_ones
from repro.core.masked import MaskedOps, MaskedSymbol
from repro.core.symbols import SymbolTable
from repro.core.valueset import PrecisionLoss, ValueSet, ValueSetOps, intern_clear

__all__ = ["AnalysisContext", "AbsMemory", "AbsState", "FlagSource"]

WIDTH = 32


class AnalysisContext:
    """Shared mutable context of one analysis run.

    Holds the symbol table (origins/offsets/succ), the lifted operations, the
    cache of unknown-read symbols, and diagnostics.  Everything here is
    *global* to the run — forked paths share it, which is what makes fresh
    symbols and the succ table consistent across paths.

    Construction clears the domain's hash-consing tables: interning memory
    stays bounded across long sweeps, and the per-run intern hit counters
    (surfaced on :class:`~repro.analysis.engine.SchedulerStats`) become a
    deterministic function of the analyzed scenario rather than of whatever
    ran earlier in the process.
    """

    def __init__(self, config: AnalysisConfig | None = None):
        intern_clear()
        clear_flag_caches()
        self.config = config or AnalysisConfig()
        self.table = SymbolTable(width=WIDTH)
        self.masked_ops = MaskedOps(self.table, track_offsets=self.config.track_offsets)
        self.ops = ValueSetOps(self.masked_ops, cap=self.config.value_set_cap)
        self.warnings: list[str] = []
        self._unknown_cache: dict[tuple, ValueSet] = {}

    def warn(self, message: str) -> None:
        """Record a diagnostic (kept on the final report)."""
        if message not in self.warnings:
            self.warnings.append(message)

    def unknown_value(self, key: tuple, size: int) -> ValueSet:
        """The cached fresh-unknown value of an unmodeled location."""
        cache_key = key + (size,)
        cached = self._unknown_cache.get(cache_key)
        if cached is not None:
            return cached
        sym = self.table.unknown_symbol(f"mem{len(self._unknown_cache)}")
        element = MaskedSymbol.symbol(sym, WIDTH)
        if size < 4:
            element, _ = self.masked_ops.and_(
                element, MaskedSymbol.constant(low_ones(8 * size), WIDTH)
            )
        value = ValueSet([element])
        self._unknown_cache[cache_key] = value
        return value

    def widened(self, reason: str) -> ValueSet:
        """A fresh unknown used when a value set exceeds its cap (widening)."""
        self.warn(f"value widened to unknown: {reason}")
        sym = self.table.unknown_symbol("widened")
        return ValueSet([MaskedSymbol.symbol(sym, WIDTH)])


@dataclass(frozen=True, slots=True)
class FlagSource:
    """Provenance of the current flags, for branch refinement.

    Records that the flags came from ``cmp reg, other`` (or ``test reg, reg``)
    so that a following conditional branch can filter the register's candidate
    values per outcome (e.g. ``e0 ∈ {0..7}`` becomes ``{1..7}`` on the
    not-equal-zero arm — without this, Figure 14a's table index would include
    the impossible value ``-1``).
    """

    reg: int
    operation: str  # "cmp" or "test"
    left: ValueSet
    right: ValueSet


# Memory entry: (size, value, definitely_written)
Entry = tuple[int, ValueSet, bool]


class AbsMemory:
    """Abstract memory over concrete and symbolic locations."""

    __slots__ = ("_slots",)

    def __init__(self, slots: dict | None = None):
        self._slots: dict[tuple, Entry] = slots if slots is not None else {}

    def clone(self) -> "AbsMemory":
        """Copy-on-fork: entries are immutable, the dict is copied."""
        return AbsMemory(dict(self._slots))

    # ------------------------------------------------------------------
    # Location keys
    # ------------------------------------------------------------------
    @staticmethod
    def _concrete_key(addr: int) -> tuple:
        return ("c", addr)

    @staticmethod
    def _symbolic_key(origin: MaskedSymbol, offset: int) -> tuple:
        return ("s", origin, offset)

    def location_keys(self, address: ValueSet, table: SymbolTable) -> list[tuple]:
        """Resolve an address set to a list of location keys."""
        keys = []
        for element in address:
            if element.is_constant:
                keys.append(self._concrete_key(element.value))
            else:
                origin, offset = table.origin_offset(element)
                keys.append(self._symbolic_key(origin, offset))
        return keys

    @staticmethod
    def _shift_key(key: tuple, delta: int) -> tuple | None:
        """The key ``delta`` bytes after ``key`` (None if not shiftable)."""
        if key[0] == "c":
            return ("c", key[1] + delta)
        return ("s", key[1], key[2] + delta)

    # ------------------------------------------------------------------
    # Reads and writes
    # ------------------------------------------------------------------
    def read_key(self, key: tuple, size: int, context: AnalysisContext) -> ValueSet:
        """Read one location, handling partial overlap and unknowns."""
        entry = self._slots.get(key)
        if entry is not None:
            stored_size, value, definite = entry
            if stored_size == size:
                if definite:
                    return value
                return self._join_values(value, context.unknown_value(key, size), context)
            if stored_size > size:
                extracted = self._extract(value, 0, size, context)
                if not definite:
                    extracted = self._join_values(
                        extracted, context.unknown_value(key, size), context)
                return extracted
            # A smaller slot at the same start: the rest of the read is
            # unmodeled, so the whole read is unknown (sound: unknown ⊇ all).
            return context.unknown_value(key, size)
        # Partial read: look for a containing slot starting before the key.
        for back in range(1, 4):
            container = self._slots.get(self._shift_key(key, -back))
            if container is None:
                continue
            stored_size, value, definite = container
            if stored_size >= back + size:
                extracted = self._extract(value, back, size, context)
                if not definite:
                    extracted = self._join_values(
                        extracted, context.unknown_value(key, size), context)
                return extracted
        return context.unknown_value(key, size)

    def _extract(self, value: ValueSet, byte_offset: int, size: int,
                 context: AnalysisContext) -> ValueSet:
        ops = context.ops
        shifted = value
        if byte_offset:
            shifted, _ = ops.shift("SHR", value, ValueSet.constant(8 * byte_offset, WIDTH))
        masked, _ = ops.and_(shifted, ValueSet.constant(low_ones(8 * size), WIDTH))
        return masked

    def read(self, address: ValueSet, size: int, context: AnalysisContext) -> ValueSet:
        """Read through a (possibly secret-dependent) address set."""
        keys = self.location_keys(address, context.table)
        result: ValueSet | None = None
        for key in keys:
            value = self.read_key(key, size, context)
            result = value if result is None else self._join_values(result, value, context)
        assert result is not None
        return result

    def write(self, address: ValueSet, value: ValueSet, size: int,
              context: AnalysisContext) -> None:
        """Write through an address set (strong iff the address is unique)."""
        keys = self.location_keys(address, context.table)
        strong = len(keys) == 1
        for key in keys:
            self._invalidate_overlaps(key, size)
            if strong:
                self._slots[key] = (size, value, True)
            else:
                old = self._slots.get(key)
                if old is not None and old[0] == size:
                    joined = self._join_values(old[1], value, context)
                    self._slots[key] = (size, joined, old[2])
                else:
                    self._slots[key] = (size, value, False)

    def _invalidate_overlaps(self, key: tuple, size: int) -> None:
        """Remove slots overlapping [key, key+size) other than key itself."""
        for delta in range(-3, size):
            if delta == 0:
                continue
            other = self._shift_key(key, delta)
            entry = self._slots.get(other)
            if entry is None:
                continue
            other_size = entry[0]
            overlaps = (delta < 0 and other_size > -delta) or delta > 0
            if delta > 0 and delta >= size:
                overlaps = False
            if overlaps:
                del self._slots[other]

    @staticmethod
    def _join_values(a: ValueSet, b: ValueSet, context: AnalysisContext) -> ValueSet:
        try:
            return a.join(b, cap=context.config.value_set_cap)
        except PrecisionLoss as loss:
            return context.widened(str(loss))

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------
    def join(self, other: "AbsMemory", context: AnalysisContext) -> "AbsMemory":
        """Pointwise join; one-sided entries become maybe-unwritten.

        At merge points the overwhelming majority of entries are the *same
        immutable tuple* on both sides (clone shares them); identical entries
        are reused without any per-key join work, and when every slot is
        shared the untouched side's dict is reused outright — safe because
        the engine's merge discards both operand states, leaving the joined
        state as the dict's only owner.
        """
        cap = context.config.value_set_cap
        mine_slots = self._slots
        their_slots = other._slots
        if len(mine_slots) == len(their_slots):
            # The identity scan also re-checks the cap: joining an over-cap
            # value with itself widened it on the slow path, and the fast
            # path must not silently keep it precise.
            for key, entry in mine_slots.items():
                if (their_slots.get(key) is not entry
                        or len(entry[1].elements) > cap):
                    break
            else:
                return self
        merged: dict[tuple, Entry] = {}
        for key in mine_slots.keys() | their_slots.keys():
            mine = mine_slots.get(key)
            theirs = their_slots.get(key)
            if mine is None or theirs is None:
                present = mine or theirs
                merged[key] = present if not present[2] else (present[0], present[1], False)
            elif (mine is theirs and len(mine[1].elements) <= cap):
                merged[key] = mine
            elif mine[0] == theirs[0]:
                if mine[1] is theirs[1] and len(mine[1].elements) <= cap:
                    value = mine[1]
                else:
                    value = self._join_values(mine[1], theirs[1], context)
                merged[key] = (mine[0], value, mine[2] and theirs[2])
            # Mismatched sizes: drop the slot; reads become unknown (sound).
        return AbsMemory(merged)

    def __len__(self) -> int:
        return len(self._slots)


class AbsState:
    """One program point's abstract machine state.

    ``copies`` records register pairs currently known to hold the *same*
    machine value (established by ``mov rd, rs``, invalidated by any other
    write).  Branch refinement uses it to narrow every register holding the
    compared value, not just the scratch register of the comparison.
    """

    __slots__ = ("regs", "flags", "memory", "flag_source", "copies")

    def __init__(self, regs: list[ValueSet], flags: FlagState,
                 memory: AbsMemory, flag_source: FlagSource | None = None,
                 copies: frozenset[tuple[int, int]] = frozenset()):
        self.regs = regs
        self.flags = flags
        self.memory = memory
        self.flag_source = flag_source
        self.copies = copies

    # ------------------------------------------------------------------
    # Register copy tracking
    # ------------------------------------------------------------------
    def record_copy(self, dst: int, src: int) -> None:
        """Note that ``dst`` now equals ``src`` (after ``mov dst, src``)."""
        kept = {pair for pair in self.copies if dst not in pair}
        if dst != src:
            kept.add((dst, src))
        self.copies = frozenset(kept)

    def invalidate_copy(self, reg: int) -> None:
        """Drop equalities involving ``reg`` after it was overwritten."""
        copies = self.copies
        if copies and any(reg in pair for pair in copies):
            self.copies = frozenset(
                pair for pair in copies if reg not in pair)

    def equal_registers(self, reg: int) -> set[int]:
        """Transitive closure of registers provably equal to ``reg``.

        A single BFS over the copy adjacency (built once per query) replaces
        the former repeat-until-stable rescan of every pair.
        """
        group = {reg}
        if not self.copies:
            return group
        neighbours: dict[int, list[int]] = {}
        for a, b in self.copies:
            neighbours.setdefault(a, []).append(b)
            neighbours.setdefault(b, []).append(a)
        frontier = [reg]
        while frontier:
            node = frontier.pop()
            for peer in neighbours.get(node, ()):
                if peer not in group:
                    group.add(peer)
                    frontier.append(peer)
        return group

    @classmethod
    def initial(cls, context: AnalysisContext) -> "AbsState":
        """All registers unknown, flags ⊤, memory empty."""
        regs = []
        for index in range(8):
            sym = context.table.unknown_symbol(f"reg{index}_init")
            regs.append(ValueSet.symbol(sym, WIDTH))
        return cls(regs=regs, flags=TOP_FLAGS, memory=AbsMemory())

    def clone(self) -> "AbsState":
        """Fork-time copy (registers list and memory dict are copied)."""
        return AbsState(
            regs=list(self.regs),
            flags=self.flags,
            memory=self.memory.clone(),
            flag_source=self.flag_source,
            copies=self.copies,
        )

    def join(self, other: "AbsState", context: AnalysisContext) -> "AbsState":
        """Control-flow merge.

        Registers holding the identical ValueSet on both sides (the common
        case: forks clone the register list by reference) skip the join; if
        *every* register is shared, the untouched list itself is reused —
        sound for the same ownership reason as the memory-dict reuse.
        """
        cap = context.config.value_set_cap
        mine_regs = self.regs
        their_regs = other.regs
        if all(mine is theirs and len(mine.elements) <= cap
               for mine, theirs in zip(mine_regs, their_regs)):
            regs = mine_regs
        else:
            regs = []
            for mine, theirs in zip(mine_regs, their_regs):
                if mine is theirs and len(mine.elements) <= cap:
                    regs.append(mine)
                    continue
                try:
                    regs.append(mine.join(theirs, cap=cap))
                except PrecisionLoss as loss:
                    regs.append(context.widened(str(loss)))
        flag_source = self.flag_source if self.flag_source == other.flag_source else None
        flags = self.flags if self.flags is other.flags else self.flags.join(other.flags)
        copies = self.copies if self.copies is other.copies else self.copies & other.copies
        return AbsState(
            regs=regs,
            flags=flags,
            memory=self.memory.join(other.memory, context),
            flag_source=flag_source,
            copies=copies,
        )

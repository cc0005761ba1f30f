"""Set-associative cache simulator with pluggable replacement policies.

Used by the cost model of the performance study (paper Figure 16) and by the
examples that demonstrate *why* the observers of §3.2 correspond to real
adversaries: the trace of hits/misses of this cache is a deterministic
function of the block-level view of the access trace.

The paper's observer hierarchy deliberately abstracts away the replacement
policy — the block-trace determinism argument holds for *any* deterministic
policy.  To make that claim executable rather than asserted for one
hardcoded simulator, the eviction logic lives behind a
:class:`ReplacementPolicy` strategy: LRU (the historical behavior,
bit-identical to the original simulator), FIFO, and tree-PLRU (the
pseudo-LRU tree used by real L1/L2 caches).  All policies operate on the
same set/tag geometry; only the victim choice differs.

The simulator also models cache banks (CacheBleed, §8.4): each line is split
into ``banks`` equally sized banks and concurrent accesses to the same bank
conflict.

:class:`CacheHierarchy` composes the same simulator into a multi-core
memory system: one private L1 per core plus an optional shared last-level
cache, with an inclusive mode (LLC evictions back-invalidate every private
copy, the property "The Spy in the Sandbox" LLC prime+probe relies on) and
an exclusive mode (the LLC holds only lines demoted from the private
caches, kept disjoint from them).  Every level reuses :class:`CacheConfig`
and the replacement-policy registry, so the block-trace determinism
argument extends to the whole hierarchy: its state evolution consults
nothing but block identities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "CacheConfig",
    "CacheStats",
    "SetAssociativeCache",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "TreePLRUPolicy",
    "POLICIES",
    "make_policy",
    "LevelSpec",
    "HierarchySpec",
    "CacheHierarchy",
    "HIERARCHY_MODES",
    "INCLUSIVE",
    "EXCLUSIVE",
    "MEMORY",
    "default_hierarchy_spec",
]


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry of one cache level."""

    line_bytes: int = 64
    num_sets: int = 64
    associativity: int = 8
    banks: int = 16

    def __post_init__(self) -> None:
        for value, label in ((self.line_bytes, "line_bytes"), (self.num_sets, "num_sets"),
                             (self.banks, "banks")):
            if value < 1 or value & (value - 1):
                raise ValueError(f"{label} must be a power of two, got {value}")
        if self.associativity < 1:
            raise ValueError(
                f"associativity must be >= 1, got {self.associativity}")
        if self.banks > self.line_bytes:
            raise ValueError(
                f"banks ({self.banks}) must divide line_bytes ({self.line_bytes})")

    @property
    def offset_bits(self) -> int:
        return self.line_bytes.bit_length() - 1

    @property
    def set_bits(self) -> int:
        return self.num_sets.bit_length() - 1

    @property
    def bank_bytes(self) -> int:
        """Size of one cache bank (the CacheBleed observation unit)."""
        return self.line_bytes // self.banks

    @property
    def capacity_bytes(self) -> int:
        return self.line_bytes * self.num_sets * self.associativity


@dataclass(slots=True)
class CacheStats:
    """Per-level cache counters.

    Beyond the hit/miss pair, each level accounts for the maintenance
    traffic a hierarchy generates: capacity ``evictions`` (the policy chose
    a victim), ``back_invalidations`` (an *inclusive* shared level evicted
    the line, so this private copy was dropped — counted separately from
    capacity evictions), ``writebacks`` (a dirty line left the hierarchy),
    and ``flushes`` (explicit whole-cache resets).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    back_invalidations: int = 0
    writebacks: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class ReplacementPolicy:
    """Strategy deciding which line of a set a miss evicts.

    A policy owns the *representation* of one set's state: ``new_set``
    creates it, ``lookup`` touches a resident tag, ``insert`` installs a
    missing one (evicting when the set is full), ``invalidate`` drops one,
    ``reset`` empties the set in place (including any metadata such as
    PLRU tree bits), and ``tags`` enumerates the resident tags.  One
    access is ``lookup``, then ``insert`` on a miss.  The cache itself
    only does geometry (set indexing and tag extraction).
    """

    name = "?"

    def __init__(self, associativity: int) -> None:
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {associativity}")
        self.associativity = associativity

    def new_set(self):
        """A fresh (empty) per-set state."""
        raise NotImplementedError

    def lookup(self, state, tag: int) -> bool:
        """The hit half of an access: touch ``tag`` if resident.

        Returns True on a hit.  Kept apart from :meth:`insert` so the
        hierarchy can fill levels independently of the demand lookup.
        """
        raise NotImplementedError

    def insert(self, state, tag: int):
        """The miss half of an access: install ``tag``.

        Returns the evicted tag when the set was full, else ``None``.
        """
        raise NotImplementedError

    def invalidate(self, state, tag: int) -> bool:
        """Drop ``tag`` from one set (back-invalidation / line migration).

        Returns True when the tag was resident.  Metadata such as PLRU tree
        bits is left untouched — exactly what invalidating one way does on
        the real structures.
        """
        raise NotImplementedError

    def reset(self, state) -> None:
        """Empty one set in place, clearing every piece of policy state."""
        raise NotImplementedError

    def tags(self, state):
        """The tags currently resident in one set."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used: the original simulator's policy, bit-identical.

    State is an ordered list of tags, most recently used last.
    """

    name = "lru"

    def new_set(self) -> list[int]:
        return []

    def lookup(self, state: list[int], tag: int) -> bool:
        if tag in state:
            state.remove(tag)
            state.append(tag)
            return True
        return False

    def insert(self, state: list[int], tag: int):
        state.append(tag)
        if len(state) > self.associativity:
            return state.pop(0)
        return None

    def invalidate(self, state: list[int], tag: int) -> bool:
        if tag in state:
            state.remove(tag)
            return True
        return False

    def reset(self, state: list[int]) -> None:
        state.clear()

    def tags(self, state: list[int]):
        return state


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: hits do not refresh a line's age.

    State is an ordered list of tags, oldest first.
    """

    name = "fifo"

    def new_set(self) -> list[int]:
        return []

    def lookup(self, state: list[int], tag: int) -> bool:
        return tag in state

    def insert(self, state: list[int], tag: int):
        state.append(tag)
        if len(state) > self.associativity:
            return state.pop(0)
        return None

    def invalidate(self, state: list[int], tag: int) -> bool:
        if tag in state:
            state.remove(tag)
            return True
        return False

    def reset(self, state: list[int]) -> None:
        state.clear()

    def tags(self, state: list[int]):
        return state


class TreePLRUPolicy(ReplacementPolicy):
    """Tree-based pseudo-LRU (the policy of real Intel L1/L2 caches).

    State is ``(ways, bits)``: ``ways`` maps way index → tag (or None),
    ``bits`` is the implicit binary tree of ``associativity - 1`` direction
    bits stored level by level; ``bits[i] == 0`` means the left subtree is
    older.  Touching a way flips every node on its root path to point away
    from it; the victim is found by following the direction bits down.
    Requires a power-of-two associativity (as the real hardware does).
    """

    name = "plru"

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        if associativity & (associativity - 1):
            raise ValueError(
                f"tree-PLRU needs a power-of-two associativity, got {associativity}")
        self._levels = associativity.bit_length() - 1

    def new_set(self) -> tuple[list, list[int]]:
        return ([None] * self.associativity, [0] * (self.associativity - 1))

    def _touch(self, bits: list[int], way: int) -> None:
        node = 0
        for level in range(self._levels - 1, -1, -1):
            direction = (way >> level) & 1
            bits[node] = 1 - direction  # point away from the touched way
            node = 2 * node + 1 + direction

    def _victim(self, bits: list[int]) -> int:
        node = 0
        internal = self.associativity - 1
        while node < internal:
            node = 2 * node + 1 + bits[node]
        return node - internal

    def lookup(self, state: tuple[list, list[int]], tag: int) -> bool:
        ways, bits = state
        try:
            way = ways.index(tag)
        except ValueError:
            return False
        self._touch(bits, way)
        return True

    def insert(self, state: tuple[list, list[int]], tag: int):
        ways, bits = state
        try:
            way = ways.index(None)  # fill invalid ways first
        except ValueError:
            way = self._victim(bits)
        evicted = ways[way]
        ways[way] = tag
        self._touch(bits, way)
        return evicted

    def invalidate(self, state: tuple[list, list[int]], tag: int) -> bool:
        ways, _bits = state
        try:
            way = ways.index(tag)
        except ValueError:
            return False
        ways[way] = None
        return True

    def reset(self, state: tuple[list, list[int]]) -> None:
        ways, bits = state
        for index in range(len(ways)):
            ways[index] = None
        for index in range(len(bits)):
            bits[index] = 0

    def tags(self, state: tuple[list, list[int]]):
        return [tag for tag in state[0] if tag is not None]


POLICIES: dict[str, type[ReplacementPolicy]] = {
    LRUPolicy.name: LRUPolicy,
    FIFOPolicy.name: FIFOPolicy,
    TreePLRUPolicy.name: TreePLRUPolicy,
}


def make_policy(policy: str | ReplacementPolicy, associativity: int) -> ReplacementPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, ReplacementPolicy):
        return policy
    try:
        factory = POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {policy!r} "
            f"(available: {', '.join(sorted(POLICIES))})") from None
    return factory(associativity)


class SetAssociativeCache:
    """Set-associative cache with a pluggable replacement policy."""

    def __init__(self, config: CacheConfig | None = None,
                 policy: str | ReplacementPolicy = "lru") -> None:
        self.config = config or CacheConfig()
        self.policy = make_policy(policy, self.config.associativity)
        if self.policy.associativity != self.config.associativity:
            raise ValueError(
                f"policy is {self.policy.associativity}-way but the cache is "
                f"{self.config.associativity}-way")
        self._sets = [self.policy.new_set() for _ in range(self.config.num_sets)]
        self.stats = CacheStats()
        # Blocks written while resident (maintained by CacheHierarchy; the
        # standalone simulator does not distinguish reads from writes).
        self.dirty: set[int] = set()
        # Geometry, flattened out of the config properties for the hot path.
        self._offset_bits = self.config.offset_bits
        self._set_bits = self.config.set_bits
        self._set_mask = self.config.num_sets - 1
        self._bank_bytes = self.config.bank_bytes
        self._line_mask = self.config.line_bytes - 1
        self._policy_lookup = self.policy.lookup
        self._policy_insert = self.policy.insert

    @property
    def policy_name(self) -> str:
        return self.policy.name

    def access(self, addr: int) -> bool:
        """Access one address; returns True on hit and updates policy state."""
        block = addr >> self._offset_bits
        state = self._sets[block & self._set_mask]
        tag = block >> self._set_bits
        if self._policy_lookup(state, tag):
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if self._policy_insert(state, tag) is not None:
            self.stats.evictions += 1
        return False

    # ------------------------------------------------------------------
    # Level-management primitives (used by CacheHierarchy)
    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> bool:
        """Probe one address without filling on a miss; counts hit/miss."""
        block = addr >> self._offset_bits
        hit = self._policy_lookup(self._sets[block & self._set_mask],
                                  block >> self._set_bits)
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return hit

    def fill(self, addr: int) -> int | None:
        """Install the line holding ``addr``; returns the evicted block.

        Counts a capacity eviction when the set was full (``None`` means no
        victim).  Does not touch the hit/miss counters: a fill is the
        consequence of a demand miss already counted by :meth:`lookup`, or
        maintenance traffic (demotion) that is no demand access at all.
        """
        block = addr >> self._offset_bits
        set_index = block & self._set_mask
        victim_tag = self._policy_insert(self._sets[set_index],
                                         block >> self._set_bits)
        if victim_tag is None:
            return None
        self.stats.evictions += 1
        return (victim_tag << self._set_bits) | set_index

    def invalidate_block(self, block: int) -> bool:
        """Drop one block if resident; returns True when it was."""
        return self.policy.invalidate(self._sets[block & self._set_mask],
                                      block >> self._set_bits)

    def contains_block(self, block: int) -> bool:
        """Residency check without touching replacement state."""
        return (block >> self._set_bits) in self.policy.tags(
            self._sets[block & self._set_mask])

    def bank_of(self, addr: int) -> int:
        """The cache bank an address falls into (CacheBleed granularity)."""
        return (addr & self._line_mask) // self._bank_bytes

    def flush(self) -> None:
        """Empty the cache (keeps statistics; counts one flush).

        Goes through the policy's reset hook so metadata beyond the resident
        tags — e.g. PLRU tree bits — cannot survive a flush.
        """
        for state in self._sets:
            self.policy.reset(state)
        self.dirty.clear()
        self.stats.flushes += 1

    def resident_blocks(self) -> set[int]:
        """The set of block numbers currently cached (for inspection)."""
        blocks = set()
        for set_index, state in enumerate(self._sets):
            for tag in self.policy.tags(state):
                blocks.add((tag << self.config.set_bits) | set_index)
        return blocks


# ----------------------------------------------------------------------
# Multi-level, multi-core hierarchy
# ----------------------------------------------------------------------

# Inclusion modes of the shared level.
INCLUSIVE = "inclusive"
EXCLUSIVE = "exclusive"
HIERARCHY_MODES = (INCLUSIVE, EXCLUSIVE)

# Level returned by CacheHierarchy.access for an access served by memory.
MEMORY = -1


@dataclass(frozen=True, slots=True)
class LevelSpec:
    """Geometry + replacement policy of one hierarchy level (wire-friendly)."""

    line_bytes: int = 64
    num_sets: int = 64
    associativity: int = 8
    policy: str = "lru"

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown replacement policy {self.policy!r} "
                f"(available: {', '.join(sorted(POLICIES))})")
        self.cache_config()  # geometry validation

    def cache_config(self) -> CacheConfig:
        # Banks are irrelevant above the L1 data path; clamp them so small
        # line sizes still produce a valid geometry.
        return CacheConfig(line_bytes=self.line_bytes, num_sets=self.num_sets,
                           associativity=self.associativity,
                           banks=min(16, self.line_bytes))

    def build(self) -> SetAssociativeCache:
        return SetAssociativeCache(self.cache_config(), policy=self.policy)

    def to_wire(self) -> tuple:
        """Plain-tuple form (JSON round-trippable, for Scenario payloads)."""
        return (self.line_bytes, self.num_sets, self.associativity, self.policy)

    @classmethod
    def from_wire(cls, wire) -> "LevelSpec":
        line_bytes, num_sets, associativity, policy = wire
        return cls(line_bytes=int(line_bytes), num_sets=int(num_sets),
                   associativity=int(associativity), policy=str(policy))


@dataclass(frozen=True, slots=True)
class HierarchySpec:
    """Shape of a :class:`CacheHierarchy`: per-core L1s + optional shared LLC.

    ``shared=None`` with ``cores=1`` degenerates to the single-level
    simulator (the fuzz-regression tests pin the two to identical
    behavior).  ``mode`` selects how the shared level relates to the
    private ones: :data:`INCLUSIVE` (LLC evictions back-invalidate every
    private copy) or :data:`EXCLUSIVE` (the LLC holds only demoted
    victims, disjoint from all private caches).
    """

    l1: LevelSpec = LevelSpec(num_sets=8, associativity=2)
    shared: LevelSpec | None = LevelSpec()
    cores: int = 2
    mode: str = INCLUSIVE

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.mode not in HIERARCHY_MODES:
            raise ValueError(
                f"unknown hierarchy mode {self.mode!r} "
                f"(available: {', '.join(HIERARCHY_MODES)})")
        if self.shared is not None and self.shared.line_bytes != self.l1.line_bytes:
            raise ValueError(
                f"all levels need one line size, got L1 {self.l1.line_bytes} "
                f"vs shared {self.shared.line_bytes}")

    @property
    def inclusive(self) -> bool:
        return self.mode == INCLUSIVE

    def with_policy(self, policy: str) -> "HierarchySpec":
        """The same shape with every level on ``policy`` (validation sweeps)."""
        return replace(
            self, l1=replace(self.l1, policy=policy),
            shared=None if self.shared is None else replace(self.shared,
                                                            policy=policy))

    def to_wire(self) -> tuple:
        """Plain-tuple form: ``(cores, mode, l1, shared_or_None)``."""
        return (self.cores, self.mode, self.l1.to_wire(),
                None if self.shared is None else self.shared.to_wire())

    @classmethod
    def from_wire(cls, wire) -> "HierarchySpec":
        cores, mode, l1, shared = wire
        return cls(cores=int(cores), mode=str(mode),
                   l1=LevelSpec.from_wire(l1),
                   shared=None if shared is None else LevelSpec.from_wire(shared))


def default_hierarchy_spec(line_bytes: int = 64, policy: str = "lru",
                           mode: str = INCLUSIVE, cores: int = 2) -> HierarchySpec:
    """The reference two-core shape: 8×2 L1s under a 16×4 shared LLC.

    A miniature of the real ratio (private caches a quarter of the shared
    level) sized so a full LLC prime is 64 lines: big enough that the case
    studies' tables land in distinct sets, small enough that the validator's
    per-secret prime+probe replays stay cheap.
    """
    return HierarchySpec(
        l1=LevelSpec(line_bytes=line_bytes, num_sets=8, associativity=2,
                     policy=policy),
        shared=LevelSpec(line_bytes=line_bytes, num_sets=16, associativity=4,
                         policy=policy),
        cores=cores, mode=mode)


class CacheHierarchy:
    """Per-core private L1s over an optional shared last-level cache.

    :meth:`access` serves one demand access from a core and returns the
    level that hit (``0`` = the core's L1, ``1`` = the shared LLC,
    :data:`MEMORY` = neither).  All transfer traffic — fills, demotions,
    back-invalidations, writebacks — is accounted on the per-level
    :class:`CacheStats`, with back-invalidations kept separate from
    capacity evictions.

    Writes (``write=True``) mark the accessed line dirty; a dirty line
    leaving the hierarchy is a writeback (counted, and reported through
    the optional ``on_writeback`` callback so tests can assert no dirty
    line is ever silently dropped).  There is no coherence protocol: cores
    may replicate read-shared lines, and in exclusive mode a victim is
    demoted to the LLC only while no other core still holds it (keeping
    the LLC disjoint from every private cache).
    """

    def __init__(self, spec: HierarchySpec | None = None,
                 on_writeback=None) -> None:
        self.spec = spec or HierarchySpec()
        self.on_writeback = on_writeback
        self.l1s = [self.spec.l1.build() for _ in range(self.spec.cores)]
        self.shared = None if self.spec.shared is None else self.spec.shared.build()
        self._inclusive = self.spec.inclusive
        self._offset_bits = self.l1s[0]._offset_bits

    # ------------------------------------------------------------------
    # Demand accesses
    # ------------------------------------------------------------------
    def access(self, addr: int, core: int = 0, write: bool = False) -> int:
        """One demand access from ``core``; returns the serving level."""
        l1 = self.l1s[core]
        block = addr >> self._offset_bits
        if l1.lookup(addr):
            if write:
                l1.dirty.add(block)
            return 0
        shared = self.shared
        level = MEMORY
        migrated_dirty = False
        if shared is not None:
            if shared.lookup(addr):
                level = 1
                if not self._inclusive:
                    # Exclusive: the line migrates LLC → L1.
                    shared.invalidate_block(block)
                    migrated_dirty = block in shared.dirty
                    shared.dirty.discard(block)
            elif self._inclusive:
                victim = shared.fill(addr)
                if victim is not None:
                    self._drop_shared_victim(victim)
        victim = l1.fill(addr)
        if write or migrated_dirty:
            # Dirtiness lives in the innermost copy and transfers outward
            # on eviction (see _handle_l1_victim).
            l1.dirty.add(block)
        if victim is not None:
            self._handle_l1_victim(core, victim)
        return level

    def shared_access(self, addr: int, write: bool = False) -> bool:
        """A demand access served at the shared level only.

        This is the probe primitive of an LLC prime+probe spy: a party
        whose private cache holds none of the probed lines (flushed, or
        self-evicted as in "The Spy in the Sandbox") observes the shared
        level directly.  Returns True on an LLC hit.
        """
        shared = self.shared
        if shared is None:
            raise ValueError("hierarchy has no shared level to probe")
        block = addr >> self._offset_bits
        if shared.lookup(addr):
            if write:
                shared.dirty.add(block)
            return True
        victim = shared.fill(addr)
        if write:
            shared.dirty.add(block)
        if victim is not None:
            self._drop_shared_victim(victim)
        return False

    # ------------------------------------------------------------------
    # Transfer traffic
    # ------------------------------------------------------------------
    def _writeback(self, cache: SetAssociativeCache, block: int) -> None:
        cache.stats.writebacks += 1
        if self.on_writeback is not None:
            self.on_writeback(block)

    def _drop_shared_victim(self, block: int) -> None:
        """The shared level evicted ``block``: it leaves the hierarchy."""
        shared = self.shared
        if block in shared.dirty:
            shared.dirty.discard(block)
            self._writeback(shared, block)
        if self._inclusive:
            # Inclusion demands no private cache outlives the LLC copy.
            for l1 in self.l1s:
                if l1.invalidate_block(block):
                    l1.stats.back_invalidations += 1
                    if block in l1.dirty:
                        l1.dirty.discard(block)
                        self._writeback(l1, block)

    def _handle_l1_victim(self, core: int, block: int) -> None:
        """A private fill evicted ``block`` from ``core``'s L1."""
        l1 = self.l1s[core]
        dirty = block in l1.dirty
        l1.dirty.discard(block)
        shared = self.shared
        if shared is None:
            if dirty:
                self._writeback(l1, block)
            return
        if self._inclusive:
            # The LLC still holds the line; dirtiness transfers down.
            if dirty:
                if shared.contains_block(block):
                    shared.dirty.add(block)
                else:
                    self._writeback(l1, block)
            return
        # Exclusive: demote the victim into the LLC — unless another core
        # still holds it privately, which would break LLC/private
        # disjointness (no coherence protocol arbitrates the copies).
        for other in self.l1s:
            if other is not l1 and other.contains_block(block):
                if dirty:
                    self._writeback(l1, block)
                return
        llc_victim = shared.fill(block << self._offset_bits)
        if dirty:
            shared.dirty.add(block)
        if llc_victim is not None:
            self._drop_shared_victim(llc_victim)

    # ------------------------------------------------------------------
    # Inspection / maintenance
    # ------------------------------------------------------------------
    def caches(self) -> list[SetAssociativeCache]:
        """Every level, private first, shared last."""
        return self.l1s + ([] if self.shared is None else [self.shared])

    def private_blocks(self) -> set[int]:
        """Blocks resident in any core's private cache."""
        blocks: set[int] = set()
        for l1 in self.l1s:
            blocks |= l1.resident_blocks()
        return blocks

    def dirty_blocks(self) -> set[int]:
        """Blocks dirty at any level."""
        blocks: set[int] = set()
        for cache in self.caches():
            blocks |= cache.dirty
        return blocks

    def level_stats(self) -> dict[str, CacheStats]:
        """Per-level counters, keyed ``l1[core]`` / ``llc``."""
        stats = {f"l1[{core}]": l1.stats for core, l1 in enumerate(self.l1s)}
        if self.shared is not None:
            stats["llc"] = self.shared.stats
        return stats

    def flush(self) -> None:
        """Write back every dirty line and reset every level's policy state."""
        for cache in self.caches():
            for block in sorted(cache.dirty):
                self._writeback(cache, block)
            cache.flush()  # clears cache.dirty and counts the flush

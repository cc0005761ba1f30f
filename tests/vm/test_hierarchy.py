"""Multi-level cache hierarchy (vm/cache.py): degenerate-shape bit-identity
against the flat simulator, inclusion/exclusion invariants as hypothesis
properties, dirty-line/writeback accounting, and the per-level
flush/back-invalidation bookkeeping."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.cache import (
    EXCLUSIVE,
    INCLUSIVE,
    MEMORY,
    POLICIES,
    CacheConfig,
    CacheHierarchy,
    HierarchySpec,
    LevelSpec,
    SetAssociativeCache,
    default_hierarchy_spec,
)

LINE = 64


def _address_stream(seed, length=4000, span=1 << 16):
    rng = random.Random(seed)
    return [rng.randrange(span) for _ in range(length)]


def _small_spec(mode, policy="lru", cores=2):
    """Tiny two-level shape: evictions and back-invalidations every few
    accesses, so short random streams exercise all transfer paths."""
    return HierarchySpec(
        l1=LevelSpec(line_bytes=LINE, num_sets=2, associativity=2,
                     policy=policy),
        shared=LevelSpec(line_bytes=LINE, num_sets=4, associativity=2,
                         policy=policy),
        cores=cores, mode=mode)


# One access: (block, core, write) over a span small enough to collide.
access_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),
              st.integers(min_value=0, max_value=1),
              st.booleans()),
    min_size=1, max_size=150)

policies = st.sampled_from(sorted(POLICIES))
modes = st.sampled_from([INCLUSIVE, EXCLUSIVE])


class TestDegenerateBitIdentity:
    """A 1-core, no-LLC hierarchy is the flat simulator, bit for bit: same
    hit/miss sequence, same stats, same resident lines — every policy."""

    GEOMETRIES = [
        CacheConfig(line_bytes=64, num_sets=8, associativity=2),
        CacheConfig(line_bytes=32, num_sets=4, associativity=4),
        CacheConfig(line_bytes=64, num_sets=1, associativity=2, banks=16),
    ]

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: f"{g.num_sets}x{g.associativity}")
    def test_matches_flat_cache(self, geometry, policy, seed):
        flat = SetAssociativeCache(geometry, policy=policy)
        hierarchy = CacheHierarchy(HierarchySpec(
            l1=LevelSpec(line_bytes=geometry.line_bytes,
                         num_sets=geometry.num_sets,
                         associativity=geometry.associativity,
                         policy=policy),
            shared=None, cores=1))
        for addr in _address_stream(seed):
            level = hierarchy.access(addr)
            assert level in (0, MEMORY)
            assert (level == 0) == flat.access(addr)
        l1 = hierarchy.l1s[0]
        assert (l1.stats.hits, l1.stats.misses, l1.stats.evictions) == \
               (flat.stats.hits, flat.stats.misses, flat.stats.evictions)
        assert l1.resident_blocks() == flat.resident_blocks()

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_flush_matches_flat_cache(self, policy):
        geometry = CacheConfig(line_bytes=64, num_sets=4, associativity=2)
        flat = SetAssociativeCache(geometry, policy=policy)
        hierarchy = CacheHierarchy(HierarchySpec(
            l1=LevelSpec(line_bytes=64, num_sets=4, associativity=2,
                         policy=policy),
            shared=None, cores=1))
        stream = _address_stream(7, length=500)
        for addr in stream:
            flat.access(addr)
            hierarchy.access(addr)
        flat.flush()
        hierarchy.flush()
        for addr in stream:
            assert (hierarchy.access(addr) == 0) == flat.access(addr)


class TestInclusionProperties:
    """The mode invariants, checked after *every* access of random
    multi-core read/write streams under every policy."""

    @settings(max_examples=60, deadline=None)
    @given(stream=access_streams, policy=policies)
    def test_inclusive_private_subset_of_llc(self, stream, policy):
        hierarchy = CacheHierarchy(_small_spec(INCLUSIVE, policy=policy))
        for block, core, write in stream:
            hierarchy.access(block * LINE, core=core, write=write)
            missing = hierarchy.private_blocks() - \
                hierarchy.shared.resident_blocks()
            assert not missing, f"L1-only blocks {missing} break inclusion"

    @settings(max_examples=60, deadline=None)
    @given(stream=access_streams, policy=policies)
    def test_exclusive_private_disjoint_from_llc(self, stream, policy):
        hierarchy = CacheHierarchy(_small_spec(EXCLUSIVE, policy=policy))
        for block, core, write in stream:
            hierarchy.access(block * LINE, core=core, write=write)
            overlap = hierarchy.private_blocks() & \
                hierarchy.shared.resident_blocks()
            assert not overlap, f"blocks {overlap} replicated in LLC"

    def test_exclusive_demotion_then_llc_hit(self):
        """An L1 victim lands in the LLC and migrates back on re-access."""
        hierarchy = CacheHierarchy(_small_spec(EXCLUSIVE))
        for block in (0, 2, 4):  # all map to L1 set 0; 4 evicts 0 under LRU
            hierarchy.access(block * LINE)
        assert hierarchy.shared.contains_block(0)
        assert hierarchy.access(0) == 1
        assert not hierarchy.shared.contains_block(0)


class TestDirtyAccounting:
    """No dirty line is ever silently dropped: a written block stays dirty
    at some level until the hierarchy reports it written back."""

    @settings(max_examples=60, deadline=None)
    @given(stream=access_streams, mode=modes, policy=policies)
    def test_written_blocks_dirty_until_written_back(self, stream, mode,
                                                     policy):
        written_back = []
        hierarchy = CacheHierarchy(_small_spec(mode, policy=policy),
                                   on_writeback=written_back.append)
        pending = set()
        for block, core, write in stream:
            hierarchy.access(block * LINE, core=core, write=write)
            if write:
                pending.add(block)
            pending -= set(written_back)
            assert pending <= hierarchy.dirty_blocks()

    @settings(max_examples=60, deadline=None)
    @given(stream=access_streams, mode=modes)
    def test_flush_writes_back_every_written_block(self, stream, mode):
        written_back = []
        hierarchy = CacheHierarchy(_small_spec(mode),
                                   on_writeback=written_back.append)
        written = set()
        for block, core, write in stream:
            hierarchy.access(block * LINE, core=core, write=write)
            if write:
                written.add(block)
        hierarchy.flush()
        assert not hierarchy.dirty_blocks()
        assert written <= set(written_back)

    def test_back_invalidation_preserves_dirtiness(self):
        """An inclusive LLC eviction of a line dirty in another core's L1
        must write it back, not drop it."""
        written_back = []
        hierarchy = CacheHierarchy(_small_spec(INCLUSIVE),
                                   on_writeback=written_back.append)
        hierarchy.access(0, core=1, write=True)  # block 0 dirty in L1[1]
        # Three more LLC-set-0 blocks from core 0 evict block 0 (assoc 2).
        for block in (4, 8, 12):
            hierarchy.access(block * LINE, core=0)
        assert 0 in written_back
        assert 0 not in hierarchy.dirty_blocks()


class TestFlushSemantics:
    @settings(max_examples=40, deadline=None)
    @given(prefix=access_streams, suffix=access_streams, mode=modes,
           policy=policies)
    def test_flush_equals_fresh(self, prefix, suffix, mode, policy):
        """A flushed hierarchy is indistinguishable from a new one."""
        spec = _small_spec(mode, policy=policy)
        flushed = CacheHierarchy(spec)
        for block, core, write in prefix:
            flushed.access(block * LINE, core=core, write=write)
        flushed.flush()
        fresh = CacheHierarchy(spec)
        for block, core, write in suffix:
            assert (flushed.access(block * LINE, core=core, write=write)
                    == fresh.access(block * LINE, core=core, write=write))

    def test_flush_resets_every_level(self):
        hierarchy = CacheHierarchy(default_hierarchy_spec())
        for addr in _address_stream(3, length=200):
            hierarchy.access(addr, core=addr % 2, write=addr % 3 == 0)
        hierarchy.flush()
        for cache in hierarchy.caches():
            assert not cache.resident_blocks()
            assert not cache.dirty
            assert cache.stats.flushes == 1


class TestStatsAccounting:
    """Back-invalidations are maintenance traffic, not capacity pressure:
    they get their own per-level counter."""

    def test_back_invalidation_counted_separately(self):
        hierarchy = CacheHierarchy(_small_spec(INCLUSIVE))
        hierarchy.access(0, core=1)  # core 1 holds block 0
        for block in (4, 8, 12):     # evict block 0 from LLC via core 0
            hierarchy.access(block * LINE, core=0)
        stats = hierarchy.level_stats()
        assert stats["l1[1]"].back_invalidations == 1
        assert stats["l1[1]"].evictions == 0
        assert not hierarchy.l1s[1].contains_block(0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HierarchySpec(cores=0)
        with pytest.raises(ValueError):
            HierarchySpec(mode="victim")
        with pytest.raises(ValueError):
            HierarchySpec(l1=LevelSpec(line_bytes=32),
                          shared=LevelSpec(line_bytes=64))
        with pytest.raises(ValueError):
            LevelSpec(policy="belady")

    def test_spec_wire_round_trip(self):
        for spec in (default_hierarchy_spec(), _small_spec(EXCLUSIVE),
                     HierarchySpec(shared=None, cores=1)):
            assert HierarchySpec.from_wire(spec.to_wire()) == spec
        assert default_hierarchy_spec(policy="lru").with_policy("plru") == \
            default_hierarchy_spec(policy="plru")

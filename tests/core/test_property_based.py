"""Property-based tests: array invariants under arbitrary access patterns.

The key invariants of any cache array, exercised with hypothesis:

1. Storage consistency: the position map and the line array agree, and no
   block is stored twice.
2. Placement legality: every resident block sits at a position its hash
   functions allow.
3. Containment: after accessing address A, A is resident.
4. Conservation: blocks only leave via eviction or invalidation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Cache,
    FullyAssociativeArray,
    RandomCandidatesArray,
    SetAssociativeArray,
    SkewAssociativeArray,
    ZCacheArray,
)
from repro.replacement import LRU, BucketedLRU, FIFO, RandomPolicy

ADDRESSES = st.integers(min_value=0, max_value=500)
TRACE = st.lists(st.tuples(ADDRESSES, st.booleans()), min_size=1, max_size=300)


def array_cases():
    return [
        lambda: SetAssociativeArray(2, 8),
        lambda: SetAssociativeArray(4, 8, hash_kind="h3", hash_seed=1),
        lambda: SkewAssociativeArray(4, 8, hash_seed=2),
        lambda: ZCacheArray(2, 8, levels=3, hash_seed=3),
        lambda: ZCacheArray(4, 8, levels=2, hash_seed=4),
        lambda: ZCacheArray(4, 8, levels=3, repeat_filter="exact", hash_seed=5),
        lambda: ZCacheArray(3, 8, levels=2, strategy="dfs", hash_seed=6),
        lambda: FullyAssociativeArray(16),
        lambda: RandomCandidatesArray(16, 8, seed=7),
    ]


class TestInvariantsUnderTraffic:
    @given(trace=TRACE)
    @settings(max_examples=40, deadline=None)
    def test_all_arrays_stay_consistent(self, trace):
        for factory in array_cases():
            arr = factory()
            cache = Cache(arr, LRU())
            for addr, is_write in trace:
                result = cache.access(addr, is_write)
                assert addr in arr, "accessed block must be resident"
                if result.evicted is not None:
                    assert result.evicted not in arr
            arr.check_invariants()
            assert len(arr) <= arr.num_blocks

    @given(trace=TRACE, seed=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_policy_variants_consistent(self, trace, seed):
        policies = [LRU, FIFO, lambda: BucketedLRU(4, 3), lambda: RandomPolicy(seed)]
        for policy_factory in policies:
            arr = ZCacheArray(4, 8, levels=2, hash_seed=seed)
            cache = Cache(arr, policy_factory())
            for addr, is_write in trace:
                cache.access(addr, is_write)
            arr.check_invariants()

    @given(trace=TRACE)
    @settings(max_examples=30, deadline=None)
    def test_accounting_identities(self, trace):
        cache = Cache(ZCacheArray(4, 8, levels=2, hash_seed=9), LRU())
        for addr, is_write in trace:
            cache.access(addr, is_write)
        stats = cache.stats
        assert stats.accesses == stats.hits + stats.misses
        assert stats.accesses == stats.reads + stats.writes
        assert stats.misses == stats.evictions + stats.fills_empty
        assert stats.writebacks <= stats.evictions + stats.invalidations
        # Every miss writes the incoming block's data once; relocations
        # add one more data write each.
        assert stats.data_writes >= stats.misses

    @given(
        trace=TRACE,
        kill=st.lists(st.integers(0, 500), max_size=20),
    )
    @settings(max_examples=25, deadline=None)
    def test_invalidations_interleaved(self, trace, kill):
        cache = Cache(ZCacheArray(4, 8, levels=3, hash_seed=11), LRU())
        kill_iter = iter(kill)
        for i, (addr, is_write) in enumerate(trace):
            cache.access(addr, is_write)
            if i % 5 == 4:
                target = next(kill_iter, None)
                if target is not None:
                    cache.invalidate(target)
        cache.array.check_invariants()


class TestEvictionConservation:
    @given(trace=st.lists(ADDRESSES, min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_resident_set_evolution(self, trace):
        """Track the expected resident set access by access."""
        cache = Cache(SkewAssociativeArray(2, 8, hash_seed=13), LRU())
        expected: set[int] = set()
        for addr in trace:
            result = cache.access(addr)
            expected.add(addr)
            if result.evicted is not None:
                expected.discard(result.evicted)
            assert set(cache.resident()) == expected


class TestZCacheRelocationProperty:
    @given(trace=st.lists(ADDRESSES, min_size=50, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_relocated_blocks_stay_at_legal_positions(self, trace):
        arr = ZCacheArray(3, 8, levels=3, hash_seed=17)
        cache = Cache(arr, LRU())
        for addr in trace:
            cache.access(addr)
            for resident in arr.resident():
                pos = arr.lookup(resident)
                assert pos.index == arr.hashes[pos.way](resident)

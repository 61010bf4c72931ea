"""Tests for the three-C miss decomposition."""

import random

from repro.assoc import classify_misses
from repro.core import SetAssociativeArray, SkewAssociativeArray, ZCacheArray
from repro.replacement import LRU


def uniform_trace(n, footprint, seed=0):
    rng = random.Random(seed)
    return [(rng.randrange(footprint), False) for _ in range(n)]


class TestDecomposition:
    def test_components_sum_to_total(self):
        d = classify_misses(
            lambda: SetAssociativeArray(2, 16),
            LRU,
            uniform_trace(3_000, 200),
        )
        assert d.compulsory + d.capacity + d.conflict == d.total_misses

    def test_cold_trace_all_compulsory(self):
        # Every address referenced once: all misses are compulsory.
        trace = [(a, False) for a in range(500)]
        d = classify_misses(lambda: SetAssociativeArray(2, 16), LRU, trace)
        assert d.total_misses >= d.compulsory == 500
        assert d.capacity == 0

    def test_fits_in_cache_no_capacity_misses(self):
        trace = [(a % 24, False) for a in range(2_000)]
        d = classify_misses(lambda: SetAssociativeArray(2, 16), LRU, trace)
        assert d.capacity == 0
        assert d.compulsory == 24

    def test_conflict_misses_from_bad_indexing(self):
        # Stride equal to the set count: everything lands in one set.
        trace = [((i % 8) * 16, False) for i in range(4_000)]
        d = classify_misses(lambda: SetAssociativeArray(2, 16), LRU, trace)
        assert d.conflict > 0
        assert d.conflict_fraction > 0.5

    def test_zcache_reduces_conflict_misses(self):
        # Hot-set stride conflicts on an un-hashed SA index: classic
        # conflict misses, which the zcache's hashed multi-way placement
        # eliminates almost entirely.
        rng = random.Random(1)
        trace = []
        for i in range(20_000):
            if i % 2:
                trace.append(((i // 2 % 12) * 32, False))  # one hot set
            else:
                trace.append((rng.randrange(100), False))
        sa = classify_misses(
            lambda: SetAssociativeArray(4, 32, hash_kind="bitsel"), LRU, trace
        )
        z = classify_misses(
            lambda: ZCacheArray(4, 32, levels=3, hash_seed=2), LRU, trace
        )
        assert sa.conflict > 100
        assert z.conflict < sa.conflict * 0.25

    def test_negative_conflict_possible(self):
        # Anti-LRU cyclic scan: fully-associative LRU misses always; a
        # restricted cache "accidentally" keeps some blocks — negative
        # conflict count, one of the paper's objections to this metric.
        trace = [(i % 40, False) for i in range(4_000)]
        d = classify_misses(
            lambda: SkewAssociativeArray(2, 16, hash_seed=3), LRU, trace
        )
        assert d.conflict < 0

    def test_row_renders(self):
        d = classify_misses(
            lambda: SetAssociativeArray(2, 16), LRU, uniform_trace(500, 100)
        )
        assert "compulsory" in d.row()
        assert 0.0 <= d.miss_rate <= 1.0

    def test_empty_trace(self):
        d = classify_misses(lambda: SetAssociativeArray(2, 16), LRU, [])
        assert d.accesses == 0
        assert d.miss_rate == 0.0
        assert d.conflict_fraction == 0.0

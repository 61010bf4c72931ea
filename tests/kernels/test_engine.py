"""Engine selection, fallback gating, and stats rebinding."""

import random

import pytest

from repro.assoc.measurement import TrackedPolicy
from repro.core.controller import Cache, CacheStats
from repro.core.randomcand import RandomCandidatesArray
from repro.core.setassoc import SetAssociativeArray
from repro.core.skew import SkewAssociativeArray
from repro.core.zcache import ZCacheArray
from repro.kernels.engine import TurboCore, try_build_turbo
from repro.replacement.lru import FIFO, LRU
from repro.replacement.random_policy import RandomPolicy
from repro.replacement.srrip import SRRIP


def _snapshot(cache):
    return {k: c.value for k, c in cache.stats.counters().items()}


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        Cache(SetAssociativeArray(2, 8), LRU(), engine="vroom")


@pytest.mark.parametrize(
    "make_policy",
    [LRU, lambda: TrackedPolicy(LRU())],
    ids=["lru", "tracked-lru"],
)
def test_supported_configs_get_turbo(make_policy):
    """Fig. 2's configuration: random candidates under (tracked) LRU."""
    cache = Cache(RandomCandidatesArray(64, 8), make_policy(), engine="turbo")
    assert cache.engine == "turbo"
    assert cache.requested_engine == "turbo"
    assert isinstance(cache._turbo, TurboCore)


def test_reference_is_default():
    cache = Cache(SetAssociativeArray(2, 8), LRU())
    assert cache.engine == "reference"
    assert cache.requested_engine == "reference"
    assert cache._turbo is None


@pytest.mark.parametrize(
    "make_cache",
    [
        # Only Fig. 2's random-candidates array has a kernel: every
        # set-associative, skew or zcache array falls back, whatever its
        # walk strategy, candidate cap or repeat filter.
        lambda: Cache(
            ZCacheArray(4, 16, levels=2, strategy="dfs"), LRU(), engine="turbo"
        ),
        lambda: Cache(
            ZCacheArray(4, 16, levels=2, candidate_limit=8), LRU(), engine="turbo"
        ),
        lambda: Cache(
            ZCacheArray(4, 16, levels=2, repeat_filter="bloom"),
            LRU(),
            engine="turbo",
        ),
        lambda: Cache(SetAssociativeArray(4, 16), LRU(), engine="turbo"),
        lambda: Cache(SkewAssociativeArray(4, 16), LRU(), engine="turbo"),
        lambda: Cache(ZCacheArray(4, 16, levels=2), LRU(), engine="turbo"),
        # Policies without a kernel.
        lambda: Cache(RandomCandidatesArray(64, 8), SRRIP(), engine="turbo"),
        lambda: Cache(
            RandomCandidatesArray(64, 8), TrackedPolicy(SRRIP()), engine="turbo"
        ),
        lambda: Cache(RandomCandidatesArray(64, 8), FIFO(), engine="turbo"),
        lambda: Cache(
            RandomCandidatesArray(64, 8), RandomPolicy(), engine="turbo"
        ),
    ],
)
def test_unsupported_configs_fall_back(make_cache):
    cache = make_cache()
    assert cache.requested_engine == "turbo"
    assert cache.engine == "reference"
    assert cache._turbo is None
    # The fallback still works.
    for address in range(100):
        cache.access(address)
    assert _snapshot(cache)["accesses"] == 100


def test_subclass_policies_fall_back():
    """Exact-type gating: a subclass may change scoring semantics."""

    class MyLRU(LRU):
        pass

    cache = Cache(RandomCandidatesArray(64, 8), MyLRU(), engine="turbo")
    assert cache.engine == "reference"


def test_prepopulated_state_is_rejected():
    """try_build_turbo only accepts a pristine cache."""
    cache = Cache(RandomCandidatesArray(64, 8), LRU())
    for address in range(32):
        cache.access(address)
    assert try_build_turbo(cache) is None


def test_pin_raises_under_turbo():
    cache = Cache(RandomCandidatesArray(64, 8), LRU(), engine="turbo")
    cache.access(7)
    with pytest.raises(RuntimeError, match="pinning is not supported"):
        cache.pin(7)


def _run(cache, seed, count, footprint=512):
    rng = random.Random(seed)
    for _ in range(count):
        cache.access(rng.randrange(footprint), rng.random() < 0.3)


def test_stats_swap_rebinds_turbo_counters():
    """Replacing ``cache.stats`` mid-run must re-home the turbo core.

    The core caches counter refs for the hot loop; the stats-listener
    protocol is what keeps those refs live across a registry swap.
    """
    ref = Cache(RandomCandidatesArray(128, 8), LRU())
    turbo = Cache(RandomCandidatesArray(128, 8), LRU(), engine="turbo")
    assert turbo.engine == "turbo"
    for cache in (ref, turbo):
        _run(cache, seed=5, count=1500)
        cache.stats = CacheStats()
        _run(cache, seed=6, count=1500)
    after_ref, after_turbo = _snapshot(ref), _snapshot(turbo)
    assert after_turbo == after_ref
    assert after_ref["accesses"] == 1500  # only the post-swap traffic

"""Property test: turbo and reference engines are bit-identical.

Hypothesis draws a random-candidates geometry (Fig. 2's array, the one
the turbo engine runs), bare or tracked LRU, a seed and an access trace;
the same trace replayed through ``engine="reference"`` and
``engine="turbo"`` must produce identical per-access results, eviction
priorities, counters, final array contents and dirty state. This is the
differential harness's fuzzing arm — ``scripts/diff_engines.py`` checks
the big fixed workloads, this covers the odd corners (tiny arrays, heavy
conflict, interleaved invalidates).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.assoc.measurement import TrackedPolicy
from repro.core.controller import Cache
from repro.core.randomcand import RandomCandidatesArray
from repro.replacement.lru import LRU


def _build_cache(candidates, blocks, tracked, seed, engine):
    array = RandomCandidatesArray(blocks, num_candidates=candidates, seed=seed)
    policy = TrackedPolicy(LRU()) if tracked else LRU()
    return Cache(array, policy, engine=engine)


def _replay(cache, ops):
    log = []
    for op, address, is_write in ops:
        if op == "inv":
            log.append(("inv", address, cache.invalidate(address)))
        else:
            r = cache.access(address, is_write)
            log.append(
                (r.hit, r.evicted, r.writeback, r.relocations, r.filled_empty)
            )
    return log


def _final_state(cache):
    counters = {k: c.value for k, c in cache.stats.counters().items()}
    priorities = getattr(cache.policy, "priorities", None)
    return (
        [list(way) for way in cache.array._lines],
        sorted(cache._dirty),
        counters,
        list(priorities) if priorities is not None else None,
    )


@st.composite
def _cases(draw):
    candidates = draw(st.sampled_from([2, 3, 4]))
    blocks = candidates * draw(st.sampled_from([4, 8, 16]))
    tracked = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**16))
    footprint = draw(st.sampled_from([2, 4, 8])) * blocks
    n_ops = draw(st.integers(min_value=50, max_value=400))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        op = "inv" if roll < 0.05 else "acc"
        ops.append((op, rng.randrange(footprint), rng.random() < 0.3))
    return candidates, blocks, tracked, seed, ops


@settings(max_examples=50, deadline=None)
@given(_cases())
def test_engines_bit_identical(case):
    candidates, blocks, tracked, seed, ops = case
    ref = _build_cache(candidates, blocks, tracked, seed, "reference")
    turbo = _build_cache(candidates, blocks, tracked, seed, "turbo")
    assert turbo.engine == "turbo", "drawn configuration should be supported"
    assert _replay(ref, ops) == _replay(turbo, ops)
    assert _final_state(ref) == _final_state(turbo)

"""MTStream and shuffle_order must reproduce CPython's random.Random
draw-for-draw."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.rng import MTStream, RandrangePool, shuffle_order


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("n", [3, 5, 100, 2048, 16384])
def test_randrange_parity(seed, n):
    ref = random.Random(seed)
    stream = MTStream(random.Random(seed))
    got = stream.randrange(n, 3000)
    assert got.tolist() == [ref.randrange(n) for _ in range(3000)]


def test_mixed_draw_shapes_share_one_word_stream():
    """Interleaved randrange/word draws must stay in sync.

    The rejection sampler pushes unconsumed raw words back; a later
    draw must pick up exactly where the Python object would.
    """
    ref = random.Random(42)
    stream = MTStream(random.Random(42))
    assert stream.randrange(2048, 777).tolist() == [
        ref.randrange(2048) for _ in range(777)
    ]
    assert stream.words(123).tolist() == [
        ref.getrandbits(32) for _ in range(123)
    ]
    assert stream.randrange(77, 1000).tolist() == [
        ref.randrange(77) for _ in range(1000)
    ]


def test_source_object_is_not_advanced():
    source = random.Random(5)
    before = source.getstate()
    MTStream(source).randrange(100, 50)
    assert source.getstate() == before


def test_words_equal_getrandbits():
    ref = random.Random(3)
    stream = MTStream(random.Random(3))
    assert stream.words(1000).tolist() == [
        ref.getrandbits(32) for _ in range(1000)
    ]


def test_randrange_rejects_bad_bounds():
    stream = MTStream(random.Random(0))
    with pytest.raises(ValueError):
        stream.randrange(0, 1)
    with pytest.raises(ValueError):
        stream.randrange(1 << 33, 1)


def test_pool_preserves_order_across_refills():
    ref = random.Random(9)
    pool = RandrangePool(MTStream(random.Random(9)), 512, batch=100)
    got = []
    for count in (1, 7, 64, 300, 5, 999):
        got.extend(pool.take(count).tolist())
    assert got == [ref.randrange(512) for _ in range(len(got))]


# -- shuffle_order ------------------------------------------------------------

SHUFFLE_SIZES = [1, 2, 3, 63, 64, 65, 4095, 4096, 4097, 70000]


def _twins(seed: int, warmup: int) -> tuple[random.Random, random.Random]:
    """Two RNGs in one state; ``warmup`` words in, so the MT position
    varies (a freshly seeded Random sits at the end of its key block)."""
    a = random.Random(seed)
    for _ in range(warmup):
        a.getrandbits(32)
    b = random.Random()
    b.setstate(a.getstate())
    return a, b


@pytest.mark.parametrize("n", SHUFFLE_SIZES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), warmup=st.integers(0, 1300))
def test_shuffle_order_matches_cpython_shuffle(n, seed, warmup):
    ours, ref = _twins(seed, warmup)
    items = list(range(n))
    ref.shuffle(items)
    assert shuffle_order(ours, n).tolist() == items
    # Write-back: the source stands exactly where shuffle left it.
    assert ours.getstate() == ref.getstate()
    assert ours.random() == ref.random()
    assert ours.randrange(n + 7) == ref.randrange(n + 7)


@pytest.mark.parametrize("n", [2, 5, 623, 624, 625, 1249])
@pytest.mark.parametrize("warmup", [0, 1, 300, 622, 623, 624])
def test_shuffle_order_write_back_at_key_block_edges(n, warmup):
    """Consumption ending inside the first key block, on its edge, or in
    a block fetched only partly must all write back the same state."""
    ours, ref = _twins(11, warmup)
    ref.shuffle(list(range(n)))
    shuffle_order(ours, n)
    assert ours.getstate() == ref.getstate()


def test_shuffle_order_dtype():
    order = shuffle_order(random.Random(0), 1000)
    assert order.dtype == np.int32
    assert sorted(order.tolist()) == list(range(1000))
    assert shuffle_order(random.Random(0), 0).tolist() == []


def test_shuffle_order_rejects_bounds_above_32_bits():
    source = random.Random(0)
    before = source.getstate()
    with pytest.raises(ValueError, match=r"2\*\*32 - 1 items"):
        shuffle_order(source, 2**32)
    assert source.getstate() == before

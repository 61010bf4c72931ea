"""Bulk reproduction of CPython ``random.Random`` draws with numpy.

CPython's ``random.Random`` is a Mersenne Twister (MT19937) whose state
is exposed by ``getstate()`` as 624 32-bit key words plus a position.
numpy ships the same generator, and accepts exactly that state — so a
numpy ``MT19937`` built from a live ``random.Random`` produces, via
``random_raw``, the *identical* stream of 32-bit words the Python object
would produce through ``getrandbits(32)``.

On top of the raw word stream this module re-implements the two draw
shapes the simulator's bulk paths use, matching CPython 3.10-3.13 bit
for bit:

``randrange(n)`` (:class:`MTStream`)
    ``_randbelow_with_getrandbits``: ``k = n.bit_length()`` bits per
    attempt (note: for a power of two this is one bit *more* than
    log2(n)), rejecting values ``>= n``. For a run of draws, rejected
    words simply vanish from the accepted subsequence, so vectorizing is
    a mask: ``vals = words >> (32 - k); accepted = vals[vals < n]``.
``shuffle(x)`` (:func:`shuffle_order`)
    ``randrange(i + 1)`` for ``i = n-1 .. 1``, one swap each. The draws
    come out of chunked rejection sampling over the word stream and the
    swaps are composed into one permutation with a sort.

The two differ in what happens to the source object. An
:class:`MTStream` is *decoupled*: building it snapshots the state and
never advances the Python object, so callers must route **all** later
draws of that logical stream through it (the turbo engine owns its RNGs
outright). :func:`shuffle_order` *writes back*: it counts the words its
draws consumed and sets the source to the state after them — the
untempered outputs of the 624-word key block holding that point, plus
the offset into the block — so the caller's later Python draws continue
exactly where ``shuffle`` would have left them.
"""

from __future__ import annotations

import math
import random

import numpy as np

#: raw words fetched per refill; large enough to amortize, small enough
#: not to overshoot short runs
_CHUNK = 1 << 14


#: MT19937 key length: the twist regenerates all of it every 624 words
_MT_N = 624


def _mt_state(source: random.Random) -> tuple[np.ndarray, int, float | None]:
    """``source``'s MT19937 key, position and cached gauss value."""
    version, internal, gauss = source.getstate()
    if version != 3:  # pragma: no cover - never on supported CPython
        raise RuntimeError(f"unsupported random.Random state version {version}")
    # ``internal`` is 625 ints: the 624-word key plus the position.
    return np.array(internal[:_MT_N], dtype=np.uint32), internal[_MT_N], gauss


def _mt19937(key: np.ndarray, pos: int) -> np.random.MT19937:
    bg = np.random.MT19937(0)
    bg.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": pos}}
    return bg


def _untemper(words: np.ndarray) -> np.ndarray:
    """The MT19937 key words whose tempered outputs are ``words``."""
    y = words ^ (words >> np.uint32(18))
    y ^= (y << np.uint32(15)) & np.uint32(0xEFC60000)
    x = y
    for _ in range(4):  # 7-bit steps: four passes recover all 32 bits
        x = y ^ ((x << np.uint32(7)) & np.uint32(0x9D2C5680))
    return x ^ (x >> np.uint32(11)) ^ (x >> np.uint32(22))


class MTStream:
    """A numpy MT19937 word stream bit-synced to a ``random.Random``.

    Parameters
    ----------
    source:
        The Python RNG whose future output this stream reproduces. Its
        state is copied; the object itself is left untouched.
    """

    def __init__(self, source: random.Random) -> None:
        key, pos, _ = _mt_state(source)
        self._bg = _mt19937(key, pos)
        # Leftover raw words from the last refill, not yet consumed.
        self._raw = np.empty(0, dtype=np.uint32)

    # -- raw words -----------------------------------------------------------
    def words(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit words (== ``getrandbits(32)`` calls)."""
        if count <= len(self._raw):
            out, self._raw = self._raw[:count], self._raw[count:]
            return out
        need = count - len(self._raw)
        fresh = self._bg.random_raw(max(need, _CHUNK)).astype(np.uint32)
        out = np.concatenate([self._raw, fresh[:need]])
        self._raw = fresh[need:]
        return out

    # -- CPython draw shapes -------------------------------------------------
    def randrange(self, n: int, count: int) -> np.ndarray:
        """The next ``count`` results of ``source.randrange(n)``, vectorized.

        Reproduces ``_randbelow_with_getrandbits``: each attempt takes
        ``n.bit_length()`` bits from one 32-bit word (top bits first) and
        rejected attempts consume their word without producing a draw.
        """
        if n < 1:
            raise ValueError(f"randrange bound must be >= 1, got {n}")
        k = n.bit_length()
        if k > 32:  # pragma: no cover - simulator ranges are small
            raise ValueError(f"randrange bound {n} needs >32 bits")
        shift = np.uint32(32 - k)
        parts = []
        have = 0
        while have < count:
            # Expect ~n / 2**k of fetched words accepted; over-fetch a bit.
            need = count - have
            guess = max(int(need * (1 << k) / n) + 16, 64)
            raw = self.words(guess)
            vals = raw >> shift
            ok = vals < n
            accepted = vals[ok]
            if len(accepted) > need:
                # Find the word that yields the last draw we need and
                # push the untouched raw words after it back unconsumed.
                cut = int(np.nonzero(np.cumsum(ok) == need)[0][0]) + 1
                self._raw = np.concatenate([raw[cut:], self._raw])
                accepted = accepted[:need]
            parts.append(accepted)
            have += len(accepted)
        return np.concatenate(parts) if len(parts) != 1 else parts[0]


class RandrangePool:
    """A lazily-refilled pool of ``randrange(n)`` draws from one stream.

    The turbo engine consumes candidate draws a handful at a time; the
    pool amortizes the vectorized rejection sampling across thousands of
    draws while preserving stream order exactly.
    """

    def __init__(self, stream: MTStream, n: int, batch: int = 1 << 13) -> None:
        self._stream = stream
        self._n = n
        self._batch = batch
        self._pool = np.empty(0, dtype=np.uint32)
        self._at = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` draws, in stream order."""
        end = self._at + count
        if end > len(self._pool):
            left = self._pool[self._at:]
            fresh = self._stream.randrange(self._n, max(self._batch, count))
            self._pool = np.concatenate([left, fresh])
            self._at = 0
            end = count
        out = self._pool[self._at:end]
        self._at = end
        return out


def shuffle_order(source: random.Random, n: int) -> np.ndarray:
    """The permutation ``source.shuffle`` applies to a list of ``n`` items.

    ``x[:] = [x[p] for p in shuffle_order(rng, len(x))]`` leaves ``x``
    and ``rng`` exactly as ``rng.shuffle(x)`` does on CPython 3.10-3.13:
    the same order, and ``rng`` advanced by the same raw words, so its
    later draws are unchanged. Returns ``int32`` (``int64`` from 2**31
    items).
    """
    if n.bit_length() > 32:
        # CPython draws bounds above 32 bits from several words per attempt.
        raise ValueError(
            f"shuffle_order supports at most 2**32 - 1 items (32-bit draw bounds), got {n}"
        )
    dtype = np.int32 if n < 1 << 31 else np.int64
    if n < 2:
        return np.arange(n, dtype=dtype)
    key, pos, gauss = _mt_state(source)
    bg = _mt19937(key, pos)
    j, words, used = _shuffle_draws(bg, n, dtype)
    # Write-back: the state after ``used`` words is the key of the
    # 624-word block holding that point (its outputs, untempered) plus
    # the offset into it; the twist that started the block is implied.
    at = pos + used
    if at > _MT_N:
        block = (at - 1) // _MT_N
        start = block * _MT_N - pos
        if start + _MT_N > len(words):
            fresh = bg.random_raw(start + _MT_N - len(words)).astype(np.uint32)
            words = np.concatenate([words, fresh])
        key, at = _untemper(words[start:start + _MT_N]), at - block * _MT_N
    source.setstate((3, (*key.tolist(), at), gauss))
    return _resolve(j)


def _shuffle_draws(
    bg: np.random.MT19937, n: int, dtype: type
) -> tuple[np.ndarray, np.ndarray, int]:
    """The draws ``j[i] = _randbelow(i + 1)`` of ``shuffle`` on ``n`` items.

    Returns ``(j, words, used)``: ``j[i]`` for ``i`` in ``0..n-1``
    (``j[0] = 0``, a step ``shuffle`` never takes), every raw word
    fetched from ``bg``, and how many of them the draws consumed.

    Draws run from bound ``b = n`` down to 2. Within a run of bounds
    sharing ``k = b.bit_length()`` an attempt keeps the top ``k`` bits of
    a word and each accepted draw lowers the bound by one. So in a chunk
    of ``m`` words a value ``<= b - m`` is accepted whatever precedes it
    and one ``>= b`` is rejected; only the values in between are resolved
    in order, about 32 per chunk at the chunk size used.
    """
    j = np.zeros(n, dtype=dtype)
    words = bg.random_raw(n).astype(np.uint32)
    used = 0
    b = n
    while b >= 2:
        k = b.bit_length()
        shift = np.uint32(32 - k)
        floor = 1 << (k - 1)  # the run's smallest bound
        chunk = max(64, math.isqrt(32 << k))
        while b >= floor:
            left = b - floor + 1
            m = min(chunk, 2 * left + 32)
            if used + m > len(words):
                # The draws left take fewer than 2 words each on average.
                fresh = bg.random_raw(2 * b + m).astype(np.uint32)
                words = np.concatenate([words, fresh])
            vals = words[used:used + m] >> shift
            sure = max(b - m + 1, 0)
            accept = vals < sure
            hits = np.flatnonzero(accept)
            between = np.flatnonzero(vals - np.uint32(sure) < np.uint32(b - sure))
            if len(between):
                late: list[int] = []
                for q, v, before in zip(
                    between.tolist(), vals[between].tolist(),
                    np.searchsorted(hits, between).tolist(),
                ):
                    if v < b - before - len(late):
                        late.append(q)
                if late:
                    accept[late] = True
                    hits = np.flatnonzero(accept)
            hits = hits[:left]
            j[b - len(hits):b] = vals[hits[::-1]]
            b -= len(hits)
            used += int(hits[-1]) + 1 if len(hits) == left else m
    return j, words, used


def _resolve(j: np.ndarray) -> np.ndarray:
    """Where each position's final item starts, given the swap draws.

    Step ``i`` (``i = n-1 .. 1``) swaps positions ``i`` and ``j[i]`` and
    never touches position ``i`` again, so position ``i`` ends up with
    what ``j[i]`` held before step ``i``: the item put there by the next
    later step that drew ``j[i]`` too, if any. That step ``s`` put there
    what position ``s`` held before step ``s``, which is what the first
    step after ``s`` that drew ``s`` put there (``later[s]``), and so on
    until no step did and the position still holds its starting item.
    One sort on ``(j, i)`` yields both links; ``later`` chains are short
    (mean about 1) and are followed by pointer jumping.
    """
    n = len(j)
    bits = (n - 1).bit_length()
    pairs = (j.astype(np.uint64) << np.uint64(bits)) | np.arange(n, dtype=np.uint64)
    pairs.sort()
    drawn = (pairs >> np.uint64(bits)).astype(j.dtype)
    steps = (pairs & np.uint64((1 << bits) - 1)).astype(j.dtype)
    # Sorted entries t and t + 1 are steps that drew the same value.
    same = np.zeros(n, dtype=bool)
    np.equal(drawn[1:], drawn[:-1], out=same[:-1])
    succ = np.zeros(n, dtype=j.dtype)
    succ[:-1] = steps[1:]
    heads = np.flatnonzero(np.concatenate(([True], ~same[:-1])))
    value, first = drawn[heads], steps[heads]
    # Every step that drew ``s`` is >= s; skip step s itself (a self-swap).
    later = np.full(n, -1, dtype=j.dtype)
    later[value] = np.where(
        first != value, first, np.where(same[heads], succ[heads], -1)
    )
    walk = np.flatnonzero(later >= 0)
    end = np.arange(n, dtype=j.dtype)
    end[walk] = later[walk]
    while len(walk):
        at = end[walk]
        jump = end[at]
        end[walk] = jump
        walk = walk[jump != at]
    order = np.empty(n, dtype=j.dtype)
    order[steps] = np.where(same, end[succ], drawn)
    return order

"""Bulk reproduction of CPython ``random.Random`` draws with numpy.

CPython's ``random.Random`` is a Mersenne Twister (MT19937) whose state
is exposed by ``getstate()`` as 624 32-bit key words plus a position.
numpy ships the same generator, and accepts exactly that state — so a
:class:`MTStream` built from a live ``random.Random`` produces, via
``random_raw``, the *identical* stream of 32-bit words the Python object
would produce through ``getrandbits(32)``.

On top of the raw word stream this module re-implements the draw shape
the simulator's bulk paths use, matching CPython 3.x semantics bit for
bit:

``randrange(n)``
    ``_randbelow_with_getrandbits``: ``k = n.bit_length()`` bits per
    attempt (note: for a power of two this is one bit *more* than
    log2(n)), rejecting values ``>= n``. For a run of draws, rejected
    words simply vanish from the accepted subsequence, so vectorizing is
    a mask: ``vals = words >> (32 - k); accepted = vals[vals < n]``.

The stream is *decoupled* from the source ``random.Random``: building an
MTStream snapshots the state and does not advance the Python object.
Callers therefore must route **all** subsequent draws of that logical
stream through the MTStream (the turbo engine owns its RNGs outright).
"""

from __future__ import annotations

import random

import numpy as np

#: raw words fetched per refill; large enough to amortize, small enough
#: not to overshoot short runs
_CHUNK = 1 << 14


class MTStream:
    """A numpy MT19937 word stream bit-synced to a ``random.Random``.

    Parameters
    ----------
    source:
        The Python RNG whose future output this stream reproduces. Its
        state is copied; the object itself is left untouched.
    """

    def __init__(self, source: random.Random) -> None:
        version, internal, gauss = source.getstate()
        if version != 3:  # pragma: no cover - never on supported CPython
            raise RuntimeError(f"unsupported random.Random state version {version}")
        # ``internal`` is 625 ints: the 624-word key plus the position.
        key, pos = internal[:624], internal[624]
        bg = np.random.MT19937(0)
        bg.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(key, dtype=np.uint32), "pos": pos},
        }
        self._bg = bg
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

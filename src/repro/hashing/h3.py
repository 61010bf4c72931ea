"""H3 universal hash family (Carter & Wegman, 1977).

An H3 function over ``b``-bit keys producing ``i``-bit indexes is defined
by an ``i x b`` binary matrix ``Q``: bit ``j`` of the output is the parity
(XOR-reduction) of ``key AND Q[j]``. In hardware each output bit costs a
few XOR gates; in Python we compute the parity with ``int.bit_count()``.

Because cache experiments hash the same addresses over and over (a
workload's footprint is finite), results are memoised per instance.
"""

from __future__ import annotations

import random

from repro.hashing.base import HashFunction

#: Number of address bits the matrix covers. 48 bits of block address is
#: plenty for simulated workloads (256 TB of cache-line address space).
ADDRESS_BITS = 48


class H3Hash(HashFunction):
    """One member of the H3 family, selected by ``seed``.

    Parameters
    ----------
    num_lines:
        Index space size (power of two).
    seed:
        Selects the random binary matrix. Two instances with different
        seeds are pairwise-independent hash functions.
    """

    def __init__(self, num_lines: int, seed: int = 0) -> None:
        super().__init__(num_lines)
        rng = random.Random(seed)
        # One random row (an ADDRESS_BITS-bit mask) per output bit. Rows
        # must be non-zero or the corresponding output bit is constant.
        self._rows: list[int] = []
        for _ in range(self.index_bits):
            row = 0
            while row == 0:
                row = rng.getrandbits(ADDRESS_BITS)
            self._rows.append(row)
        self.seed = seed
        self._memo: dict[int, int] = {}

    def __call__(self, address: int) -> int:
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        cached = self._memo.get(address)
        if cached is not None:
            return cached
        index = 0
        for bit, row in enumerate(self._rows):
            index |= ((address & row).bit_count() & 1) << bit
        self._memo[address] = index
        return index

    def matrix(self) -> list[int]:
        """Return the row masks defining this function (for inspection)."""
        return list(self._rows)

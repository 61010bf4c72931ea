"""Dense, slot-indexed LRU kernel.

The reference LRU keeps a per-address stamp dict (and, under
:class:`~repro.assoc.measurement.TrackedPolicy`, a sorted multiset whose
O(n) list inserts dominate the hot loop). The turbo engine stores the
same stamps as a dense array indexed by slot: victim selection over a
miss's candidates is a gather plus an argmin, and the eviction-priority
rank is one vectorized comparison over the whole array.

Determinism contract (asserted by the differential suite):

- victim choice equals ``policy.select_victim`` over the in-order
  deduplicated candidate list — numpy's first-of-equals argmin matches
  the reference scan's first-wins strictly-greater update;
- :meth:`StampKernel.rank` equals ``SortedMultiset.rank`` of the
  victim's ``(score, address)`` entry: the count of resident entries
  comparing strictly less, with the address as tie-break.
"""

from __future__ import annotations

import numpy as np


class StampKernel:
    """LRU: a global counter stamped into the touched slot.

    Scores are negated stamps, so the victim is the minimum stamp;
    stamps are unique, so ties never arise. Stamps start at 1 and empty
    slots hold 0, keeping rank comparisons free of an explicit
    residency mask.
    """

    def __init__(self, num_blocks: int, counter: int) -> None:
        self.stamp = np.zeros(num_blocks, dtype=np.int64)
        self.counter = counter

    def on_hit(self, slot: int) -> None:
        """Re-stamp a touched block's slot."""
        self.counter += 1
        self.stamp[slot] = self.counter

    def on_insert(self, slot: int) -> None:
        """Stamp a newly installed block's slot."""
        self.counter += 1
        self.stamp[slot] = self.counter

    def on_clear(self, slot: int) -> None:
        """Mark a slot empty (eviction or invalidation)."""
        self.stamp[slot] = 0

    def pick_victim(self, slots: np.ndarray) -> int:
        """Local index (into ``slots``) of the least recently used slot."""
        return int(np.argmin(self.stamp[slots]))

    def rank(self, victim_slot: int) -> int:
        """Resident entries strictly below the victim's (score, address).

        Scores are ``-stamp`` and unique, so the rank is the number of
        resident blocks with a *larger* stamp; the address tie-break can
        never fire.
        """
        return int(np.count_nonzero(self.stamp > self.stamp[victim_slot]))

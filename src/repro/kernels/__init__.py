"""ZTurbo: vectorized hot-path kernels for the simulator.

The reference simulator (``repro.core``) is object-per-candidate pure
Python: every miss allocates ``Candidate`` dataclasses, walks dicts and
sorted multisets, and draws from ``random.Random`` one value at a time.
This package re-expresses the hot path as numpy array math while keeping
a hard determinism contract: **a turbo cache produces bit-identical
eviction sequences, statistics and eviction-priority streams to the
reference engine** (enforced by ``tests/kernels`` and
``scripts/diff_engines.py``).

Modules
-------
``rng``
    :class:`~repro.kernels.rng.MTStream`: a numpy ``MT19937`` bit-synced
    to a ``random.Random``, reproducing CPython's ``getrandbits`` /
    ``randrange`` draw-for-draw in bulk; and
    :func:`~repro.kernels.rng.shuffle_order`, ``random.Random.shuffle``
    in bulk, which the workload generators use.
``policy``
    Dense slot-indexed LRU victim selection and eviction-priority
    ranking.
``engine``
    :class:`~repro.kernels.engine.TurboCore`, the drop-in access engine
    a :class:`~repro.core.controller.Cache` constructed with
    ``engine="turbo"`` delegates to.
``replay``
    Bulk address generation for the Fig. 2 loop.

The engine covers exactly one configuration, the one Fig. 2 runs: a
:class:`~repro.core.randomcand.RandomCandidatesArray` under LRU, bare
or tracked. There it is about 6x faster than the reference engine. On
the CMP sweep behind Fig. 4/5 a vectorized walk measured 0.7x of the
reference, so every other array/policy combination makes
``try_build_turbo`` return ``None`` and the cache stays on the
reference path, recorded in its metrics. See ``docs/kernels.md``.
"""

from repro.kernels.engine import TurboCore, try_build_turbo
from repro.kernels.rng import MTStream

__all__ = [
    "MTStream",
    "TurboCore",
    "try_build_turbo",
]

"""Access-pattern primitives.

Each primitive is an infinite iterator of block addresses within
``[0, footprint)``. Workload specs compose them (with weights) and add
address-space offsets, instruction gaps, and read/write labels.

All randomness is seeded — the same spec always produces the same trace.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Sequence


def sequential_scan(footprint: int, start: int = 0) -> Iterator[int]:
    """Wrap-around sequential scan: 0, 1, 2, ..., footprint-1, 0, ...

    Models streaming workloads (lbm, libquantum, streamcluster).
    """
    if footprint < 1:
        raise ValueError(f"footprint must be >= 1, got {footprint}")
    addr = start % footprint
    while True:
        yield addr
        addr += 1
        if addr >= footprint:
            addr = 0


def strided(footprint: int, stride: int, start: int = 0) -> Iterator[int]:
    """Strided scan: start, start+stride, ... (mod footprint).

    Power-of-two strides are the classic set-conflict pathology
    (Section II-A); stencil codes (mgrid, cactusADM) look like several
    of these superimposed.
    """
    if footprint < 1:
        raise ValueError(f"footprint must be >= 1, got {footprint}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    addr = start % footprint
    while True:
        yield addr
        addr = (addr + stride) % footprint


def uniform_random(footprint: int, seed: int = 0) -> Iterator[int]:
    """Uniform random addresses — the no-locality stress case."""
    if footprint < 1:
        raise ValueError(f"footprint must be >= 1, got {footprint}")
    rng = random.Random(seed)
    while True:
        yield rng.randrange(footprint)


def zipf(footprint: int, skew: float = 1.1, seed: int = 0) -> Iterator[int]:
    """Zipf-like popularity over a shuffled footprint.

    ``skew`` > 1 concentrates traffic on few hot blocks (pointer-heavy
    integer codes); ``skew`` < 1 flattens towards uniform. Uses the
    bounded-Pareto inverse-CDF so no per-sample loops are needed.
    """
    if footprint < 1:
        raise ValueError(f"footprint must be >= 1, got {footprint}")
    if skew <= 0 or math.isclose(skew, 1.0):
        # skew ~ 1 makes the inverse-CDF exponent vanish (span -> 0);
        # anything isclose to 1 is numerically degenerate, not just 1.0.
        raise ValueError(f"skew must be positive and != 1, got {skew}")
    # Imported on use: importing repro.kernels loads the turbo engine.
    from repro.kernels.rng import shuffle_order

    rng = random.Random(seed)
    # A fixed random permutation decouples popularity rank from address
    # value, so hot blocks do not cluster in one cache region. Indexing
    # the array's memoryview yields plain ints.
    perm = memoryview(shuffle_order(rng, footprint))
    exponent = 1.0 - skew
    span = footprint**exponent - 1.0
    while True:
        u = rng.random()
        rank = int((span * u + 1.0) ** (1.0 / exponent))
        yield perm[rank % footprint]


def working_set_phases(
    footprint: int,
    ws_fraction: float = 0.25,
    phase_length: int = 10_000,
    locality: float = 0.9,
    seed: int = 0,
) -> Iterator[int]:
    """Phased working sets: dense reuse inside a window that jumps.

    Models loop-nest programs (most of SPECfp): during a phase, accesses
    hit a contiguous window of ``ws_fraction * footprint`` blocks with
    probability ``locality`` (uniform within the window) and stray
    anywhere otherwise; each phase the window moves.
    """
    if not 0.0 < ws_fraction <= 1.0:
        raise ValueError(f"ws_fraction must be in (0,1], got {ws_fraction}")
    if not 0.0 <= locality <= 1.0:
        raise ValueError(f"locality must be in [0,1], got {locality}")
    if phase_length < 1:
        raise ValueError(f"phase_length must be >= 1, got {phase_length}")
    rng = random.Random(seed)
    ws_size = max(1, int(footprint * ws_fraction))
    while True:
        base = rng.randrange(footprint)
        for _ in range(phase_length):
            if rng.random() < locality:
                yield (base + rng.randrange(ws_size)) % footprint
            else:
                yield rng.randrange(footprint)


def pointer_chase(footprint: int, seed: int = 0, jump_every: int = 0) -> Iterator[int]:
    """Traversal of a random permutation cycle.

    Models linked-data-structure codes (mcf, omnetpp, canneal): each
    access is data-dependent on the previous one, with no spatial
    pattern. ``jump_every`` > 0 restarts the chase at a random node
    periodically (several independent traversals in flight).
    """
    if footprint < 1:
        raise ValueError(f"footprint must be >= 1, got {footprint}")
    # Imported on use: importing repro.kernels loads the turbo engine.
    from repro.kernels.rng import shuffle_order

    rng = random.Random(seed)
    # The successor table ``list(range(1, footprint)) + [0]`` after
    # ``rng.shuffle``; indexing its memoryview yields plain ints.
    order = shuffle_order(rng, footprint)
    order += 1
    order[order == footprint] = 0
    nxt = memoryview(order)
    node = rng.randrange(footprint)
    count = 0
    while True:
        yield node
        node = nxt[node]
        count += 1
        if jump_every and count % jump_every == 0:
            node = rng.randrange(footprint)


def mixed(
    parts: Sequence[tuple[float, Iterator[int]]], seed: int = 0
) -> Iterator[int]:
    """Probabilistic mix of pattern iterators.

    ``parts`` is a sequence of ``(weight, iterator)``; each access is
    drawn from one iterator with probability proportional to its weight.
    """
    if not parts:
        raise ValueError("mixed() needs at least one part")
    weights = [w for w, _ in parts]
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    iters = [it for _, it in parts]
    rng = random.Random(seed)
    total = sum(weights)
    cum = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cum.append(acc)
    while True:
        u = rng.random()
        for i, c in enumerate(cum):
            if u <= c:
                yield next(iters[i])
                break


def interleave(streams: Sequence[Iterator], round_robin: bool = True):
    """Round-robin interleave of per-core streams into one sequence of
    ``(core_id, item)`` pairs. Used by single-cache experiments; the CMP
    simulator keeps streams separate."""
    if not streams:
        raise ValueError("interleave() needs at least one stream")
    live = list(enumerate(streams))
    while live:
        dead = []
        for slot, (core, it) in enumerate(live):
            try:
                yield core, next(it)
            except StopIteration:
                dead.append(slot)
        for slot in reversed(dead):
            live.pop(slot)

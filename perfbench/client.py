"""The serve-evict client: a closed loop of threads against ZServeCache.

This client belongs to the benchmark, not to ``repro.serve.loadgen``, so
changes to the program's load generator or telemetry cannot change what
is measured. It

- pre-generates every request before timing, from canneal's
  ``core_stream`` at the workload seed (one stream per client thread);
- warms an empty service until the first eviction;
- then runs rounds of a closed loop: each thread issues its next request
  only when the previous one returned, and times every request from the
  moment it is issued to the moment it returns.

During a round the interpreter's thread switch interval is
``SWITCH_INTERVAL_S`` instead of the default 5 ms. With the default, the
two threads fall into one of several hand-off patterns on the interpreter
lock, and which one a round settles into, not the service, set its p99:
one round's p99 read 0.27 ms and the next 1.3 ms, and the p99 of
10 runs spread 0.16-0.29 (IQR over median). With a 0.1 ms interval the
threads share the interpreter finely, a slow request's latency is its
own work plus the other thread's share, and p99 spread 0.09-0.10.

A read that misses is followed, inside the same timed request, by a
cache-aside ``put`` of the key's value. Every value is derived from its
key, so each hit is checked against the value its key must have.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from itertools import islice
from statistics import median
from time import perf_counter, perf_counter_ns

THREADS = 2
FOOTPRINT_BLOCKS = 4096
PROXY = "canneal"
#: rounds per timed phase (medians are taken across rounds)
ROUNDS = 8
#: the interpreter's thread switch interval during a round (module docstring)
SWITCH_INTERVAL_S = 1e-4
#: requests pre-generated per thread per timed second, with headroom
REQUESTS_PER_THREAD_SECOND = 20_000
#: requests per thread for warm-up and the traced round's slack
EXTRA_REQUESTS = 60_000
GATE_REQUESTS = 20_000
_SALT = 0x5DEECE66D


def value_for(key: int) -> int:
    """The only value ``key`` may ever hold."""
    return key ^ _SALT


def make_requests(seed: int, per_thread: int) -> list[list[int]]:
    """Per-thread request lists, each entry ``key * 2 + is_write``."""
    from repro.workloads import get_workload

    spec = get_workload(PROXY)
    lists = []
    for core in range(THREADS):
        stream = spec.core_stream(
            core, FOOTPRINT_BLOCKS, seed=seed, num_cores=THREADS
        )
        lists.append([a.address * 2 + a.is_write
                      for a in islice(stream, per_thread)])
    return lists


def construct():
    """Import the service and build it (what the set-up probe times)."""
    from repro.serve import ServeConfig, ZServeCache

    return ZServeCache(ServeConfig())


@dataclass
class Tally:
    """What one thread saw in one round."""

    latencies: list = field(default_factory=list)
    hits: int = 0
    reads: int = 0
    wrong: int = 0
    errors: list = field(default_factory=list)


def serve_one(service, request: int, tally: Tally) -> None:
    key = request >> 1
    if request & 1:
        service.put(key, value_for(key))
        return
    tally.reads += 1
    hit, value = service.get(key)
    if hit:
        tally.hits += 1
        if value != value_for(key):
            tally.wrong += 1
    else:
        service.put(key, value_for(key))


class Loop:
    """One service, its request lists, and how far each thread got."""

    def __init__(self, service, lists: list[list[int]]) -> None:
        self.service = service
        self.lists = lists
        self.pos = [0] * len(lists)

    def warm(self, tally: Tally) -> None:
        """Serve requests round-robin from one thread until an eviction."""
        service = self.service
        while True:
            for t, requests in enumerate(self.lists):
                serve_one(service, requests[self.pos[t]], tally)
                self.pos[t] += 1
            if self.pos[0] % 64 == 0 and service.snapshot()["evictions"]:
                return

    def round(self, window_s: float, recorder=None) -> tuple[float, list[Tally]]:
        """Closed loop for ``window_s``; returns (elapsed, per-thread tallies).

        With a recorder, each thread's loop is a ``bench.client`` root
        span and every request's spans carry the request's id.
        """
        tallies = [Tally() for _ in self.lists]
        barrier = threading.Barrier(len(self.lists) + 1)
        window_ns = int(window_s * 1e9)

        def client(t: int) -> None:
            tally, requests, service = tallies[t], self.lists[t], self.service
            pos = self.pos[t]
            log = recorder.log() if recorder is not None else None
            span = recorder.span("bench.client") if log is not None else None
            barrier.wait()
            if span is not None:
                span.__enter__()
            deadline = perf_counter_ns() + window_ns
            latencies = tally.latencies
            try:
                while pos < len(requests):
                    if log is not None:
                        log.request = (t + 1) << 32 | pos
                    start = perf_counter_ns()
                    serve_one(service, requests[pos], tally)
                    end = perf_counter_ns()
                    latencies.append(end - start)
                    pos += 1
                    if end >= deadline:
                        break
            except Exception as exc:  # counted as a failed request
                tally.errors.append(repr(exc))
                pos += 1
            finally:
                if span is not None:
                    span.__exit__(None, None, None)
                self.pos[t] = pos

        threads = [threading.Thread(target=client, args=(t,), name=f"client{t}")
                   for t in range(len(self.lists))]
        default_interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        try:
            for th in threads:
                th.start()
            barrier.wait()
            start = perf_counter()
            for th in threads:
                th.join()
            return perf_counter() - start, tallies
        finally:
            sys.setswitchinterval(default_interval)

    def exhausted(self) -> bool:
        return any(p >= len(r) for p, r in zip(self.pos, self.lists))


def percentile_us(ordered_ns: list, q: float) -> float:
    return ordered_ns[min(len(ordered_ns) - 1, int(q * len(ordered_ns)))] / 1e3


@dataclass
class RoundStats:
    """What one round measured, over both threads."""

    requests: int
    elapsed_s: float
    p50_us: float
    p99_us: float
    hits: int
    reads: int
    failed: int

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed_s


def summarise(elapsed: float, tallies: list[Tally]) -> RoundStats:
    lat = sorted(x for t in tallies for x in t.latencies)
    errors = sum(len(t.errors) for t in tallies)
    return RoundStats(
        requests=len(lat) + errors,
        elapsed_s=elapsed,
        p50_us=percentile_us(lat, 0.50) if lat else 0.0,
        p99_us=percentile_us(lat, 0.99) if lat else 0.0,
        hits=sum(t.hits for t in tallies),
        reads=sum(t.reads for t in tallies),
        failed=sum(t.wrong for t in tallies) + errors,
    )


def medians(rounds: list[RoundStats]) -> dict:
    throughput = median(r.throughput_rps for r in rounds)
    return {
        "throughput_rps": throughput,
        "p50_us": median(r.p50_us for r in rounds),
        "p99_us": median(r.p99_us for r in rounds),
        # host seconds per 100k requests at the median throughput
        "wall_s": 1e5 / throughput,
    }


def service_totals(service) -> dict:
    """Service counters the per-layer report needs."""
    snap = service.snapshot()
    fills = reads = 0
    for shard in service.shards:
        counters = shard.cache.stats.counters()
        fills += counters["misses"].value
        reads += counters["walk_tag_reads"].value
    snap["fills"] = fills
    snap["walk_tag_reads"] = reads
    return snap


def layer_counts(before: dict, after: dict, stats: RoundStats) -> dict:
    """Per-layer serve counts over one round (deltas of service counters)."""
    d = {k: after[k] - before[k] for k in (
        "evictions", "stale_retries", "walk_races", "fallback_fills",
        "fills", "walk_tag_reads")}
    return {
        "serve.hit_ratio": stats.hits / stats.reads if stats.reads else 0.0,
        "serve.evictions": d["evictions"],
        "serve.stale_retry_ratio": (
            d["stale_retries"] / d["fills"] if d["fills"] else 0.0
        ),
        "serve.walk_races": d["walk_races"],
        "serve.fallback_fills": d["fallback_fills"],
        "core.walk.reads_per_miss": (
            d["walk_tag_reads"] / d["fills"] if d["fills"] else 0.0
        ),
    }


def gate(seed: int) -> dict:
    """Single-threaded, hence deterministic, serve run for the pinned refs."""
    service = construct()
    lists = make_requests(seed, GATE_REQUESTS)
    tally = Tally()
    for pair in zip(*lists):
        for request in pair:
            serve_one(service, request, tally)
    service.check_consistency()
    snap = service.snapshot()
    return {
        "reads": tally.reads,
        "hits": tally.hits,
        "wrong_values": tally.wrong,
        "entries": snap["entries"],
        "evictions": snap["evictions"],
        "relocations": snap["relocations"],
        "stale_retries": snap["stale_retries"],
    }

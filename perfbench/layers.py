"""Layer boundaries of the traced run and how to wrap them.

Every boundary is a public function of one ``repro`` package. The traced
run replaces each with a recording wrapper (class or module attribute),
runs one repetition, and puts the originals back. Objects built while
the wrappers are installed call them, because every boundary below is
looked up on the class or module at call time.

``PREDICTED`` is the coverage contract: on which workloads a boundary
must be called and which must bypass it. A refactor that routes around a
wrapped function then shows up as a missing layer instead of a silent
zero.
"""

from __future__ import annotations

from contextlib import contextmanager

#: the per-layer boundaries, in report order
BOUNDARIES = (
    "workloads.stream",
    "sim.capture",
    "sim.directory",
    "core.l1",
    "sim.replay",
    "sim.l2",
    "core.l2",
    "core.walk",
    "core.commit",
    "hashing.h3",
    "hashing.mix",
    "replacement.victim",
    "replacement.update",
    "kernels.addresses",
    "kernels.access",
    "kernels.victim",
    "serve.get",
    "serve.put",
    "serve.prepare",
    "serve.commit",
    "serve.lock_wait",
)

#: spans the benchmark itself opens: the traced repetition on the main
#: thread and each serve client thread's loop
ROOTS = ("bench.root", "bench.client")

LAYERS = BOUNDARIES + ROOTS

CMP = ("fig4-sweep", "paper-capture")

#: boundary -> (workloads that must call it, workloads that must not)
PREDICTED = {
    "workloads.stream": (CMP, ("serve-evict", "fig2-turbo")),
    "sim.capture": (CMP, ("fig2-turbo", "serve-evict")),
    "sim.directory": (CMP, ("fig2-turbo", "serve-evict")),
    "core.l1": (CMP, ("fig2-turbo", "serve-evict")),
    "sim.replay": (CMP, ("fig2-turbo", "serve-evict")),
    "sim.l2": (CMP, ("fig2-turbo", "serve-evict")),
    "core.l2": (CMP, ("fig2-turbo", "serve-evict")),
    "core.walk": (CMP + ("serve-evict",), ("fig2-turbo",)),
    "core.commit": (CMP + ("serve-evict",), ("fig2-turbo",)),
    "hashing.h3": (CMP, ("serve-evict", "fig2-turbo")),
    "hashing.mix": (("serve-evict",), CMP + ("fig2-turbo",)),
    "replacement.victim": (CMP + ("serve-evict",), ("fig2-turbo",)),
    "replacement.update": (CMP + ("serve-evict",), ("fig2-turbo",)),
    "kernels.addresses": (("fig2-turbo",), CMP + ("serve-evict",)),
    "kernels.access": (("fig2-turbo",), CMP + ("serve-evict",)),
    "kernels.victim": (("fig2-turbo",), CMP + ("serve-evict",)),
    "serve.get": (("serve-evict",), CMP + ("fig2-turbo",)),
    "serve.put": (("serve-evict",), CMP + ("fig2-turbo",)),
    "serve.prepare": (("serve-evict",), CMP + ("fig2-turbo",)),
    "serve.commit": (("serve-evict",), CMP + ("fig2-turbo",)),
    "serve.lock_wait": (("serve-evict",), CMP + ("fig2-turbo",)),
}


def coverage_errors(workload: str, calls: dict[str, int]) -> list[str]:
    """Boundaries whose call count contradicts :data:`PREDICTED`."""
    errors = []
    for name, (runs, bypasses) in PREDICTED.items():
        if workload in runs and calls[name] == 0:
            errors.append(f"{name}: predicted to run on {workload}, 0 calls")
        if workload in bypasses and calls[name] != 0:
            errors.append(
                f"{name}: predicted bypass on {workload}, {calls[name]} calls"
            )
    return errors


def _defining_classes(base, package: str, attr: str) -> list[type]:
    """``base`` and its subclasses in ``package`` that implement ``attr``."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        fn = cls.__dict__.get(attr)
        if (cls.__module__.startswith(package) and fn is not None
                and not getattr(fn, "__isabstractmethod__", False)):
            found.append(cls)
    return found


class _Stream:
    """A workload stream whose ``next()`` calls are recorded."""

    __slots__ = ("_next",)

    def __init__(self, next_fn) -> None:
        self._next = next_fn

    def __iter__(self) -> "_Stream":
        return self

    def __next__(self):
        return self._next()


class TimedLock:
    """A shard lock whose acquisitions are recorded as lock-wait spans.

    Only the wait for the lock is inside the span; the critical section
    that follows belongs to whatever span encloses the ``with``. The
    shards take their lock only through ``with``.
    """

    def __init__(self, lock, recorder) -> None:
        self._lock = lock
        self._acquire = recorder.wrap("serve.lock_wait:acquire", lock.acquire)

    def __enter__(self):
        self._acquire()
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


def time_shard_locks(service, recorder) -> None:
    """Route every shard lock of a live ``ZServeCache`` through the recorder."""
    for shard in service.shards:
        shard.lock = TimedLock(shard.lock, recorder)


@contextmanager
def instrumented(recorder):
    """Install a recording wrapper at every boundary; restore on exit."""
    import repro.kernels.replay as kreplay
    import repro.serve.service as service_mod
    from repro.core import Cache, CacheArray, TwoPhaseZCache
    from repro.hashing.h3 import H3Hash
    from repro.hashing.mixers import MixHash
    from repro.kernels.engine import TurboCore
    from repro.kernels.policy import StampKernel
    from repro.replacement.base import ReplacementPolicy
    from repro.serve.service import ZServeCache
    from repro.sim.cmp import TraceDrivenRunner
    from repro.sim.directory import Directory
    from repro.sim.l2 import BankedL2
    from repro.workloads.spec import WorkloadSpec
    from repro.workloads.suites import MixWorkloadSpec

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(owner, attr: str, layer: str) -> None:
        key = f"{layer}:{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        patch(owner, attr, recorder.wrap(key, getattr(owner, attr)))

    for spec_cls in (WorkloadSpec, MixWorkloadSpec):
        make = spec_cls.core_stream

        def core_stream(self, *args, _make=make, **kwargs):
            stream = _make(self, *args, **kwargs)
            return _Stream(recorder.wrap("workloads.stream:next", stream.__next__))

        patch(spec_cls, "core_stream", core_stream)

    wrap(TraceDrivenRunner, "capture", "sim.capture")
    wrap(TraceDrivenRunner, "replay", "sim.replay")
    for attr in ("fill", "upgrade", "l1_eviction", "is_shared",
                 "inclusion_invalidate"):
        wrap(Directory, attr, "sim.directory")

    # One Cache class serves the L1s ("L1"), the L2 banks ("L2b<n>"),
    # fig2's caches and the serve shards; only the first two are layers.
    access = Cache.access
    l1_access = recorder.wrap("core.l1:Cache.access", access)
    l2_access = recorder.wrap("core.l2:Cache.access", access)

    def cache_access(self, *args, **kwargs):
        name = self.name
        if name == "L1":
            return l1_access(self, *args, **kwargs)
        if name.startswith("L2b"):
            return l2_access(self, *args, **kwargs)
        return access(self, *args, **kwargs)

    patch(Cache, "access", cache_access)
    invalidate = Cache.invalidate
    l1_invalidate = recorder.wrap("core.l1:Cache.invalidate", invalidate)

    def cache_invalidate(self, *args, **kwargs):
        if self.name == "L1":
            return l1_invalidate(self, *args, **kwargs)
        return invalidate(self, *args, **kwargs)

    patch(Cache, "invalidate", cache_invalidate)

    for attr in ("access", "writeback", "bank_for"):
        wrap(BankedL2, attr, "sim.l2")
    patch(BankedL2, "walk_tag_reads", property(recorder.wrap(
        "sim.l2:BankedL2.walk_tag_reads", BankedL2.walk_tag_reads.fget
    )))

    for attr, layer in (("build_replacement", "core.walk"),
                        ("commit_replacement", "core.commit")):
        for cls in _defining_classes(CacheArray, "repro.core.", attr):
            wrap(cls, attr, layer)

    wrap(H3Hash, "__call__", "hashing.h3")
    wrap(MixHash, "__call__", "hashing.mix")
    wrap(service_mod, "key_address", "hashing.mix")

    for attr, layer in (("select_victim", "replacement.victim"),
                        ("on_access", "replacement.update"),
                        ("on_insert", "replacement.update"),
                        ("on_evict", "replacement.update")):
        for cls in _defining_classes(
            ReplacementPolicy, "repro.replacement.", attr
        ):
            wrap(cls, attr, layer)

    wrap(kreplay, "fig2_addresses", "kernels.addresses")
    wrap(TurboCore, "access", "kernels.access")
    wrap(StampKernel, "pick_victim", "kernels.victim")
    wrap(StampKernel, "rank", "kernels.victim")

    wrap(ZServeCache, "get", "serve.get")
    wrap(ZServeCache, "put", "serve.put")
    wrap(TwoPhaseZCache, "prepare_fill", "serve.prepare")
    wrap(TwoPhaseZCache, "commit_prepared", "serve.commit")
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


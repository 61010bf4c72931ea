"""The four workloads: inputs, one timed repetition, gate and counts.

Each batch workload (``fig4-sweep``, ``paper-capture``, ``fig2-turbo``)
exposes the same three functions through a :class:`Batch`:

- ``construct()`` imports the program and builds its objects; the
  set-up probe times it in a fresh process;
- ``rep(seed, timed)`` runs the artifact once, making each program call
  through ``timed`` (a :class:`calibrate.Timer`), and returns a
  :class:`Rep`: the number of modelled requests served, a *signature* of
  every output the gate pins, and the per-layer counts;
- ``gate(seed)`` runs the same code paths at gate size, whose signature
  is pinned in ``refs.json`` for the default and the held-out seed.

``serve-evict`` is a closed loop rather than a repetition; it lives in
:mod:`client` and shares only the gate shape.

All sweeps run the ``reference`` engine (``CMPConfig.engine``'s default)
serially, so every layer runs in this process where it can be timed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: the workload seed when none is given, and the second pinned seed
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

FIG4_PROXIES = ("canneal", "mcf")
FIG4_POLICIES = ("opt", "lru")
FIG4_INSTRUCTIONS = 2000
PAPER_INSTRUCTIONS = 1000
#: gate size: the fig4 slice on a 1024-block L2 and 8 cores, which
#: fills and relocates within a few hundred instructions per core
GATE_INSTRUCTIONS = 600
GATE_CORES = 8
GATE_L2_BLOCKS = 1024
FIG2_GATE = {"cache_blocks": 256, "accesses": 8000}


@dataclass
class Rep:
    """One repetition's outputs."""

    #: modelled requests served (L2 requests, core references, accesses)
    requests: int
    #: every pinned output, JSON-shaped
    signature: dict
    #: per-layer counts and ratios for the traced run
    counts: dict = field(default_factory=dict)


@dataclass
class Batch:
    #: what one "request" is, for throughput_rps
    request_unit: str
    construct: Callable[[], object]
    rep: Callable[[int, Callable], Rep]
    gate: Callable[[int], dict]


# -- CMP sweeps ---------------------------------------------------------------

def _paper_designs():
    from repro.experiments.runner import DESIGNS_FIG4

    return (DESIGNS_FIG4[0], DESIGNS_FIG4[5])  # SA-4h, Z4/52


def _sweep(proxies, designs, policies, instructions, seed, cfg) -> dict:
    from repro.experiments.runner import ExperimentScale, collect_design_sweeps

    scale = ExperimentScale(
        instructions_per_core=instructions, workloads=tuple(proxies), seed=seed
    )
    return collect_design_sweeps(
        proxies, designs, policies=policies, scale=scale, cfg=cfg
    )


def cmp_signature(sweeps: dict) -> dict:
    """The gate's pinned outputs of a sweep, keyed proxy|design|policy."""
    sig = {}
    for proxy, sweep in sweeps.items():
        for (design, policy), res in sorted(sweep.results.items()):
            sig[f"{proxy}|{design}|{policy}"] = {
                "l2_misses": res.l2_misses,
                "cycles": list(res.cycles),
                "walk_tag_reads": res.walk_tag_reads,
                "relocations": res.relocations,
            }
    return sig


def cmp_counts(sweeps: dict) -> dict:
    """Per-layer counts of a sweep (summed over its replays)."""
    results = [r for s in sweeps.values() for r in s.results.values()]
    firsts = [next(iter(s.results.values())) for s in sweeps.values()]
    misses = sum(r.l2_misses for r in results)
    reads = sum(r.walk_tag_reads for r in results)
    l1_acc = sum(r.l1_accesses for r in firsts)
    return {
        # Every captured event is an L2 demand access, an L2 writeback
        # or an upgrade, and each replay sees all of them.
        "sim.capture.events": sum(r.l2_accesses + r.upgrades for r in firsts),
        "sim.l1.miss_ratio": sum(r.l1_misses for r in firsts) / l1_acc,
        "sim.l2.misses": misses,
        "sim.l2.walk_tag_reads": reads,
        "sim.l2.relocations": sum(r.relocations for r in results),
        "core.walk.reads_per_miss": reads / misses if misses else 0.0,
    }


def _gate_cfg():
    from repro.sim import CMPConfig

    return CMPConfig(num_cores=GATE_CORES, l2_blocks=GATE_L2_BLOCKS)


def _construct_cmp(cfg_factory, designs_factory, proxies) -> list:
    from dataclasses import replace

    from repro.sim.l2 import BankedL2
    from repro.workloads import get_workload

    cfg = cfg_factory()
    for proxy in proxies:
        get_workload(proxy)
    return [
        BankedL2(cfg.with_design(replace(d, policy="lru")))
        for d in designs_factory()
    ]


def _fig4_designs():
    from repro.experiments.runner import DESIGNS_FIG4

    return DESIGNS_FIG4


def _default_cfg():
    from repro.sim import CMPConfig

    return CMPConfig()


def _paper_cfg():
    from repro.sim import CMPConfig

    return CMPConfig.paper_scale()


def fig4_rep(seed: int, timed: Callable) -> Rep:
    sweeps = timed(_sweep, FIG4_PROXIES, _fig4_designs(), FIG4_POLICIES,
                   FIG4_INSTRUCTIONS, seed, _default_cfg())
    requests = sum(
        r.l2_accesses for s in sweeps.values() for r in s.results.values()
    )
    return Rep(requests, cmp_signature(sweeps), cmp_counts(sweeps))


def fig4_gate(seed: int) -> dict:
    return cmp_signature(_sweep(FIG4_PROXIES, _fig4_designs(), FIG4_POLICIES,
                                GATE_INSTRUCTIONS, seed, _gate_cfg()))


def paper_rep(seed: int, timed: Callable) -> Rep:
    sweeps = timed(_sweep, ("canneal",), _paper_designs(), ("lru",),
                   PAPER_INSTRUCTIONS, seed, _paper_cfg())
    first = next(iter(sweeps["canneal"].results.values()))
    return Rep(first.l1_accesses, cmp_signature(sweeps), cmp_counts(sweeps))


def paper_gate(seed: int) -> dict:
    return cmp_signature(_sweep(("canneal",), _paper_designs(), ("lru",),
                                GATE_INSTRUCTIONS, seed, _gate_cfg()))


# -- fig2 on the turbo engine ------------------------------------------------

def fig2_signature(result) -> dict:
    return {
        str(n): {"ks": ks, "cdf": [float(v) for v in cdf]}
        for n, (cdf, ks) in sorted(result.simulated.items())
    }


def _construct_fig2() -> list:
    from repro.assoc import TrackedPolicy
    from repro.core import Cache, RandomCandidatesArray
    from repro.experiments.fig2 import CANDIDATE_COUNTS
    from repro.replacement import LRU

    return [
        Cache(RandomCandidatesArray(2048, n, seed=n), TrackedPolicy(LRU()),
              name=f"n{n}", engine="turbo")
        for n in CANDIDATE_COUNTS
    ]


def fig2_rep(seed: int, timed: Callable) -> Rep:
    from repro.experiments import fig2

    result = timed(fig2.run, engine="turbo", seed=seed)
    accesses = 60_000 * len(result.simulated)
    return Rep(accesses, fig2_signature(result))


def fig2_gate(seed: int) -> dict:
    from repro.experiments import fig2

    return fig2_signature(fig2.run(engine="turbo", seed=seed, **FIG2_GATE))


BATCHES = {
    "fig4-sweep": Batch(
        "L2 requests replayed",
        lambda: _construct_cmp(_default_cfg, _fig4_designs, FIG4_PROXIES),
        fig4_rep,
        fig4_gate,
    ),
    "paper-capture": Batch(
        "core memory references captured",
        lambda: _construct_cmp(_paper_cfg, _paper_designs, ("canneal",)),
        paper_rep,
        paper_gate,
    ),
    "fig2-turbo": Batch(
        "cache accesses simulated",
        _construct_fig2,
        fig2_rep,
        fig2_gate,
    ),
}

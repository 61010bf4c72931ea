"""The CMP simulator: cores, L1s, directory, banked L2, memory.

Timing model (paper Table I): in-order cores retire one instruction per
cycle except on memory accesses; an L1 hit costs the instruction's own
cycle; an L1 miss stalls for the L1-to-L2-bank latency plus the bank's
hit latency, and an L2 miss additionally stalls for the memory zero-load
latency plus any bandwidth queueing at its memory controller. The
replacement walk of a zcache happens off the critical path while the
miss is outstanding (Section III), so it adds no stall — only tag-array
bandwidth and energy, which the statistics capture.

Each half of the model is written once. ``_drive_cores`` runs the
cores, L1s and directory and hands every L2-level event to a callback;
``_L2Timing.step`` applies one event to the banked L2 and the clocks.
``CMPSimulator`` is execution-driven: the driver feeds ``step``
directly, so inclusion victims invalidate L1 copies and change the
future L1 stream. ``TraceDrivenRunner`` records the events once and
replays them through ``step`` against many L2 designs — required for
OPT, and an order of magnitude faster for design sweeps. Inclusion
feedback is the one difference between the two modes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.core import Cache, SetAssociativeArray
from repro.energy.cachecost import CacheCostModel
from repro.obs import NULL_SPANS, ObsContext
from repro.replacement import LRU
from repro.sim.config import CMPConfig
from repro.sim.directory import Directory
from repro.sim.l2 import BankedL2, bank_index


@dataclass
class CMPResult:
    """Everything the experiments need from one simulation."""

    label: str
    num_cores: int
    instructions: list[int]
    cycles: list[int]
    l1_accesses: int
    l1_misses: int
    l2_hits: int
    l2_misses: int
    l2_accesses: int
    l2_writebacks: int
    walk_tag_reads: int
    relocations: int
    bank_accesses: list[int]
    coherence_invalidations: int
    upgrades: int
    l2_bank_latency: int
    eviction_priorities: list[float] = field(default_factory=list)
    #: total demand-access delay from bank-port contention (only
    #: non-zero when cfg.bank_queueing is on)
    bank_queueing_cycles: int = 0

    @property
    def total_instructions(self) -> int:
        return sum(self.instructions)

    @property
    def total_cycles(self) -> int:
        """Wall-clock cycles: the slowest core defines the run length."""
        return max(self.cycles) if self.cycles else 0

    @property
    def aggregate_ipc(self) -> float:
        """Sum of per-core IPCs (multiprogrammed throughput metric)."""
        return sum(
            i / c for i, c in zip(self.instructions, self.cycles) if c > 0
        )

    @property
    def l2_mpki(self) -> float:
        """L2 misses per thousand instructions."""
        if self.total_instructions == 0:
            return 0.0
        return 1000.0 * self.l2_misses / self.total_instructions

    @property
    def l1_mpki(self) -> float:
        if self.total_instructions == 0:
            return 0.0
        return 1000.0 * self.l1_misses / self.total_instructions

    def tag_load_per_bank_cycle(self) -> float:
        """Tag-array accesses per bank per cycle (Section VI-D metric)."""
        if self.total_cycles == 0:
            return 0.0
        total_tag = self.l2_accesses + self.walk_tag_reads
        return total_tag / len(self.bank_accesses) / self.total_cycles

    def to_dict(self) -> dict:
        """JSON-serialisable form (checkpoint files, worker results)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CMPResult":
        """Rebuild a result from :meth:`to_dict` output (JSON-safe)."""
        return cls(**data)


class _MemoryChannel:
    """Bandwidth queueing at the memory controllers.

    Each controller serialises 64 B line transfers; a miss arriving at
    (core-local) time t starts service at max(t, controller-free time).
    Core clocks drift apart, so this is an approximation of global time
    — adequate because queueing only matters under sustained load, when
    clocks advance together.
    """

    def __init__(self, cfg: CMPConfig) -> None:
        self.cfg = cfg
        self._free = [0.0] * cfg.num_mcs

    def mc_for(self, address: int) -> int:
        return (address >> 4) % self.cfg.num_mcs

    def demand(self, address: int, now: float) -> float:
        """Queueing delay (cycles beyond zero-load latency) for a miss."""
        mc = self.mc_for(address)
        start = max(now, self._free[mc])
        self._free[mc] = start + self.cfg.line_transfer_cycles
        return start - now

    def writeback(self, address: int, now: float) -> None:
        """Writebacks consume bandwidth but do not stall the core."""
        mc = self.mc_for(address)
        start = max(now, self._free[mc])
        self._free[mc] = start + self.cfg.line_transfer_cycles


class _BankPorts:
    """Optional L2 bank-port contention (cfg.bank_queueing).

    Each bank serves one request per cycle; a zcache miss additionally
    occupies its bank's tag port for the walk's duration
    (ceil(reads/ways) cycles, since each way's tag array is a separate
    port). Demand accesses queue behind that. This is the pressure the
    paper's early-stop knob (`candidate_limit`) exists to relieve.
    """

    def __init__(self, cfg: CMPConfig) -> None:
        self.enabled = cfg.bank_queueing
        self.ways = cfg.l2_design.ways
        self._free = [0.0] * cfg.l2_banks
        self.queueing_cycles = 0

    def demand(self, bank: int, now: float) -> int:
        """Delay (cycles) before the bank can serve this access."""
        if not self.enabled:
            return 0
        start = max(now, self._free[bank])
        self._free[bank] = start + 1.0
        delay = int(start - now)
        self.queueing_cycles += delay
        return delay

    def walk(self, bank: int, now: float, tag_reads: int) -> None:
        """A replacement walk occupies the bank's tag port (no stall)."""
        if not self.enabled or tag_reads <= 0:
            return
        duration = -(-tag_reads // self.ways)  # ceil
        start = max(now, self._free[bank])
        self._free[bank] = start + duration


def _build_l1(cfg: CMPConfig, obs: Optional[ObsContext] = None) -> Cache:
    return Cache(
        SetAssociativeArray(cfg.l1_ways, cfg.l1_blocks // cfg.l1_ways),
        LRU(),
        name="L1",
        obs=obs,
    )


def _bank_latency(cfg: CMPConfig) -> int:
    """L2 bank hit latency from the analytical array model."""
    design = cfg.l2_design
    bank_bytes = cfg.bank_blocks * cfg.line_bytes
    # The latency model is calibrated at 1 MB banks; scaled experiments
    # use the paper-size bank for latency so design comparisons see the
    # published 6-11 cycle spread rather than an artifact of scaling.
    nominal = max(bank_bytes, 1 << 20)
    cost = CacheCostModel(
        nominal,
        design.ways,
        levels=design.levels if design.kind == "z" else None,
        parallel_lookup=design.parallel_lookup,
    )
    return cost.hit_latency_cycles()


#: event kinds in the L1-filtered stream
MISS, WRITEBACK, UPGRADE = 0, 1, 2


@dataclass
class CapturedTrace:
    """The L1-filtered stream and everything needed to replay it."""

    events: list  # (kind, core, address, is_write, work_cycles)
    instructions: list[int]
    l1_accesses: int
    l1_misses: int
    upgrades: int
    coherence_invalidations: int

    def bank_demand_traces(self, num_banks: int) -> list[list[int]]:
        """Per-bank demand-address sequences (the OPT future traces).

        Uses the same :func:`~repro.sim.l2.bank_index` mapping as
        :class:`~repro.sim.l2.BankedL2`, so OPT's future traces can
        never drift from the banks the demand accesses actually reach.
        """
        traces: list[list[int]] = [[] for _ in range(num_banks)]
        for kind, _core, address, _w, _work in self.events:
            if kind == MISS:
                traces[bank_index(address, num_banks)].append(address)
        return traces


def _drive_cores(
    cfg: CMPConfig,
    workload,
    instructions_per_core: int,
    seed: int,
    emit,
    obs: Optional[ObsContext] = None,
) -> CapturedTrace:
    """Run the cores, L1s and directory; hand every L2 event to ``emit``.

    ``emit`` receives each event, a ``(kind, core, address, is_write,
    work)`` tuple, in order; ``work`` is the core's cycles since its
    previous event. For a MISS it may return the L2 victim, whose L1
    copies are then invalidated (inclusion) before the directory
    records the fill. Returns the run's totals; their ``events`` list is
    empty, since the events went to ``emit``.
    """
    l1s = [
        _build_l1(cfg, obs.scoped(f"core{c}.l1") if obs is not None else None)
        for c in range(cfg.num_cores)
    ]
    directory = Directory(
        cfg.num_cores,
        obs=obs.scoped("directory") if obs is not None else None,
    )
    streams = [
        workload.core_stream(c, cfg.l2_blocks, seed=seed, num_cores=cfg.num_cores)
        for c in range(cfg.num_cores)
    ]
    instructions = [0] * cfg.num_cores
    pending_work = [0] * cfg.num_cores  # cycles since last event
    active = set(range(cfg.num_cores))

    def l1_invalidate(core: int, address: int) -> None:
        dirty = l1s[core].invalidate(address)
        directory.l1_eviction(address, core)
        if dirty:
            emit((WRITEBACK, core, address, True, 0))

    while active:
        for core in sorted(active):
            acc = next(streams[core])
            instructions[core] += acc.gap + 1
            pending_work[core] += acc.gap + 1
            l1 = l1s[core]
            was_hit = l1.array.lookup(acc.address) is not None
            if was_hit and acc.is_write and directory.is_shared(acc.address):
                # Write hit to a shared line: upgrade via the L2 bank.
                for victim_core in directory.upgrade(acc.address, core):
                    l1_invalidate(victim_core, acc.address)
                emit((UPGRADE, core, acc.address, True, pending_work[core]))
                pending_work[core] = 0
            result = l1.access(acc.address, acc.is_write)
            if result.evicted is not None:
                directory.l1_eviction(result.evicted, core)
                if result.writeback:
                    emit((WRITEBACK, core, result.evicted, True, 0))
            if not result.hit:
                victim = emit(
                    (MISS, core, acc.address, acc.is_write, pending_work[core])
                )
                pending_work[core] = 0
                if victim is not None:
                    # Inclusion: kill the victim's L1 copies.
                    for victim_core in directory.inclusion_invalidate(victim):
                        l1_invalidate(victim_core, victim)
                for victim_core in directory.fill(acc.address, core, acc.is_write):
                    l1_invalidate(victim_core, acc.address)
            if instructions[core] >= instructions_per_core:
                active.discard(core)

    return CapturedTrace(
        events=[],
        instructions=instructions,
        l1_accesses=sum(c.stats.accesses for c in l1s),
        l1_misses=sum(c.stats.misses for c in l1s),
        upgrades=directory.stats.upgrades,
        coherence_invalidations=directory.stats.invalidations_sent,
    )


class _L2Timing:
    """The L2 side of Table I: banks, bank ports, memory, core clocks.

    :meth:`step` applies one L2 event to ``l2`` and advances the issuing
    core's clock by its work, the L1-to-bank round trip and, on a miss,
    memory latency and queueing. An upgrade is a port access with no
    array lookup. The walk of a miss occupies its bank's tag port but
    does not stall the core.
    """

    def __init__(self, cfg: CMPConfig, l2: BankedL2) -> None:
        self.cfg = cfg
        self.l2 = l2
        self.channel = _MemoryChannel(cfg)
        self.ports = _BankPorts(cfg)
        self.bank_latency = _bank_latency(cfg)
        self.cycles = [0] * cfg.num_cores
        self.accounted = [0] * cfg.num_cores

    def step(self, event: tuple) -> Optional[int]:
        """Apply one event; return the L2 victim of a MISS, else None."""
        kind, core, address, is_write, work = event
        cycles = self.cycles
        cycles[core] += work
        self.accounted[core] += work
        l2 = self.l2
        if kind == WRITEBACK:
            l2.writeback(address)
            return None
        bank = l2.bank_for(address)
        now = (
            cycles[core]
            + self.cfg.l1_to_bank_latency(core, bank)
            + self.bank_latency
        )
        now += self.ports.demand(bank, now)
        if kind == UPGRADE:
            l2.record_bank_access(bank)
            cycles[core] = now
            return None
        walk_reads = l2.banks[bank].stats.counters()["walk_tag_reads"]
        reads_before = walk_reads.value
        outcome = l2.access(address, is_write)
        if not outcome.hit:
            self.ports.walk(bank, now, walk_reads.value - reads_before)
            now += self.cfg.mem_latency
            now += int(self.channel.demand(address, now))
            if outcome.writeback:
                self.channel.writeback(outcome.evicted, now)
        cycles[core] = now
        return outcome.evicted

    def result(self, totals: CapturedTrace) -> CMPResult:
        """The run's result; cores spend residual instructions at the end."""
        cfg = self.cfg
        l2 = self.l2
        instructions = list(totals.instructions)
        cycles = [
            c + i - a for c, i, a in zip(self.cycles, instructions, self.accounted)
        ]
        priorities: list[float] = []
        for bank in l2.banks:
            if hasattr(bank.policy, "priorities"):
                priorities.extend(bank.policy.priorities)
        return CMPResult(
            label=cfg.l2_design.label(),
            num_cores=cfg.num_cores,
            instructions=instructions,
            cycles=cycles,
            l1_accesses=totals.l1_accesses,
            l1_misses=totals.l1_misses,
            l2_hits=l2.hits,
            l2_misses=l2.misses,
            l2_accesses=l2.accesses + l2.writeback_hits + l2.writeback_misses,
            l2_writebacks=l2.writebacks_to_memory,
            walk_tag_reads=l2.walk_tag_reads,
            relocations=l2.relocations,
            bank_accesses=list(l2.bank_accesses),
            coherence_invalidations=totals.coherence_invalidations,
            upgrades=totals.upgrades,
            l2_bank_latency=self.bank_latency,
            eviction_priorities=priorities,
            bank_queueing_cycles=self.ports.queueing_cycles,
        )


class CMPSimulator:
    """Execution-driven whole-system simulation."""

    def __init__(
        self,
        cfg: CMPConfig,
        workload,
        instructions_per_core: int = 100_000,
        seed: int = 0,
        policy_wrapper=None,
        obs: Optional[ObsContext] = None,
    ) -> None:
        if cfg.l2_design.policy == "opt":
            raise ValueError(
                "OPT needs a captured future trace; use TraceDrivenRunner"
            )
        self.cfg = cfg
        self.workload = workload
        self.instructions_per_core = instructions_per_core
        self.seed = seed
        self.policy_wrapper = policy_wrapper
        self.obs = obs

    def run(self) -> CMPResult:
        """Simulate until every core retires its instruction budget."""
        obs = self.obs
        timing = _L2Timing(
            self.cfg,
            BankedL2(
                self.cfg,
                policy_wrapper=self.policy_wrapper,
                obs=obs.scoped("l2") if obs is not None else None,
            ),
        )
        totals = _drive_cores(
            self.cfg, self.workload, self.instructions_per_core, self.seed,
            emit=timing.step, obs=obs,
        )
        return timing.result(totals)


class TraceDrivenRunner:
    """Capture the L2-level stream once; replay it per design.

    The capture pass runs cores + L1s + directory with *no* L2, so the
    captured stream is independent of the L2 design. Replays therefore
    miss one feedback path — inclusion victims cannot re-dirty the L1
    stream — which the paper's own trace-driven OPT runs share.
    """

    def __init__(
        self,
        cfg: CMPConfig,
        workload,
        instructions_per_core: int = 100_000,
        seed: int = 0,
    ) -> None:
        self.cfg = cfg
        self.workload = workload
        self.instructions_per_core = instructions_per_core
        self.seed = seed
        self._captured: Optional[CapturedTrace] = None

    @classmethod
    def from_captured(
        cls,
        cfg: CMPConfig,
        captured: CapturedTrace,
        instructions_per_core: int = 100_000,
        seed: int = 0,
    ) -> "TraceDrivenRunner":
        """A runner seeded with an already-captured stream.

        The parallel sweep engine captures each workload's stream once
        in the parent process and ships the :class:`CapturedTrace` to
        workers; a worker rebuilds a runner from it without needing the
        workload generator (``capture`` is already satisfied).
        """
        runner = cls(
            cfg,
            workload=None,
            instructions_per_core=instructions_per_core,
            seed=seed,
        )
        runner._captured = captured
        return runner

    def capture(self) -> CapturedTrace:
        """Phase 1: L1 filtering and coherence, recording L2 events."""
        if self._captured is None:
            events: list = []
            self._captured = _drive_cores(
                self.cfg, self.workload, self.instructions_per_core,
                self.seed, emit=events.append,
            )
            self._captured.events = events
        return self._captured

    def replay(
        self,
        design_cfg: CMPConfig,
        policy_wrapper=None,
        obs: Optional[ObsContext] = None,
    ) -> CMPResult:
        """Phase 2: run the captured stream through one L2 design."""
        captured = self.capture()
        cfg = design_cfg
        spans = obs.spans if obs is not None else NULL_SPANS
        opt_traces = None
        if cfg.l2_design.policy == "opt":
            opt_traces = captured.bank_demand_traces(cfg.l2_banks)
        with spans.span("replay.build", design=cfg.l2_design.label()):
            l2 = BankedL2(
                cfg,
                opt_traces=opt_traces,
                policy_wrapper=policy_wrapper,
                obs=obs.scoped("l2") if obs is not None else None,
            )
        timing = _L2Timing(cfg, l2)
        step = timing.step
        with spans.span("replay.stream", events=len(captured.events)):
            for event in captured.events:
                step(event)
        return timing.result(captured)

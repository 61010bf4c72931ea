"""CMP and L2-design configuration (paper Table I).

The paper system: 32 cores, 32 KB 4-way L1s (split D/I; we model the
data side, which carries the traffic that matters here), an 8 MB shared
inclusive L2 in 8 banks, 4 memory controllers at 200-cycle zero-load
latency and 64 GB/s aggregate bandwidth, all at 2 GHz.

Pure-Python simulation cannot cover 8 MB x 10-billion-instruction runs,
so the default configuration is *scaled*: every capacity (and, via the
workload specs, every footprint) shrinks by ``SCALE`` while the ratios
between them stay fixed. ``CMPConfig.paper_scale()`` returns the
full-size configuration for calibration runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: default linear scale factor applied to cache capacities
SCALE = 32


@dataclass(frozen=True)
class L2DesignConfig:
    """One last-level-cache design point.

    ``kind`` selects the array: ``"sa"`` (set-associative), ``"skew"``,
    or ``"z"`` (zcache). ``hash_kind`` is the index hash (``"bitsel"``
    for a conventional un-hashed SA cache, ``"h3"`` for the paper's
    hashed baseline and all skew/z designs).
    """

    kind: str = "sa"
    ways: int = 4
    levels: int = 1  # walk depth for kind="z"
    hash_kind: str = "h3"
    parallel_lookup: bool = False
    policy: str = "lru"  # "lru" | "bucketed-lru" | "opt" | ...
    #: optional early-stop cap on walk candidates (kind="z" only) —
    #: the paper's bandwidth-pressure contingency
    candidate_limit: int | None = None

    def __post_init__(self):
        if self.kind not in ("sa", "skew", "z"):
            raise ValueError(f"unknown L2 kind {self.kind!r}")
        if self.ways < 1:
            raise ValueError("ways must be >= 1")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.kind != "z" and self.levels != 1:
            raise ValueError("levels only meaningful for zcaches")
        if self.candidate_limit is not None and self.kind != "z":
            raise ValueError("candidate_limit only applies to zcaches")

    def label(self) -> str:
        """Short name used in figures, e.g. ``SA-32`` or ``Z4/52``."""
        from repro.core.zcache import replacement_candidates

        lookup = "P" if self.parallel_lookup else "S"
        if self.kind == "z":
            r = replacement_candidates(self.ways, self.levels)
            return f"Z{self.ways}/{r}-{lookup}"
        if self.kind == "skew":
            return f"SK-{self.ways}-{lookup}"
        suffix = "" if self.hash_kind == "bitsel" else "h"
        return f"SA-{self.ways}{suffix}-{lookup}"


@dataclass(frozen=True)
class CMPConfig:
    """Whole-system configuration."""

    num_cores: int = 32
    # L1 data cache, per core (blocks of 64 B). Scaled less aggressively
    # than capacity alone would suggest (512/32 = 16 is degenerate), but
    # kept small enough that the aggregate L1 stays well under the L2.
    l1_blocks: int = 512 // SCALE * 2
    l1_ways: int = 4
    # shared L2
    l2_blocks: int = (8 << 20) // 64 // SCALE
    l2_banks: int = 8
    # latencies (cycles, 2 GHz)
    l1_to_l2_latency: int = 4
    #: NUCA wire model: when > 0, the L1-to-bank latency becomes
    #: ``l1_to_l2_latency + hops(core, bank) * nuca_hop_cycles`` with
    #: cores and banks placed on a line (hops normalised so the average
    #: over all pairs stays near l1_to_l2_latency's Table I meaning).
    #: The default of 0 is the paper's fixed-average model.
    nuca_hop_cycles: float = 0.0
    #: Model L2 bank-port contention: each bank serves one access per
    #: cycle, and a zcache's walk occupies its home bank's tag port for
    #: ceil(walk reads / ways) cycles after the miss. Off by default
    #: (the paper's experiments show the load is far from saturation;
    #: turning this on lets you find where that stops being true).
    bank_queueing: bool = False
    mem_latency: int = 200
    # bandwidth: 64 GB/s at 2 GHz = 32 B/cycle, split over 4 MCs
    num_mcs: int = 4
    mem_bytes_per_cycle: float = 32.0
    line_bytes: int = 64
    l2_design: L2DesignConfig = field(default_factory=L2DesignConfig)

    def __post_init__(self):
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if self.l2_blocks % self.l2_banks:
            raise ValueError("l2_blocks must divide evenly into banks")
        bank_blocks = self.l2_blocks // self.l2_banks
        ways = self.l2_design.ways
        if bank_blocks % ways:
            raise ValueError(
                f"bank of {bank_blocks} blocks does not divide into {ways} ways"
            )
        lines = bank_blocks // ways
        if lines & (lines - 1):
            raise ValueError(
                f"lines per way ({lines}) must be a power of two; adjust "
                "l2_blocks/l2_banks/ways"
            )
        if self.l1_blocks % self.l1_ways:
            raise ValueError("l1_blocks must divide into l1_ways")
        l1_sets = self.l1_blocks // self.l1_ways
        if l1_sets & (l1_sets - 1):
            raise ValueError("L1 sets must be a power of two")

    @property
    def bank_blocks(self) -> int:
        return self.l2_blocks // self.l2_banks

    @property
    def bank_lines_per_way(self) -> int:
        return self.bank_blocks // self.l2_design.ways

    @property
    def line_transfer_cycles(self) -> float:
        """MC occupancy of one line transfer (per controller)."""
        per_mc = self.mem_bytes_per_cycle / self.num_mcs
        return self.line_bytes / per_mc

    def l1_to_bank_latency(self, core: int, bank: int) -> int:
        """Core-to-bank request latency.

        With the default ``nuca_hop_cycles == 0`` this is the fixed
        Table I average. Otherwise cores map onto bank columns
        (core mod banks) and each column of distance costs
        ``nuca_hop_cycles`` extra cycles — a 1-D NUCA wire model.
        """
        if self.nuca_hop_cycles <= 0:
            return self.l1_to_l2_latency
        hops = abs((core % self.l2_banks) - bank)
        # Centre the distribution on the configured average: the mean
        # 1-D distance between uniform points on [0, B) is ~B/3.
        mean_hops = self.l2_banks / 3
        extra = (hops - mean_hops) * self.nuca_hop_cycles
        return max(1, round(self.l1_to_l2_latency + extra))

    @classmethod
    def paper_scale(cls, **overrides) -> "CMPConfig":
        """The unscaled Table I system (slow in pure Python)."""
        cfg = cls(
            l1_blocks=512,
            l2_blocks=(8 << 20) // 64,
        )
        return replace(cfg, **overrides) if overrides else cfg

    def with_design(self, design: L2DesignConfig) -> "CMPConfig":
        """A copy of this config with a different L2 design."""
        return replace(self, l2_design=design)

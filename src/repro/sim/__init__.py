"""Trace-driven CMP simulator (paper Table I system).

Models the paper's evaluation platform: 32 in-order x86-class cores
(IPC=1 except on memory accesses), private split L1s, a shared, banked,
inclusive L2 with MESI-style directory coherence, and memory controllers
with a zero-load latency plus bandwidth queueing.

Two operating modes, built from one core/L1/directory loop and one L2
timing step (upgrades count as bank-port accesses in both):

- **full** (:meth:`CMPSimulator.run`): execution-driven; the loop feeds
  the timing step directly, so the L2 design affects the L1 stream
  through inclusion victims and coherence.
- **trace** (:class:`TraceDrivenRunner`): the loop's L2 events are
  captured once and replayed through the timing step against many L2
  designs — this is how the paper runs OPT, and it makes design sweeps
  (Fig. 4/5) cheap. Inclusion victims do not feed back into the L1
  stream in this mode; that is the one difference between the modes.
"""

from repro.sim.config import CMPConfig, L2DesignConfig
from repro.sim.cmp import CMPResult, CMPSimulator, TraceDrivenRunner
from repro.sim.directory import Directory
from repro.sim.l2 import BankedL2

__all__ = [
    "CMPConfig",
    "L2DesignConfig",
    "CMPSimulator",
    "TraceDrivenRunner",
    "CMPResult",
    "Directory",
    "BankedL2",
]

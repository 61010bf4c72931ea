"""Shared experiment infrastructure: design lists, sweep runner, scaling."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from repro.obs import (
    NULL_PHASE_TIMER,
    NULL_SPANS,
    Heartbeat,
    ObsContext,
    sanitize_component,
)
from repro.sim import CMPConfig, L2DesignConfig, TraceDrivenRunner
from repro.workloads import WORKLOADS, get_workload


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run an experiment.

    ``instructions_per_core`` drives simulation length; ``workloads``
    restricts the roster (None = all 72). Benches use small scales; the
    EXPERIMENTS.md numbers use the defaults.
    """

    instructions_per_core: int = 6_000
    workloads: Optional[tuple[str, ...]] = None
    seed: int = 1

    def workload_names(self) -> list[str]:
        """The workload roster this scale covers."""
        if self.workloads is None:
            return list(WORKLOADS)
        return list(self.workloads)


def baseline_design(parallel: bool = False) -> L2DesignConfig:
    """The paper's baseline: 4-way set-associative with H3 hashing."""
    return L2DesignConfig(kind="sa", ways=4, hash_kind="h3", parallel_lookup=parallel)


#: Fig. 4's design sweep (all serial lookup; the baseline comes first).
DESIGNS_FIG4: tuple[L2DesignConfig, ...] = (
    baseline_design(),
    L2DesignConfig(kind="sa", ways=16, hash_kind="h3"),
    L2DesignConfig(kind="sa", ways=32, hash_kind="h3"),
    L2DesignConfig(kind="skew", ways=4),  # Z4/4
    L2DesignConfig(kind="z", ways=4, levels=2),  # Z4/16
    L2DesignConfig(kind="z", ways=4, levels=3),  # Z4/52
)


def representative_workloads() -> list[str]:
    """Fig. 5's five representative applications."""
    return ["blackscholes", "gamess", "cpu2K6rand0", "canneal", "cactusADM"]


@dataclass
class SweepResult:
    """Results of one workload across several designs/policies."""

    workload: str
    #: (design label, policy) -> CMPResult
    results: dict = field(default_factory=dict)


def run_design_sweep(
    workload_name: str,
    designs: Iterable[L2DesignConfig],
    policies: Iterable[str] = ("lru",),
    scale: ExperimentScale = ExperimentScale(),
    cfg: Optional[CMPConfig] = None,
    policy_wrapper=None,
    obs: Optional[ObsContext] = None,
    jobs: int = 1,
) -> SweepResult:
    """Capture a workload's L2 stream once, replay it per design/policy.

    OPT policies are supported (the captured stream provides the future
    trace). Returns a :class:`SweepResult` keyed by (design label,
    policy name).

    ``jobs > 1`` fans the (design, policy) replays across that many
    worker processes via :mod:`repro.experiments.parallel`; results are
    bit-identical to the serial path (replay is deterministic given the
    captured trace) and worker metrics merge back into ``obs`` under
    the same per-design scopes the serial path uses.

    When an :class:`~repro.obs.ObsContext` is given, the capture and
    each replay run under its phase timer (``capture``,
    ``replay.<design>.<policy>``), each replay's metrics register under
    a per-design scope, and the context's heartbeat records progress.
    Without one, a heartbeat is still honoured if the
    ``ZCACHE_PROGRESS_LOG`` environment variable names a log file.
    """
    cfg = cfg or CMPConfig()
    if jobs > 1:
        from repro.experiments.parallel import run_parallel_sweeps

        outcome = run_parallel_sweeps(
            workloads=[workload_name],
            designs=designs,
            policies=policies,
            scale=scale,
            cfg=cfg,
            jobs=jobs,
            obs=obs,
            policy_wrapper=policy_wrapper,
            scope_workloads=False,
        )
        return outcome.sweeps[workload_name]
    workload = get_workload(workload_name)
    profiler = obs.profiler if obs is not None else NULL_PHASE_TIMER
    heartbeat = obs.heartbeat if obs is not None else Heartbeat.from_env()
    spans = obs.spans if obs is not None else NULL_SPANS
    runner = TraceDrivenRunner(
        cfg,
        workload,
        instructions_per_core=scale.instructions_per_core,
        seed=scale.seed,
    )
    with spans.span("sweep", workload=workload_name):
        with profiler.phase("capture"):
            with spans.span("capture", workload=workload_name):
                runner.capture()
        heartbeat.beat(f"{workload_name}: captured L2 stream")
        sweep = SweepResult(workload=workload_name)
        jobs = [(d, p) for d in designs for p in policies]
        for done, (design, policy) in enumerate(jobs, start=1):
            design_cfg = cfg.with_design(replace(design, policy=policy))
            scope = f"{sanitize_component(design.label())}.{policy}"
            with profiler.phase(f"replay.{scope}"):
                with spans.span(f"job.{scope}", design=design.label(),
                                policy=policy):
                    result = runner.replay(
                        design_cfg,
                        policy_wrapper=policy_wrapper,
                        obs=obs.scoped(scope) if obs is not None else None,
                    )
            sweep.results[(design.label(), policy)] = result
            heartbeat.beat(
                f"{workload_name}: replayed {design.label()}/{policy}",
                done=done,
                total=len(jobs),
            )
    return sweep


def collect_design_sweeps(
    workloads: Iterable[str],
    designs: Iterable[L2DesignConfig],
    policies: Iterable[str] = ("lru",),
    scale: ExperimentScale = ExperimentScale(),
    cfg: Optional[CMPConfig] = None,
    jobs: int = 1,
    obs: Optional[ObsContext] = None,
) -> dict:
    """Sweep several workloads; returns workload name -> SweepResult.

    With ``jobs > 1`` the full (workload x design x policy) product fans
    across worker processes (:mod:`repro.experiments.parallel`), which
    is how ``scripts/run_all.py`` and the figure sweeps parallelise;
    with ``jobs == 1`` it is a plain loop over :func:`run_design_sweep`.
    Both paths produce bit-identical results.
    """
    workloads = list(workloads)
    designs = list(designs)
    if jobs > 1:
        from repro.experiments.parallel import run_parallel_sweeps

        outcome = run_parallel_sweeps(
            workloads=workloads,
            designs=designs,
            policies=policies,
            scale=scale,
            cfg=cfg,
            jobs=jobs,
            obs=obs,
        )
        return outcome.sweeps
    return {
        w: run_design_sweep(
            w, designs, policies=policies, scale=scale, cfg=cfg, obs=obs
        )
        for w in workloads
    }


def improvement(base: float, value: float) -> float:
    """Fractional improvement as the paper plots it.

    For MPKI: base/value (1.2 = 1.2x fewer misses). For IPC the caller
    passes value/base instead.
    """
    if value == 0:
        return float("inf") if base > 0 else 1.0
    return base / value

"""Parallel sweep engine: process-pool replay with deterministic merge.

The paper's LLC evaluation (Section VI) is a large outer product —
72 workloads x 6 designs x multiple policies — of *independent* replay
jobs: each replays one workload's L1-filtered stream against one L2
design under one policy, sharing no mutable state with any other job.
That independence (the same structural property that makes
address-partitioned cache state safe to run concurrently) makes the
sweep embarrassingly parallel, so this module fans it across a
:class:`~concurrent.futures.ProcessPoolExecutor`:

1. **Capture once.** The parent captures each workload's stream with
   :meth:`~repro.sim.TraceDrivenRunner.capture` and ships the
   :class:`~repro.sim.cmp.CapturedTrace` to workers — workers never
   re-run the (expensive, design-independent) capture pass.
2. **Fan out.** Every (workload, design, policy) job is submitted with
   a deterministic per-job seed derived from the sweep seed and the job
   key, so a retried or resubmitted job can never drift from its first
   scheduling.
3. **Merge deterministically.** Each worker runs under a *private*
   :class:`~repro.obs.ObsContext`; on join, its metrics snapshot folds
   into the parent registry via
   :meth:`~repro.obs.MetricsRegistry.merge_snapshot` (additive, order
   independent), its phase timings fold into the parent profiler, and
   the parent heartbeat reports progress aggregated across workers.
   Replay itself is bit-deterministic given (trace, design, policy), so
   parallel results are identical to a serial run's.

Robustness is part of the contract:

- a per-job **timeout** (soft: the future stops being waited on, the
  worker is not killed) with one retry;
- **graceful degradation to serial**: a crashed worker pool — or a job
  that keeps failing — is marked in the outcome and the job re-runs in
  the parent process; the sweep always completes;
- a JSON **checkpoint** file, updated after every finished job, so an
  interrupted 72-workload sweep resumes without recomputing anything
  (stale checkpoints are detected by a sweep fingerprint and ignored).

When the parent context carries an enabled
:class:`~repro.obs.SpanTracker` (ZTrace), the engine also propagates
spans across the process boundary: the parent opens a ``sweep`` root
span, records one ``job.<scope>`` child per job (its id derived from
the job seed, so both sides can name it without a rendezvous), and
serializes a :class:`~repro.obs.SpanContext` into each submission.
Workers record their own span trees into per-job JSONL sinks (named by
the job-seed fingerprint); on join the parent stitches each worker
tree under its job span (:meth:`~repro.obs.SpanTracker.adopt`),
re-based onto the parent clock and clamped into the job window.
Timeouts, retries and degradation show up as span attributes, so the
``timeline`` CLI renders the whole fan-out as one tree.

Entry points: :func:`run_parallel_sweeps` (multi-workload),
``run_design_sweep(jobs=N)`` (single workload, in
:mod:`repro.experiments.runner`) and the ``zcache-repro sweep --jobs N``
CLI path (:func:`run_sweep_cli`).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import zlib
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.experiments.runner import ExperimentScale, SweepResult
from repro.hashing.mixers import splitmix64
from repro.obs import (
    NULL_SPANS,
    Heartbeat,
    ObsContext,
    SpanContext,
    SpanTracker,
    read_span_export,
    sanitize_component,
)
from repro.obs.spans import derive_trace_id
from repro.sim import CMPConfig, CMPResult, L2DesignConfig, TraceDrivenRunner
from repro.sim.cmp import CapturedTrace
from repro.workloads import get_workload

#: checkpoint schema version (bump on incompatible change)
CHECKPOINT_VERSION = 1


def default_jobs() -> int:
    """Worker count matching the CPUs this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)


def derive_job_seed(base_seed: int, key: str) -> int:
    """Deterministic per-job seed from the sweep seed and the job key.

    Stable across processes and Python versions (crc32 + splitmix64,
    never the salted builtin ``hash``), so a retried job always replays
    under exactly the seed of its first submission.
    """
    return splitmix64((base_seed & 0xFFFFFFFF) << 32 | zlib.crc32(key.encode()))


@dataclass(frozen=True)
class SweepJob:
    """One (workload, design, policy) replay unit."""

    workload: str
    design: L2DesignConfig
    policy: str
    seed: int  #: deterministic per-job seed (see :func:`derive_job_seed`)

    @property
    def key(self) -> str:
        """Stable identity used for checkpointing and result lookup."""
        return f"{self.workload}|{self.design.label()}|{self.policy}"

    def scope(self, include_workload: bool) -> str:
        """Metric scope for this job's registry subtree."""
        design_part = f"{sanitize_component(self.design.label())}.{self.policy}"
        if not include_workload:
            return design_part
        return f"{sanitize_component(self.workload)}.{design_part}"

    @property
    def span_id(self) -> int:
        """Deterministic id of this job's parent-side span.

        Derived from the job seed, so the parent can name the span at
        submit time and the worker can parent its tree under it without
        any rendezvous — and a retried job reuses the same id.
        """
        return derive_trace_id(self.seed)

    @property
    def fingerprint(self) -> str:
        """Filesystem-safe job identity (per-job span sink file names)."""
        return f"{self.seed:016x}"


@dataclass
class JobOutcome:
    """What happened to one job (for reporting and the checkpoint)."""

    key: str
    #: "parallel" | "serial" | "checkpoint" | "failed"
    status: str
    attempts: int = 1
    error: str = ""
    result: Optional[CMPResult] = None


@dataclass
class ParallelSweepOutcome:
    """Everything a sweep produced, plus how it got there."""

    #: workload name -> SweepResult (same shape as run_design_sweep's)
    sweeps: dict = field(default_factory=dict)
    #: job key -> JobOutcome, in deterministic job order
    outcomes: dict = field(default_factory=dict)
    #: True when the worker pool died and jobs fell back to the parent
    degraded: bool = False
    #: jobs restored from the checkpoint instead of recomputed
    restored: int = 0

    @property
    def failed(self) -> list:
        """Outcomes of the jobs that produced no result."""
        return [o for o in self.outcomes.values() if o.status == "failed"]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _execute_job(
    job: SweepJob,
    cfg: CMPConfig,
    captured: CapturedTrace,
    policy_wrapper,
    obs: Optional[ObsContext],
) -> CMPResult:
    """Replay one job. Shared verbatim by workers and the serial path,
    which is what makes degraded (in-parent) execution bit-identical."""
    runner = TraceDrivenRunner.from_captured(cfg, captured, seed=job.seed)
    design_cfg = cfg.with_design(replace(job.design, policy=job.policy))
    return runner.replay(design_cfg, policy_wrapper=policy_wrapper, obs=obs)


def _replay_worker(
    job: SweepJob,
    cfg: CMPConfig,
    captured: CapturedTrace,
    policy_wrapper,
    scope: str,
    span_ctx: Optional[dict] = None,
) -> tuple[str, CMPResult, dict, dict]:
    """Process-pool entry point: replay under a private ObsContext.

    Returns ``(key, result, metrics snapshot, phase-seconds report)``;
    the parent merges the snapshot and timings into its own context.
    With a serialized :class:`SpanContext`, the worker also records its
    span tree (root ``replay.<scope>``, parented under the parent-side
    job span) into the per-job sink file named in the context; spans
    travel back through the filesystem, not the return value.
    """
    spans = NULL_SPANS
    if span_ctx is not None:
        spans = SpanTracker.from_context(
            SpanContext.from_dict(span_ctx), process=f"worker-{os.getpid()}"
        )
    obs = ObsContext(spans=spans)
    try:
        with obs.profiler.phase(f"replay.{scope}"):
            with spans.span(f"replay.{scope}", key=job.key):
                result = _execute_job(
                    job, cfg, captured, policy_wrapper, obs.scoped(scope)
                )
    finally:
        spans.close()
    return job.key, result, obs.metrics.snapshot(), obs.profiler.report()


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def _sweep_fingerprint(
    cfg: CMPConfig,
    scale: ExperimentScale,
    jobs: Sequence[SweepJob],
) -> dict:
    """Identity of a sweep: same fingerprint == checkpoint is resumable."""
    return {
        "version": CHECKPOINT_VERSION,
        "seed": scale.seed,
        "instructions_per_core": scale.instructions_per_core,
        "num_cores": cfg.num_cores,
        "l2_blocks": cfg.l2_blocks,
        "l2_banks": cfg.l2_banks,
        "jobs": sorted(j.key for j in jobs),
    }


class SweepCheckpoint:
    """Append-as-you-go JSON checkpoint for an interruptible sweep.

    One file, rewritten atomically (temp + rename) after every finished
    job: {"fingerprint": ..., "results": {job key: {"status", "result",
    "metrics"}}}. ``load`` ignores files whose fingerprint does not
    match the current sweep, so changing the roster, scale or seed never
    resurrects stale results.
    """

    def __init__(self, path, fingerprint: dict) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._results: dict[str, dict] = {}

    def load(self) -> dict[str, dict]:
        """Restore finished jobs (empty dict when absent/stale/corrupt)."""
        try:
            with open(self.path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError):
            return {}
        if data.get("fingerprint") != self.fingerprint:
            return {}
        results = data.get("results", {})
        if not isinstance(results, dict):
            return {}
        self._results = results
        return dict(results)

    def record(self, key: str, status: str, result: CMPResult,
               metrics: Optional[dict] = None) -> None:
        """Persist one finished job (atomic rewrite)."""
        self._results[key] = {
            "status": status,
            "result": result.to_dict(),
            "metrics": metrics or {},
        }
        payload = {"fingerprint": self.fingerprint, "results": self._results}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def run_parallel_sweeps(
    workloads: Optional[Iterable[str]] = None,
    designs: Iterable[L2DesignConfig] = (),
    policies: Iterable[str] = ("lru",),
    scale: ExperimentScale = ExperimentScale(),
    cfg: Optional[CMPConfig] = None,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    checkpoint: Optional[str] = None,
    obs: Optional[ObsContext] = None,
    policy_wrapper=None,
    scope_workloads: bool = True,
    span_dir: Optional[str] = None,
) -> ParallelSweepOutcome:
    """Run a (workload x design x policy) sweep across worker processes.

    Parameters
    ----------
    workloads:
        Workload roster (default: ``scale.workload_names()``).
    jobs:
        Worker process count. ``1`` runs everything in-process (no pool);
        ``None`` uses the machine's available CPUs. Results are
        bit-identical either way.
    timeout:
        Soft per-job timeout in seconds; a job gets one retry, then
        falls back to in-parent execution.
    checkpoint:
        Path of a JSON checkpoint. Finished jobs found there (from a
        matching interrupted sweep) are restored, not recomputed.
    obs:
        Parent observability context. Worker metrics merge into its
        registry, worker phase timings into its profiler, and its
        heartbeat receives progress aggregated across all workers.
        Without one, a heartbeat is still honoured via the
        ``ZCACHE_PROGRESS_LOG`` environment variable.
    scope_workloads:
        Include the workload name in each job's metric scope (disabled
        by ``run_design_sweep(jobs=N)``, whose serial naming has no
        workload component).
    span_dir:
        Directory for the per-job worker span sink files (only used
        when ``obs.spans`` is enabled and the pool path runs). Default:
        a temporary directory, removed after stitching.
    """
    cfg = cfg or CMPConfig()
    designs = list(designs)
    policies = list(policies)
    names = list(workloads) if workloads is not None else scale.workload_names()
    n_jobs = jobs if jobs is not None else default_jobs()
    heartbeat = obs.heartbeat if obs is not None else Heartbeat.from_env()

    all_jobs = [
        SweepJob(
            workload=w,
            design=d,
            policy=p,
            seed=derive_job_seed(
                scale.seed, f"{w}|{d.label()}|{p}"
            ),
        )
        for w in names
        for d in designs
        for p in policies
    ]
    outcome = ParallelSweepOutcome(
        sweeps={w: SweepResult(workload=w) for w in names}
    )

    # -- checkpoint restore ------------------------------------------------
    ckpt: Optional[SweepCheckpoint] = None
    restored: dict[str, dict] = {}
    if checkpoint is not None:
        ckpt = SweepCheckpoint(
            checkpoint, _sweep_fingerprint(cfg, scale, all_jobs)
        )
        restored = ckpt.load()
    todo: list[SweepJob] = []
    for job in all_jobs:
        entry = restored.get(job.key)
        if entry is None:
            todo.append(job)
            continue
        result = CMPResult.from_dict(entry["result"])
        _commit(outcome, job, result, "checkpoint", obs, entry.get("metrics"))
        outcome.restored += 1
    total = len(all_jobs)
    done = outcome.restored
    if outcome.restored:
        heartbeat.beat(
            f"sweep: restored {outcome.restored} job(s) from checkpoint",
            done=done,
            total=total,
        )

    spans = obs.spans if obs is not None else NULL_SPANS
    with spans.span(
        "sweep", total_jobs=total, restored=outcome.restored, workers=n_jobs
    ):
        # -- capture phase (once per workload, in the parent) --------------
        captures: dict[str, CapturedTrace] = {}
        profiler = obs.profiler if obs is not None else None
        for w in names:
            if not any(j.workload == w for j in todo):
                continue
            runner = TraceDrivenRunner(
                cfg,
                get_workload(w),
                instructions_per_core=scale.instructions_per_core,
                seed=scale.seed,
            )
            if profiler is not None:
                with profiler.phase(f"capture.{sanitize_component(w)}"):
                    with spans.span(
                        f"capture.{sanitize_component(w)}", workload=w
                    ):
                        captures[w] = runner.capture()
            else:
                with spans.span(
                    f"capture.{sanitize_component(w)}", workload=w
                ):
                    captures[w] = runner.capture()
            heartbeat.beat(f"sweep: {w}: captured L2 stream")

        # -- serial path (jobs == 1, or single remaining job) --------------
        def run_serial(job: SweepJob, status: str, attempts: int) -> None:
            scope = job.scope(scope_workloads)
            job_obs = obs.scoped(scope) if obs is not None else None
            try:
                with spans.span(
                    f"job.{scope}",
                    span_id=job.span_id,
                    key=job.key,
                    status=status,
                    attempts=attempts,
                ):
                    if profiler is not None:
                        with profiler.phase(f"replay.{scope}"):
                            result = _execute_job(
                                job, cfg, captures[job.workload],
                                policy_wrapper, job_obs,
                            )
                    else:
                        result = _execute_job(
                            job, cfg, captures[job.workload],
                            policy_wrapper, job_obs,
                        )
            except Exception as exc:  # mark and continue: the sweep finishes
                outcome.outcomes[job.key] = JobOutcome(
                    key=job.key, status="failed", attempts=attempts,
                    error=f"{type(exc).__name__}: {exc}",
                )
                return
            _commit(outcome, job, result, status, obs=None, snapshot=None,
                    attempts=attempts)
            if ckpt is not None:
                ckpt.record(job.key, status, result)

        if n_jobs <= 1 or len(todo) <= 1:
            for i, job in enumerate(todo):
                run_serial(job, "serial", attempts=1)
                heartbeat.beat(
                    f"sweep: {job.key} [serial]",
                    done=done + i + 1,
                    total=total,
                )
            return outcome

        # -- parallel path -------------------------------------------------
        stitch_dir: Optional[Path] = None
        cleanup_stitch_dir = False
        if spans.enabled:
            if span_dir is not None:
                stitch_dir = Path(span_dir)
                stitch_dir.mkdir(parents=True, exist_ok=True)
            else:
                stitch_dir = Path(tempfile.mkdtemp(prefix="ztrace-"))
                cleanup_stitch_dir = True
        try:
            try:
                with ProcessPoolExecutor(max_workers=n_jobs) as pool:
                    done = _drain_pool(
                        pool, todo, captures, cfg, policy_wrapper,
                        scope_workloads, timeout, outcome, obs, ckpt,
                        heartbeat, done, total, spans, stitch_dir,
                    )
            except BrokenProcessPool:
                outcome.degraded = True
            # Graceful degradation: anything the pool did not finish
            # (worker crash, exhausted retries) re-runs in the parent,
            # marked as such.
            for job in todo:
                if job.key in outcome.outcomes:
                    continue
                outcome.degraded = True
                run_serial(job, "serial", attempts=2)
                done += 1
                heartbeat.beat(
                    f"sweep: {job.key} [degraded-serial]",
                    done=done,
                    total=total,
                )
        finally:
            if cleanup_stitch_dir and stitch_dir is not None:
                shutil.rmtree(stitch_dir, ignore_errors=True)
    return outcome


def _span_sink_path(
    stitch_dir: Optional[Path], job: SweepJob, attempt: int
) -> Optional[Path]:
    """Per-(job, attempt) worker span sink file (None when spans are off).

    Keyed by the job-seed fingerprint so the parent can re-derive the
    path at join time; the attempt index keeps a timed-out first
    attempt (whose worker may still be writing) from racing its retry.
    """
    if stitch_dir is None:
        return None
    return stitch_dir / f"{job.fingerprint}.a{attempt}.spans.jsonl"


def _drain_pool(
    pool: ProcessPoolExecutor,
    todo: list[SweepJob],
    captures: dict[str, CapturedTrace],
    cfg: CMPConfig,
    policy_wrapper,
    scope_workloads: bool,
    timeout: Optional[float],
    outcome: ParallelSweepOutcome,
    obs: Optional[ObsContext],
    ckpt: Optional[SweepCheckpoint],
    heartbeat: Heartbeat,
    done: int,
    total: int,
    spans: SpanTracker = NULL_SPANS,
    stitch_dir: Optional[Path] = None,
) -> int:
    """Submit every job, join in deterministic order, retry once each.

    Raises :class:`BrokenProcessPool` through to the caller when the
    pool dies; jobs already committed stay committed.

    With spans enabled, each submission carries a serialized
    :class:`SpanContext`; at join the parent records the job's
    submit-to-join window as a ``job.<scope>`` span (deterministic
    seed-derived id) and stitches the worker's span tree under it,
    clamped into that window.
    """

    def submit(job: SweepJob, attempt: int) -> Future:
        span_ctx = None
        sink = _span_sink_path(stitch_dir, job, attempt)
        if sink is not None:
            span_ctx = SpanContext(
                seed=job.seed,
                parent_span_id=job.span_id,
                thread=job.scope(scope_workloads),
                sink_path=str(sink),
            ).to_dict()
        return pool.submit(
            _replay_worker,
            job,
            cfg,
            captures[job.workload],
            policy_wrapper,
            job.scope(scope_workloads),
            span_ctx,
        )

    submitted_at = {
        job.key: spans.now() if spans.enabled else 0.0 for job in todo
    }
    futures: dict[str, Future] = {
        job.key: submit(job, attempt=1) for job in todo
    }
    for job in todo:
        attempts = 0
        while True:
            attempts += 1
            try:
                key, result, snapshot, phases = futures[job.key].result(
                    timeout=timeout
                )
            except BrokenProcessPool:
                raise
            except FutureTimeout:
                if attempts > 1:
                    break  # degraded serial fallback picks it up
                # one retry, same seed
                futures[job.key] = submit(job, attempt=2)
                continue
            except Exception:  # worker raised: one retry, then fallback
                if attempts > 1:
                    break
                futures[job.key] = submit(job, attempt=2)
                continue
            _commit(outcome, job, result, "parallel", obs, snapshot,
                    attempts=attempts)
            if obs is not None:
                for phase, seconds in phases.items():
                    obs.profiler.add(phase, seconds)
            if spans.enabled:
                joined_at = spans.now()
                spans.record_span(
                    f"job.{job.scope(scope_workloads)}",
                    start=submitted_at[job.key],
                    end=joined_at,
                    span_id=job.span_id,
                    key=job.key,
                    status="parallel",
                    attempts=attempts,
                )
                sink = _span_sink_path(stitch_dir, job, attempts)
                if sink is not None and sink.exists():
                    spans.adopt(
                        read_span_export(sink),
                        window=(submitted_at[job.key], joined_at),
                    )
            if ckpt is not None:
                ckpt.record(job.key, "parallel", result, metrics=snapshot)
            done += 1
            heartbeat.beat(
                f"sweep: {job.key} [parallel x{attempts}]",
                done=done,
                total=total,
            )
            break
    return done


def _commit(
    outcome: ParallelSweepOutcome,
    job: SweepJob,
    result: CMPResult,
    status: str,
    obs: Optional[ObsContext],
    snapshot: Optional[dict],
    attempts: int = 1,
) -> None:
    """Fold one finished job into the sweep outcome (and the registry)."""
    outcome.sweeps[job.workload].results[(job.design.label(), job.policy)] = (
        result
    )
    outcome.outcomes[job.key] = JobOutcome(
        key=job.key, status=status, attempts=attempts, result=result
    )
    if obs is not None and snapshot:
        obs.metrics.merge_snapshot(snapshot)


# ---------------------------------------------------------------------------
# CLI: zcache-repro sweep
# ---------------------------------------------------------------------------


def run_sweep_cli(argv: list) -> int:
    """``zcache-repro sweep``: the parallel design sweep from the shell."""
    import argparse

    from repro.experiments.runner import DESIGNS_FIG4

    parser = argparse.ArgumentParser(
        prog="zcache-repro sweep",
        description="Run a (workload x design x policy) replay sweep "
        "across worker processes with deterministic merge.",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: available CPUs; 1 = serial)",
    )
    parser.add_argument(
        "--workloads", type=str, default=None,
        help="comma-separated roster subset (default: all 72)",
    )
    parser.add_argument(
        "--policies", type=str, default="lru",
        help="comma-separated replacement policies (default: lru)",
    )
    parser.add_argument("--instructions", type=int, default=6_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="soft per-job timeout in seconds (one retry, then serial)",
    )
    parser.add_argument(
        "--checkpoint", type=str, default=None, metavar="PATH",
        help="JSON checkpoint: resume an interrupted sweep from here",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="write per-job results as JSON",
    )
    parser.add_argument(
        "--progress-log", type=str, default=None, metavar="PATH",
        help="append heartbeat progress lines to this file",
    )
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",") if args.workloads else None
    scale = ExperimentScale(
        instructions_per_core=args.instructions,
        workloads=tuple(workloads) if workloads else None,
        seed=args.seed,
    )
    heartbeat = (
        Heartbeat(path=args.progress_log)
        if args.progress_log
        else Heartbeat.from_env()
    )
    obs = ObsContext(heartbeat=heartbeat)
    outcome = run_parallel_sweeps(
        workloads=workloads,
        designs=DESIGNS_FIG4,
        policies=tuple(args.policies.split(",")),
        scale=scale,
        cfg=CMPConfig(),
        jobs=args.jobs,
        timeout=args.timeout,
        checkpoint=args.checkpoint,
        obs=obs,
    )

    print(
        f"sweep: {len(outcome.outcomes)} jobs "
        f"({outcome.restored} restored, {len(outcome.failed)} failed"
        f"{', degraded to serial' if outcome.degraded else ''})"
    )
    header = f"{'workload':16s} {'design':10s} {'policy':12s} " \
             f"{'l2_mpki':>8s} {'ipc':>7s} {'cycles':>10s}"
    print(header)
    for w in sorted(outcome.sweeps):
        sweep = outcome.sweeps[w]
        for (design, policy), res in sorted(sweep.results.items()):
            print(
                f"{w:16s} {design:10s} {policy:12s} "
                f"{res.l2_mpki:8.2f} {res.aggregate_ipc:7.3f} "
                f"{res.total_cycles:10d}"
            )
    for job_outcome in outcome.failed:
        print(f"FAILED {job_outcome.key}: {job_outcome.error}")
    if args.json:
        payload = {
            key: {
                "status": o.status,
                "attempts": o.attempts,
                "error": o.error,
                "result": o.result.to_dict() if o.result else None,
            }
            for key, o in outcome.outcomes.items()
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1)
        print(f"JSON written to {args.json}")
    return 1 if outcome.failed else 0

#!/usr/bin/env python3
"""ZBench: the repository's end-to-end benchmark with a traced per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-sweep --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``client.py``):

- ``fig4-sweep``: canneal + mcf captured at default scale, replayed on the
  six fig4 designs under opt and lru;
- ``paper-capture``: canneal at ``CMPConfig.paper_scale()`` on SA-4h and
  Z4/52 (lru);
- ``fig2-turbo``: ``experiments.fig2.run(engine="turbo")`` at default size;
- ``serve-evict``: a 2-thread closed loop against ``ZServeCache`` serving
  canneal's stream at a footprint of 6x its capacity.

Every run measures set-up time in fresh processes, runs the timed phase
for ``--seconds``, checks every output, and runs the correctness gate
(pinned outputs in ``refs.json`` for the default and the held-out seed).
``--trace 1`` adds one repetition with a span at every layer boundary
(``layers.py``) and reports per-layer calls and self time instead of the
end-to-end metrics. The last line of standard output is one JSON object;
details and the spans go to ``.bench_out/`` under the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

WORKLOADS = ("fig4-sweep", "paper-capture", "fig2-turbo", "serve-evict")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_rps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MB"),
)
COUNTS = (
    ("sim.capture.events", "count"),
    ("sim.l1.miss_ratio", "ratio"),
    ("sim.l2.misses", "count"),
    ("sim.l2.walk_tag_reads", "count"),
    ("sim.l2.relocations", "count"),
    ("core.walk.reads_per_miss", "ratio"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.stale_retry_ratio", "ratio"),
    ("serve.walk_races", "count"),
    ("serve.fallback_fills", "count"),
)
SETUP_PROBES = 11
#: calibration samples each set-up probe times once it is ready
PROBE_SAMPLES = 5
OUT_DIR = Path(".bench_out")


def use_program_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def construct(workload: str) -> object:
    if workload == "serve-evict":
        from client import construct as make_service

        return make_service()
    from workloads import BATCHES

    return BATCHES[workload].construct()


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Seconds from process start to constructed program objects.

    Each probe is a fresh interpreter, so imports are paid every time;
    ``perf_counter`` is system-wide monotonic, so the child's ready time
    and the parent's launch time share one clock. Right after it is
    ready the child times a few calibration samples, which scale its
    set-up time to the reference host. Returns (scaled, raw) seconds.
    """
    from calibrate import REFERENCE_S

    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", workload],
            capture_output=True, text=True, check=True, timeout=120,
        )
        ready, speed = map(float, out.stdout.split())
        raw.append(ready - start)
        scaled.append(raw[-1] * REFERENCE_S / speed)
    return scaled, raw


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


class Checks:
    """Attempted and failed operations, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def compare(self, what: str, got: dict, want: dict | None) -> None:
        """One operation per pinned entry; each differing entry fails."""
        if want is None:
            self.fail(what, "no pinned reference")
            return
        for key, value in want.items():
            self.attempted += 1
            if got.get(key) != value:
                self.failed += 1
                self.reasons.append(f"{what}: {key} differs")

    def fail(self, what: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons.append(f"{what}: {reason}")

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(f"{what}: {failed} failed")


def load_refs() -> dict:
    return json.loads((HERE / "refs.json").read_text())


def run_gate(workload: str, refs: dict, checks: Checks) -> None:
    """The pinned-reference gate for the default and held-out seeds."""
    from workloads import BATCHES, DEFAULT_SEED, HELD_OUT_SEED

    if workload == "serve-evict":
        from client import gate
    else:
        gate = BATCHES[workload].gate
    pinned = refs["gate"].get(workload, {})
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        what = f"gate seed {seed}"
        try:
            got = gate(seed)
        except Exception as exc:  # noqa: BLE001 - any crash is a failure
            checks.fail(what, repr(exc))
            continue
        checks.compare(what, got, pinned.get(str(seed)))


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- batch workloads ---------------------------------------------------------

def run_batch(workload: str, seed: int, seconds: int, refs: dict,
              checks: Checks) -> tuple[dict, list, dict]:
    """Timed repetitions until ``seconds`` have passed (at least one)."""
    from calibrate import Timer
    from workloads import BATCHES

    batch = BATCHES[workload]
    reps, raw, samples = [], [], []
    begin = perf_counter()
    while True:
        timer = Timer()
        rep = batch.rep(seed, timer)
        raw.append(timer.raw_s)
        samples += timer.samples
        reps.append((timer.scaled_s, rep))
        if perf_counter() - begin >= seconds:
            break
    first = reps[0][1].signature
    for i, (_wall, rep) in enumerate(reps[1:], start=1):
        checks.compare(f"rep {i} vs rep 0", rep.signature, first)
    timed_ref = refs["timed"].get(workload, {}).get(str(seed))
    if timed_ref is not None:
        checks.compare(f"rep 0 seed {seed}", first, timed_ref)
    walls = [w for w, _ in reps]
    per_request_us = [w / rep.requests * 1e6 for w, rep in reps]
    metrics = {
        "wall_s": median(walls),
        "throughput_rps": median(rep.requests / w for w, rep in reps),
        "p50_us": median(per_request_us),
        "p99_us": percentile(per_request_us, 0.99),
    }
    detail = {
        "request_unit": batch.request_unit,
        "requests_per_rep": reps[0][1].requests,
        "rep_walls_s": walls,
        "rep_raw_walls_s": raw,
        "calibration_samples": len(samples),
        "calibration_sample_median_s": median(samples),
        "samples": len(reps),
    }
    return metrics, reps, detail


def trace_batch(workload: str, seed: int, untraced: list, raw_median: float,
                checks: Checks, recorder) -> tuple[float, float, dict]:
    """One traced repetition: (seconds, overhead, counts).

    Not sampled, so no span holds benchmark code; the overhead is over
    the untraced repetitions' raw median.
    """
    from calibrate import Timer
    from layers import instrumented
    from workloads import BATCHES

    timer = Timer(sampled=False, span=lambda: recorder.span("bench.root"))
    with instrumented(recorder):
        rep = BATCHES[workload].rep(seed, timer)
    if untraced:
        checks.compare("traced rep vs rep 0", rep.signature,
                       untraced[0][1].signature)
    return timer.raw_s, timer.raw_s / raw_median, rep.counts


# -- serve-evict ---------------------------------------------------------------

def serve_inputs(seed: int, seconds: int) -> list:
    from client import EXTRA_REQUESTS, REQUESTS_PER_THREAD_SECOND, make_requests

    return make_requests(
        seed, REQUESTS_PER_THREAD_SECOND * seconds + EXTRA_REQUESTS
    )


def run_serve(lists: list, seconds: int, checks: Checks) -> tuple[dict, list, dict]:
    """Warm-up, then ``ROUNDS`` closed-loop rounds; raw host times.

    Unlike the batch workloads, serve rounds are not scaled by the
    calibration loop: the loop runs on one thread and the service on
    two, and scaling widened the spread of every serve metric.
    """
    from client import ROUNDS, Loop, Tally, construct, medians, summarise

    loop = Loop(construct(), lists)
    warm = Tally()
    loop.warm(warm)
    warm_requests = sum(loop.pos)
    checks.count(warm_requests, warm.wrong, "warm-up wrong values")
    window = seconds / ROUNDS
    rounds = []
    for _ in range(ROUNDS):
        if loop.exhausted():
            checks.fail("serve", "request lists exhausted")
            break
        stats = summarise(*loop.round(window))
        checks.count(stats.requests, stats.failed, "serve requests")
        rounds.append(stats)
    try:
        loop.service.check_consistency()
        checks.count(1, 0, "check_consistency")
    except AssertionError as exc:
        checks.fail("check_consistency", str(exc))
    detail = {
        "warm_requests": warm_requests,
        "rounds": [vars(r) for r in rounds],
        "samples": sum(r.requests for r in rounds),
        "window_s": window,
    }
    return medians(rounds), rounds, detail


def trace_serve(lists: list, seconds: int, wall_s: float, checks: Checks,
                recorder) -> tuple[float, float, dict]:
    """One traced round: (seconds, overhead per request, counts)."""
    from client import (ROUNDS, Loop, Tally, construct, layer_counts,
                        service_totals, summarise)
    from layers import instrumented, time_shard_locks

    with instrumented(recorder):
        service = construct()
        time_shard_locks(service, recorder)
        loop = Loop(service, lists)
        loop.warm(Tally())
        recorder.reset()
        before = service_totals(service)
        with recorder.span("bench.root"):
            elapsed, tallies = loop.round(seconds / ROUNDS, recorder)
        stats = summarise(elapsed, tallies)
        after = service_totals(service)
    checks.count(stats.requests, stats.failed, "traced serve requests")
    overhead = elapsed / stats.requests * 1e5 / wall_s
    return elapsed, overhead, layer_counts(before, after, stats)


# -- main ----------------------------------------------------------------------

def layer_metrics(recorder, counts: dict, traced_wall: float,
                  overhead: float) -> dict:
    from layers import BOUNDARIES, ROOTS

    calls, self_s = recorder.totals(BOUNDARIES + ROOTS)
    out = {}
    for name in BOUNDARIES:
        if name == "serve.lock_wait":
            out["serve.lock_wait.calls"] = (calls[name], "count")
            out["serve.lock_wait_s"] = (self_s[name], "s")
        else:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
    out["bench.other.self_s"] = (sum(self_s[r] for r in ROOTS), "s")
    out["bench.traced_wall_s"] = (traced_wall, "s")
    out["bench.trace_overhead"] = (overhead, "ratio")
    for name, unit in COUNTS:
        out[name] = (counts.get(name, 0), unit)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_program_source()
    if args.probe:
        construct(args.probe)
        ready = perf_counter()
        from calibrate import sample

        print(ready, median(sample() for _ in range(PROBE_SAMPLES)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from workloads import DEFAULT_SEED

    workload = args.workload
    seed = DEFAULT_SEED if args.seed is None else args.seed
    prov = provenance(workload, seed, args.seconds, args.trace)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in prov.items()),
          flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    refs = load_refs()
    checks = Checks()
    setup, setup_raw = ([], []) if args.trace else measure_setup(workload)

    if workload == "serve-evict":
        lists = serve_inputs(seed, args.seconds)
        e2e, reps, detail = run_serve(lists, args.seconds, checks)
    else:
        e2e, reps, detail = run_batch(workload, seed, args.seconds, refs, checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gate_start = perf_counter()
    run_gate(workload, refs, checks)
    detail["gate_s"] = perf_counter() - gate_start

    if args.trace:
        from layers import LAYERS, coverage_errors
        from spans import SpanRecorder

        recorder = SpanRecorder()
        if workload == "serve-evict":
            traced, overhead, counts = trace_serve(
                lists, args.seconds, e2e["wall_s"], checks, recorder
            )
        else:
            traced, overhead, counts = trace_batch(
                workload, seed, reps, median(detail["rep_raw_walls_s"]),
                checks, recorder,
            )
        calls, _ = recorder.totals(LAYERS)
        errors = [f"coverage: {e}" for e in coverage_errors(workload, calls)]
        errors += [f"self time: {e}" for e in recorder.self_time_errors()]
        checks.count(max(1, len(errors)), len(errors), "traced-run checks")
        checks.reasons += errors
        metrics = layer_metrics(recorder, counts, traced, overhead)
        spans_path = OUT_DIR / f"spans-{workload}.npz"
        detail["spans"] = recorder.write(spans_path)
        detail["functions"] = {
            key: {"calls": n, "self_s": s, "inclusive_s": incl}
            for key, (n, s, incl) in recorder.by_key().items()
        }
        detail["spans_file"] = str(spans_path)
    else:
        values = dict(e2e, setup_s=median(setup), peak_rss_mb=peak_rss_mb)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        detail["setup_probes_s"] = setup
        detail["setup_probes_raw_s"] = setup_raw

    fail_ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6f} {unit}")
    print(f"  {'fail_ratio':28s} {fail_ratio:>16.6f} ratio "
          f"({checks.failed}/{checks.attempted})")
    print(f"  samples: {detail.get('samples')}")
    for reason in checks.reasons[:20]:
        print(f"  FAILED {reason}")
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, provenance=prov, fail_ratio=fail_ratio,
                  failures=checks.reasons, detail=detail)
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

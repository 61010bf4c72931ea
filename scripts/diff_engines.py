#!/usr/bin/env python3
"""CI gate: the turbo engine is bit-identical to the reference engine.

The turbo engine runs Fig. 2 only, so Fig. 2 is what this compares,
exactly (no tolerances — the ZTurbo contract is IEEE bit-identity, not
statistical agreement). Fig. 2 runs at a reduced scale, once per engine
with a fresh observability context each. Compared: the analytic and
simulated CDF arrays, the KS distances, every eviction priority behind
them, and the full metrics snapshots (modulo the ``engine_turbo`` /
``engine_fallback`` capability gauges — presence keys recording which
engine ran, not measurements). Serial vs 2-worker identity of the CMP
sweep is checked by ``scripts/parallel_check.py``.

Exit 0 on identity, 1 with a diff summary otherwise. The scale is small
on purpose: the point is equality, and ``tests/kernels`` fuzzes the
corner cases while ``BENCH_kernels.json`` tracks the speedup.

Usage::

    python scripts/diff_engines.py [--accesses N] [--cache-blocks N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _strip_engine_gauges(snapshot: dict) -> dict:
    """Drop the turbo capability gauges before comparing snapshots."""
    return {
        k: v
        for k, v in snapshot.items()
        if not k.endswith(("engine_turbo", "engine_fallback"))
    }


def diff_fig2(accesses: int, cache_blocks: int) -> list[str]:
    """Mismatch descriptions for the Fig. 2 comparison (empty = identical)."""
    import numpy as np

    from repro.assoc import TrackedPolicy
    from repro.experiments import fig2
    from repro.obs import ObsContext

    runs = {}
    for engine in ("reference", "turbo"):
        obs = ObsContext()
        # Capture every tracker's raw priority stream (fig2 itself only
        # returns the CDF evaluations); creation order is deterministic.
        priorities: list[list[float]] = []
        orig_init = TrackedPolicy.__init__

        def catching_init(self, inner, _p=priorities, _o=orig_init):
            _o(self, inner)
            _p.append(self.priorities)

        TrackedPolicy.__init__ = catching_init
        try:
            result = fig2.run(
                cache_blocks=cache_blocks,
                accesses=accesses,
                seed=0,
                obs=obs,
                engine=engine,
            )
        finally:
            TrackedPolicy.__init__ = orig_init
        runs[engine] = {
            "xs": result.xs,
            "analytic": result.analytic,
            "simulated": result.simulated,
            "priorities": [tuple(p) for p in priorities],
            "metrics": _strip_engine_gauges(obs.metrics.snapshot()),
        }

    ref, turbo = runs["reference"], runs["turbo"]
    problems = []
    if not np.array_equal(ref["xs"], turbo["xs"]):
        problems.append("fig2: xs grids differ")
    for n in ref["analytic"]:
        if not np.array_equal(ref["analytic"][n], turbo["analytic"][n]):
            problems.append(f"fig2: analytic CDF differs for n={n}")
        r_cdf, r_ks = ref["simulated"][n]
        t_cdf, t_ks = turbo["simulated"][n]
        if not np.array_equal(r_cdf, t_cdf):
            problems.append(f"fig2: simulated CDF differs for n={n}")
        if r_ks != t_ks:
            problems.append(f"fig2: KS differs for n={n}: {r_ks!r} != {t_ks!r}")
    if ref["priorities"] != turbo["priorities"]:
        problems.append("fig2: eviction-priority streams differ")
    if ref["metrics"] != turbo["metrics"]:
        diff_keys = [
            k
            for k in sorted(set(ref["metrics"]) | set(turbo["metrics"]))
            if ref["metrics"].get(k) != turbo["metrics"].get(k)
        ]
        problems.append(f"fig2: metric snapshots differ at {diff_keys[:10]}")
    return problems


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=20_000)
    parser.add_argument("--cache-blocks", type=int, default=512)
    args = parser.parse_args(argv)

    problems = diff_fig2(args.accesses, args.cache_blocks)
    print(f"fig2: {'identical' if not problems else 'MISMATCH'}")

    if problems:
        for p in problems:
            print(f"diff_engines: {p}")
        print("diff_engines: engines diverged — turbo must be bit-identical")
        return 1
    print("diff_engines: reference and turbo engines are bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())

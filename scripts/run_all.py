"""Full-scale experiment runs for EXPERIMENTS.md.

Writes each artifact's report to ``results/<name>.txt`` under the
working directory; run it from the repository root::

    python scripts/run_all.py

Set REPRO_JOBS=N to fan the design-sweep experiments (fig4, fig5)
across N worker processes (repro.experiments.parallel); results are
bit-identical to the serial run.
"""
import argparse, os, sys, time, io, contextlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
argparse.ArgumentParser(
    description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
).parse_args()

def run(name, fn):
    t0 = time.time()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fn()
    out = buf.getvalue()
    with open(f"results/{name}.txt", "w") as f:
        f.write(out)
    print(f"{name} done in {time.time()-t0:.0f}s", flush=True)

from repro.experiments import fig2, fig3, fig4, fig5, table1, table2, bandwidth, merit
from repro.experiments.runner import ExperimentScale

SCALE = ExperimentScale(instructions_per_core=6000, seed=1)
JOBS = int(os.environ.get("REPRO_JOBS", "1"))

run("table1", table1.main)
run("table2", table2.main)
run("merit", merit.main)
run("fig2", fig2.main)

def fig3_main():
    for cell in fig3.run(scale=ExperimentScale(instructions_per_core=8000, seed=1)):
        print(cell.row())
run("fig3", fig3_main)

def fig4_main():
    result = fig4.run(scale=SCALE, policies=("opt", "lru"), jobs=JOBS)
    for s in sorted(result.series, key=lambda s: (s.metric, s.policy, s.design)):
        print(s.row())
    print()
    print("Per-workload detail (LRU, improvements vs SA-4h-S):")
    base = "SA-4h-S"
    for (w, pol), designs in sorted(result.raw.items()):
        if pol != "lru": continue
        b_mpki, b_ipc = designs[base]
        cells = []
        for d in ("SA-16h-S","SA-32h-S","SK-4-S","Z4/16-S","Z4/52-S"):
            m, i = designs[d]
            cells.append(f"{d}: mpki x{(b_mpki/m if m else 1):.3f} ipc x{(i/b_ipc if b_ipc else 1):.3f}")
        print(f"  {w:16s} baseMPKI={b_mpki:7.2f} | " + " | ".join(cells))
run("fig4", fig4_main)

def fig5_main():
    for cell in fig5.run(scale=SCALE, policies=("lru", "opt"), jobs=JOBS):
        print(cell.row())
run("fig5", fig5_main)

def bw_main():
    points = bandwidth.run(scale=SCALE)
    for p in sorted(points, key=lambda p: p.misses_per_cycle_per_bank):
        print("  " + p.row())
    print(f"max demand load/bank = {max(p.demand_load_per_bank for p in points):.4f}")
    print(f"max tag load/bank    = {max(p.tag_load_per_bank for p in points):.4f}")
    print(f"self-throttling correlation = {bandwidth.self_throttling_correlation(points):.3f}")
run("bandwidth", bw_main)
print("ALL DONE", flush=True)

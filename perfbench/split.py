#!/usr/bin/env python3
"""Print the per-layer split of traced runs.

    python3 perfbench/split.py .bench_out/result-fig4-sweep-seed1-trace1.json ...

For each traced result: every layer's calls, self seconds and share of
the traced wall time, then every ``layer:function`` key's inclusive
seconds, so shares such as "capture of the whole run" or "one property
of the replay" can be read off directly. Self times include the
recorder's own cost per span, which inflates layers with many short
calls; ``bench.trace_overhead`` bounds how much.
"""

from __future__ import annotations

import json
import sys


def show(path: str) -> None:
    record = json.loads(open(path, encoding="utf-8").read())
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    wall = metrics["bench.traced_wall_s"]
    print(f"{record['provenance']['workload']}  seed={record['provenance']['seed']}"
          f"  traced wall {wall:.3f} s  overhead x{metrics['bench.trace_overhead']:.2f}")
    for name in sorted(k[:-len(".calls")] for k in metrics if k.endswith(".calls")):
        calls = metrics[f"{name}.calls"]
        self_s = metrics.get(f"{name}.self_s", metrics.get(f"{name}_s", 0.0))
        if calls:
            print(f"  {name:22s} {calls:>10d} calls {self_s:9.3f} s self "
                  f"{100 * self_s / wall:5.1f}%")
    print("  inclusive seconds by function:")
    for key, row in sorted(record["detail"]["functions"].items()):
        if row["calls"]:
            print(f"    {key:50s} {row['inclusive_s']:9.3f} s "
                  f"{100 * row['inclusive_s'] / wall:5.1f}%")


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        show(arg)

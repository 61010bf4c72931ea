#!/usr/bin/env python3
"""Regenerate ``refs.json``, the outputs the correctness gate pins.

Run from the repository root, on a commit whose outputs are known good::

    python3 perfbench/pin_refs.py

``gate`` holds each workload's gate-size outputs for the default and the
held-out seed; ``timed`` holds the batch workloads' full-size outputs
for the same two seeds, checked whenever a run uses one of them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> None:
    run.use_program_source()
    import client
    from workloads import BATCHES, DEFAULT_SEED, HELD_OUT_SEED

    seeds = (DEFAULT_SEED, HELD_OUT_SEED)
    refs: dict = {"gate": {}, "timed": {}}
    for name, batch in BATCHES.items():
        refs["gate"][name] = {str(s): batch.gate(s) for s in seeds}
        refs["timed"][name] = {str(s): batch.rep(s).signature for s in seeds}
        print(f"pinned {name}", flush=True)
    refs["gate"]["serve-evict"] = {str(s): client.gate(s) for s in seeds}
    path = Path(run.HERE) / "refs.json"
    path.write_text(json.dumps(refs, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

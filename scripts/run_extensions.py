"""Supplementary experiment runs: the extension artifacts.

Companion to ``scripts/run_all.py`` (the paper's own tables/figures);
this records the Section I / III-D / IV-C / VIII extension experiments
into ``results/`` under the working directory. Run it from the
repository root::

    python scripts/run_extensions.py
"""

import argparse
import contextlib
import io
import sys
import time
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
    with open(f"results/{name}.txt", "w") as f:
        f.write(buf.getvalue())
    print(f"{name} done in {time.time() - t0:.0f}s", flush=True)


from repro.experiments import buffering, conflict, fig1, hashquality, pressure

run("fig1", fig1.main)
run("buffering", buffering.main)
run("conflict", conflict.main)
run("hashquality", hashquality.main)
run("pressure", pressure.main)
print("EXTENSIONS DONE", flush=True)

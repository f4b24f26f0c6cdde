"""Record the CSV+summary digest of every workload at the default seeds.

Run from the root of a checkout whose outputs are the reference:

    python3 bench/record_digests.py

Rewrites bench/digests.json.  run.py counts a run as failed when its digest
differs from the one recorded here for its seed, so a change that alters
output bytes shows as failures.  The bytes depend on the platform's float
kernels too: record again after moving to another CPU or numpy build.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run
import workloads

DEFAULT_SEEDS = range(32)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "squint" / "__init__.py").is_file():
        print(f"error: {root} has no src/squint; run from the root of a squint checkout",
              file=sys.stderr)
        return 2
    env = run.machine_env(root)
    rundir = root / ".bench_work" / f"digests-{os.getpid()}"
    digests = {}
    try:
        for name in workloads.load():
            digests[name] = {}
            for seed in DEFAULT_SEEDS:
                child = run.run_child(name, seed, 0.0, 0, rundir, None, env, runs=1)
                runs = [child["warmup"]] + child["runs"]
                problems = [p for r in runs for p in r["problems"]]
                if problems or len({r["digest"] for r in runs}) != 1:
                    print(f"error: {name} seed {seed}: {problems or 'digests differ'}",
                          file=sys.stderr)
                    return 1
                digests[name][str(seed)] = runs[0]["digest"]
            print(f"{name}: {len(DEFAULT_SEEDS)} seeds", flush=True)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    doc = {
        "about": "sha256 of run.csv, NUL, run.json, NUL for each workload and seed; "
                 "written by bench/record_digests.py",
        "machine": child["machine"],
        "digests": digests,
    }
    with open(run.HERE / "digests.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The measured process: one workload in a closed loop of ``squint run``.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
Writes the workload config into the run directory, changes into it, then
runs ``squint run config.json`` followed by ``squint audit run.csv`` one
after the other: one warm-up run, whose timings are discarded, and then
runs until the time budget is spent (or exactly ``--runs`` of them).  Every
run is checked: exit status 0, no violation, audit OK, and the digest of
the CSV and summary bytes equal across runs.  A fixed reference loop runs
between any two runs; run.py divides every time by the reference time
around it, which cancels most of the slowdown that other tenants of a
shared machine cause.  With ``--trace 1`` traced and
untraced runs alternate, so the tracing overhead is measured in the same
conditions.  Without tracing, a fresh interpreter measures the set-up time
every SETUP_EVERY_S seconds between runs, so that set-up samples are spread
over the whole run like the run samples.  Prints one JSON document on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np
import squint.harness_cli as hc
import tracer
import workloads

# one set-up sample (a fresh interpreter) per this many seconds of the run
SETUP_EVERY_S = 2.0
SETUP_TIMEOUT_S = 60.0
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import json
import squint
import squint.harness_cli as hc
with open("config.json") as fh:
    hc.parse_config(json.load(fh))
print(repr(time.perf_counter() - t0))
"""


_REF_SMALL = np.linspace(0.0, 1.0, 50)


def reference_loop() -> float:
    """Seconds of a fixed, squint-free mix of interpreter, math, repr and small
    numpy work, timed between runs to measure how fast the core is right now."""
    t0 = time.perf_counter()
    acc, names = 0.0, {}
    for i in range(20000):
        x = i * 1e-4
        acc += math.erfc(x) + math.log1p(x)
        names[i & 255] = repr(x)
        if i % 50 == 0:
            acc += float((_REF_SMALL * x).sum())
    return time.perf_counter() - t0


def digest(csv_path: str, summary_path: str) -> str:
    h = hashlib.sha256()
    for path in (csv_path, summary_path):
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        h.update(b"\0")
    return h.hexdigest()


def cli(main, argv: list[str]) -> tuple[int, str]:
    """Run the squint CLI in-process; returns (exit status, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to import squint and parse the config."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def one_run(tr: tracer.Tracer | None = None) -> dict:
    """One ``squint run`` plus ``squint audit``, timed and checked."""
    t0 = time.perf_counter()
    if tr is None:
        rc, out = cli(hc.main, ["run", "config.json"])
    else:
        rc, out = tr.traced_run(cli, hc.main, ["run", "config.json"])
    t1 = time.perf_counter()
    dig = digest("run.csv", "run.json")
    t2 = time.perf_counter()
    rc_audit, audit_out = cli(hc.main, ["audit", "run.csv"])
    t3 = time.perf_counter()
    try:
        violation = json.loads(out)["any_violation"]
    except (ValueError, KeyError):
        violation = None
    problems = []
    if rc != 0:
        problems.append(f"squint run exited {rc}")
    if violation is not False:
        problems.append(f"any_violation is {violation!r}")
    if rc_audit != 0 or audit_out.strip().splitlines()[-1:] != ["OK"]:
        problems.append(f"squint audit exited {rc_audit}")
    return {
        "run_s": t1 - t0,
        "audit_s": t3 - t2,
        "digest": dig,
        "problems": problems,
        "csv_bytes": os.path.getsize("run.csv"),
    }


def machine() -> dict:
    """What the numbers depend on besides the code: cores and library versions."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
    }


def layer_record(tr: tracer.Tracer, run: dict) -> dict:
    """Per-run totals of one traced run, keyed by traced name."""
    return {
        "wall_s": tr.total_s[tracer.RUN],
        "calls": dict(tr.calls),
        "total_s": dict(tr.total_s),
        "self_s": dict(tr.self_s),
        "counts": dict(tr.counts),
        "csv_bytes": run["csv_bytes"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--runs", type=int, default=0, help="exact run count; overrides --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--spans", help="write the traced runs' spans to this JSON file")
    args = ap.parse_args()

    spec = workloads.load()[args.workload]
    doc = workloads.config(spec, args.seed)
    os.makedirs(args.rundir, exist_ok=True)
    os.chdir(args.rundir)
    with open("config.json", "w") as fh:
        json.dump(doc, fh, sort_keys=True)

    tr = tracer.Tracer() if args.trace else None

    runs, layers, setup = [], [], []
    measure_setup = tr is None and not args.runs
    warmup = one_run()
    # a user runs the CLI once per process: peak RSS of a fresh process after one run
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if measure_setup:
        setup_sample()  # warms the page cache; discarded
    reference_loop()  # warm-up; discarded
    refs = [reference_loop()]
    start = next_setup = time.perf_counter()
    index = 0
    while True:
        if args.runs:
            if index >= args.runs * (2 if tr else 1):
                break
        elif time.perf_counter() - start >= args.seconds and index >= (2 if tr else 1):
            break
        if measure_setup and time.perf_counter() >= next_setup:
            setup.append({"setup_s": setup_sample(), "run": index})
            next_setup += SETUP_EVERY_S
        traced = tr is not None and index % 2 == 1
        if traced:
            tr.reset(index)
            tr.install()
            try:
                run = one_run(tr)
            finally:
                tr.uninstall()
            layers.append(layer_record(tr, run))
        else:
            run = one_run()
        refs.append(reference_loop())
        # the core's speed around this run: the reference loops on either side
        run["ref_s"] = 0.5 * (refs[-2] + refs[-1])
        run["traced"] = traced
        runs.append(run)
        index += 1
    for sample in setup:
        sample["ref_s"] = runs[sample["run"]]["ref_s"]

    if tr is not None and args.spans:
        with open(args.spans, "w") as fh:
            json.dump(tr.span_records(), fh)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "horizon": doc["horizon"],
        "warmup": warmup,
        "runs": runs,
        "layers": layers,
        "setup_s": setup,
        "peak_rss_kb": peak_rss_kb,
        "machine": machine(),
    }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

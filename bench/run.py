"""squint benchmark: fixed ``squint run`` workloads, checked and timed.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 bench/run.py --workload experts_improper --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1           # every workload in turn

With ``--trace 0`` it reports the end-to-end metrics (round_ms_norm,
audit_s_norm, setup_s, peak_rss_mb; also, unbounded, the tail, the sample
count and the raw wall times) and ``fail_frac``; with ``--trace 1`` the
per-layer metrics of traced runs.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each workload runs in a fresh
child process (bench/child.py) with BLAS pinned to one thread; setup_s comes
from fresh interpreters started between its runs.  Stdlib only.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170.0
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
# Times are rescaled to a core on which child.reference_loop takes this long,
# about what it takes on an uncontended core of the machine the benchmark
# was written on (see README, "Normalised times").
REF_NOMINAL_S = 0.016

# (name, unit) of every metric, in print order
END_TO_END = [
    ("round_ms_norm", "ms"),
    ("audit_s_norm", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("numerics.kernel.calls", "count"),
    ("numerics.kernel.s", "s"),
    ("numerics.quad.calls", "count"),
    ("numerics.quad.s", "s"),
    ("numerics.quad.evals", "count"),
    ("experts.weights.calls", "count"),
    ("experts.weights.self_s", "s"),
    ("experts.update.s", "s"),
    ("experts.iprod.rows_summed", "count"),
    ("experts.potential.calls", "count"),
    ("experts.potential.self_s", "s"),
    ("regret_bounds.aggregate.calls", "count"),
    ("regret_bounds.aggregate.s", "s"),
    ("regret_bounds.bound.calls", "count"),
    ("regret_bounds.bound.s", "s"),
    ("polytopes.project.calls", "count"),
    ("polytopes.project.rows", "count"),
    ("polytopes.project.s", "s"),
    ("component_iprod.play.self_s", "s"),
    ("component_iprod.observe.s", "s"),
    ("component_iprod.comparator.calls", "count"),
    ("component_iprod.comparator.s", "s"),
    ("component_iprod.potential.s", "s"),
    ("harness_cli.self_s", "s"),
    ("harness_cli.stream.s", "s"),
    ("harness_cli.csv_bytes", "B"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# The time metrics that partition a traced run's wall time: with no kernel
# falling back to quadrature they sum to trace.wall_s.
WALL_PARTS = [
    "numerics.kernel.s",
    "numerics.quad.s",
    "experts.weights.self_s",
    "experts.update.s",
    "experts.potential.self_s",
    "regret_bounds.aggregate.s",
    "regret_bounds.bound.s",
    "polytopes.project.s",
    "component_iprod.play.self_s",
    "component_iprod.observe.s",
    "component_iprod.comparator.s",
    "component_iprod.potential.s",
    "harness_cli.self_s",
    "harness_cli.stream.s",
]


def layer_metrics(rec: dict) -> dict:
    """Per-layer metric values of one traced run (see child.layer_record)."""
    calls, total, own, counts = rec["calls"], rec["total_s"], rec["self_s"], rec["counts"]
    out = {"harness_cli.csv_bytes": rec["csv_bytes"], "trace.wall_s": rec["wall_s"]}
    for name, _ in PER_LAYER:
        if name in out or name == "trace.overhead_frac":
            continue
        if name in counts:
            out[name] = counts[name]
            continue
        traced, kind = name.rsplit(".", 1)
        if traced == "harness_cli":  # harness_cli.self_s is the root span's self time
            traced = "harness_cli.run"
        table = {"calls": calls, "s": total, "self_s": own}[kind]
        out[name] = table.get(traced, 0)
    return out


def machine_env(root: Path) -> dict:
    """Child environment: the checkout's src/ on the path, BLAS on one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def recorded_digests() -> dict:
    with open(HERE / "digests.json") as fh:
        return json.load(fh)["digests"]


def run_child(name: str, seed: int, seconds: float, trace: int, rundir: Path,
              spans: Path | None, env: dict, runs: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--rundir", str(rundir)]
    if runs:
        cmd += ["--runs", str(runs)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(child: dict, expected: str | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): a run fails on any problem or digest mismatch."""
    reference = expected or child["warmup"]["digest"]
    failed, notes = 0, []
    for i, run in enumerate([child["warmup"]] + child["runs"]):
        problems = list(run["problems"])
        if run["digest"] != reference:
            problems.append(f"digest {run['digest'][:12]} != {reference[:12]}")
        if problems:
            failed += 1
            notes.append(f"run {i}: " + "; ".join(problems))
    return 1 + len(child["runs"]), failed, notes


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above it) of the highest percentile with
    TAIL_BEYOND samples above it; the maximum when there are too few samples."""
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[-1 - TAIL_BEYOND], 100.0 * (len(s) - TAIL_BEYOND) / len(s), TAIL_BEYOND


def normalized(seconds: float, ref_s: float) -> float:
    """A time rescaled from the core's current speed to the nominal one."""
    return seconds * REF_NOMINAL_S / ref_s


def end_to_end(child: dict) -> tuple[dict, list[str], list]:
    """(values, one note per metric, unbounded extra lines)."""
    runs, horizon = child["runs"], child["horizon"]
    per_round = [normalized(r["run_s"], r["ref_s"]) * 1000.0 / horizon for r in runs]
    audits = [normalized(r["audit_s"], r["ref_s"]) for r in runs]
    setup = [normalized(x["setup_s"], x["ref_s"]) for x in child["setup_s"]]
    raw_ms = [r["run_s"] * 1000.0 / horizon for r in runs]
    tail_ms, pct, above = tail(per_round)
    values = {
        "round_ms_norm": statistics.median(per_round),
        "audit_s_norm": statistics.median(audits),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
    }
    notes = [
        f"median of {len(per_round)} runs of {horizon} rounds, normalised",
        f"median of {len(audits)} audits, normalised",
        f"median of {len(setup)} fresh interpreters, normalised",
        "peak RSS of the child after its first run",
    ]
    extra = [
        ("round_ms_norm_tail", tail_ms, "ms", f"p{pct:.0f} of {len(per_round)} runs, "
                                              f"{above} above it, normalised"),
        ("round_ms", statistics.median(raw_ms), "ms", "median wall, not normalised"),
        ("round_ms_fastest", min(raw_ms), "ms", "fastest run's wall, not normalised"),
        ("audit_s", statistics.median(r["audit_s"] for r in runs), "s",
         "median wall, not normalised"),
        ("setup_s_wall", statistics.median(x["setup_s"] for x in child["setup_s"]), "s",
         "median wall, not normalised"),
        ("reference_ms", 1000.0 * statistics.median(r["ref_s"] for r in runs), "ms",
         f"median reference loop; {1000.0 * REF_NOMINAL_S:g} ms is nominal"),
    ]
    return values, notes, extra


def per_layer(child: dict) -> tuple[dict, list[str], list]:
    """Layer metrics of the fastest traced run, so that its times add up to its wall.

    Counts must be equal in every traced run; a count that varies is reported
    in its note and fails the invocation.
    """
    records = [layer_metrics(rec) for rec in child["layers"]]
    fastest = min(records, key=lambda r: r["trace.wall_s"])
    traced = [normalized(r["run_s"], r["ref_s"]) for r in child["runs"] if r["traced"]]
    plain = [normalized(r["run_s"], r["ref_s"]) for r in child["runs"] if not r["traced"]]
    values, notes = {}, []
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            values[name] = statistics.median(traced) / statistics.median(plain) - 1.0
            notes.append(f"median of {len(traced)} traced / of {len(plain)} untraced runs - 1, "
                         "normalised")
            continue
        values[name] = fastest[name]
        if unit in ("count", "B"):
            series = {r[name] for r in records}
            notes.append("exact" if len(series) == 1 else f"VARIES: {sorted(series)}")
        else:
            notes.append(f"fastest of {len(records)} traced runs")
    return values, notes, []


def measure(name: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    env = machine_env(root)
    work = root / ".bench_work"
    rundir = work / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    try:
        spans = work / f"spans-{name}-seed{seed}.json" if trace else None
        child = run_child(name, seed, seconds, trace, rundir, spans, env)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    expected = recorded_digests().get(name, {}).get(str(seed))
    attempted, failed, notes = check(child, expected)
    if expected is None:
        notes.append(f"no recorded digest for seed {seed}; runs checked against each other")
    if trace:
        values, detail, extra = per_layer(child)
        units = dict(PER_LAYER)
        if any(d.startswith("VARIES") for d in detail):
            failed = max(failed, 1)
            notes.append("a work count differed between traced runs")
    else:
        values, detail, extra = end_to_end(child)
        units = dict(END_TO_END)
    result = {
        "workload": name, "seed": seed, "trace": trace, "horizon": child["horizon"],
        "attempted": attempted, "failed": failed, "notes": notes,
        "machine": child["machine"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
        "detail": dict(zip(values, detail)),
        "extra": extra,
        "samples": {key: [r[key] for r in child["runs"]]
                    for key in ("run_s", "audit_s", "ref_s", "traced")},
        "setup_samples": child["setup_s"],
    }
    (work / "results").mkdir(parents=True, exist_ok=True)
    with open(work / "results" / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def report(res: dict) -> None:
    m = res["machine"]
    print(f"workload {res['workload']}  seed {res['seed']}  horizon {res['horizon']}  "
          f"{'traced' if res['trace'] else 'untraced'}")
    for name, metric in res["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']:6s} {res['detail'][name]}")
    for name, value, unit, note in res["extra"]:
        print(f"  {name:34s} {value:>14.6g} {unit:6s} {note}; not bounded")
    frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':34s} {frac:>14.6g} {'ratio':6s} "
          f"{res['failed']} of {res['attempted']} runs failed")
    for note in res["notes"]:
        print(f"  note: {note}")
    print(f"  machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"openblas {m['openblas']}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="squint benchmark")
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "squint" / "__init__.py").is_file():
        print(f"error: {root} has no src/squint; run from the root of a squint checkout",
              file=sys.stderr)
        return 2
    specs = workloads.load()
    names = list(specs) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in specs]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {sorted(specs)} or all",
              file=sys.stderr)
        return 2

    try:
        results = [measure(n, args.seed, args.seconds, args.trace, root) for n in names]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        stderr = getattr(err, "stderr", None) or ""
        print(f"error: {err}\n{stderr}", file=sys.stderr)
        return 1
    for res in results:
        report(res)

    if len(results) == 1:
        metrics = {n: {"value": m["value"], "unit": m["unit"]}
                   for n, m in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results for n, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

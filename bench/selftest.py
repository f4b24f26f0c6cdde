"""Self-test of the benchmark's tracing and workload design.

Run from the root of a checkout:

    python3 bench/selftest.py

For every workload, two fresh child processes each make one traced run.
The test checks that

- every work count (calls, rows, integrand evaluations, CSV bytes) is the
  same in both runs;
- the self times of all traced names add up to the traced wall time, and
  so do the per-layer time metrics plus harness_cli.self_s;
- every span lies inside its parent span;
- the trace confirms why each workload was chosen (see README.md).

Exit status 0 iff every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

import run
import workloads

REL_TOL = 1e-6
IPROD_MIN_SHARE = 0.8

LAYERS = {
    "numerics": ["numerics.kernel.s", "numerics.quad.s"],
    "experts": ["experts.weights.self_s", "experts.update.s", "experts.potential.self_s"],
    "regret_bounds": ["regret_bounds.aggregate.s", "regret_bounds.bound.s"],
    "polytopes": ["polytopes.project.s"],
    "component_iprod": ["component_iprod.play.self_s", "component_iprod.observe.s",
                        "component_iprod.comparator.s", "component_iprod.potential.s"],
}


def largest(m: dict, names: list[str]) -> str:
    return max(names, key=lambda n: m[n])


def design_checks(name: str, m: dict, horizon: int) -> list[tuple[str, bool]]:
    """The claims of the workload table, as (description, holds) pairs."""
    counts = [n for n, unit in run.PER_LAYER if unit == "count"]
    layer_s = {layer: sum(m[n] for n in parts) for layer, parts in LAYERS.items()}
    if name == "experts_cv":
        return [("numerics.quad.s has the largest self time",
                 largest(m, run.WALL_PARTS) == "numerics.quad.s")]
    if name == "experts_iprod":
        return [
            ("experts.weights.self_s has the largest self time",
             largest(m, run.WALL_PARTS) == "experts.weights.self_s"),
            (f"experts.weights.self_s is at least {IPROD_MIN_SHARE:.0%} of the traced wall",
             m["experts.weights.self_s"] >= IPROD_MIN_SHARE * m["trace.wall_s"]),
            ("numerics.quad.calls is 0", m["numerics.quad.calls"] == 0),
            ("regret_bounds.bound.calls is 0", m["regret_bounds.bound.calls"] == 0),
            ("experts.iprod.rows_summed is T(T-1)/2",
             m["experts.iprod.rows_summed"] == horizon * (horizon - 1) // 2),
        ]
    if name == "comb_dag":
        return [
            ("every experts.* and numerics.* count is 0",
             all(m[n] == 0 for n in counts if n.startswith(("experts.", "numerics.")))),
            ("polytopes.project.calls equals the rounds",
             m["polytopes.project.calls"] == horizon),
        ]
    if name == "experts_improper":
        return [
            ("regret_bounds is the largest non-harness layer",
             max(layer_s, key=layer_s.get) == "regret_bounds"),
            ("polytopes.project.calls is 0", m["polytopes.project.calls"] == 0),
        ]
    return []


def span_checks(path: Path) -> list[tuple[str, bool]]:
    with open(path) as fh:
        doc = json.load(fh)
    fields = doc["fields"]
    spans = {s[0]: dict(zip(fields, s)) for s in doc["spans"]}
    nested = all(
        s["parent"] is None
        or (spans[s["parent"]]["start"] <= s["start"] <= s["end"] <= spans[s["parent"]]["end"]
            and spans[s["parent"]]["run"] == s["run"])
        for s in spans.values()
    )
    roots = [s for s in spans.values() if s["parent"] is None]
    return [("every span lies inside its parent span", nested),
            ("the only root spans are whole runs", all(s["name"] == "harness_cli.run"
                                                       for s in roots))]


def check_workload(name: str, root: Path, env: dict) -> list[tuple[str, bool]]:
    work = root / ".bench_work" / f"selftest-{os.getpid()}"
    children, spans = [], work / f"spans-{name}.json"
    try:
        for i in range(2):
            rundir = work / f"{name}-{i}"
            children.append(run.run_child(name, 1, 0.0, 1, rundir, spans, env, runs=1))
        results = span_checks(spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    recs = [c["layers"][0] for c in children]
    metrics = [run.layer_metrics(r) for r in recs]
    results.append(("work counts repeat exactly across two traced runs",
                    all(recs[0][k] == recs[1][k] for k in ("calls", "counts", "csv_bytes"))))
    results.append(("self times of all traced names add up to the wall",
                    all(math.isclose(sum(r["self_s"].values()), r["wall_s"], rel_tol=REL_TOL)
                        for r in recs)))
    results.append(("per-layer times plus harness_cli.self_s add up to the wall",
                    all(math.isclose(sum(m[n] for n in run.WALL_PARTS), m["trace.wall_s"],
                                     rel_tol=REL_TOL) for m in metrics)))
    results += design_checks(name, metrics[0], children[0]["horizon"])
    expected = run.recorded_digests()[name]["1"]
    results.append(("runs pass their checks and match the recorded digest",
                    all(run.check(c, expected)[1] == 0 for c in children)))
    return results


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "squint" / "__init__.py").is_file():
        print(f"error: {root} has no src/squint; run from the root of a squint checkout",
              file=sys.stderr)
        return 2
    env = run.machine_env(root)
    failures = 0
    for name in workloads.load():
        for what, ok in check_workload(name, root, env):
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {what}", flush=True)
    print("selftest passed" if not failures else f"selftest: {failures} checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

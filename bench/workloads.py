"""Workload definitions: expand the data in workloads.json into squint configs.

Stdlib only, so the parent process can build configs without importing
numpy or squint.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUTPUT = {"csv": "run.csv", "summary": "run.json"}


def load() -> dict:
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)["workloads"]


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """Evenly spaced floats from lo to hi inclusive, as numpy.linspace gives them."""
    if n == 1:
        return [float(lo)]
    step = (hi - lo) / (n - 1)
    vals = [lo + i * step for i in range(n)]
    vals[-1] = float(hi)
    return vals


def grid_dag(n: int) -> dict:
    """The n-by-n grid DAG: edges go right or down, source 0_0, sink (n-1)_(n-1)."""
    nodes = [f"{r}_{c}" for r in range(n) for c in range(n)]
    edges = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                edges.append((f"{r}_{c}", f"{r}_{c + 1}"))
            if r + 1 < n:
                edges.append((f"{r}_{c}", f"{r + 1}_{c}"))
    return {
        "nodes": nodes,
        "edges": [{"from": a, "to": b, "index": i + 1} for i, (a, b) in enumerate(edges)],
        "source": "0_0",
        "sink": f"{n - 1}_{n - 1}",
    }


def config(spec: dict, seed: int) -> dict:
    """The squint config of one workload at one seed (outputs relative to the run dir)."""
    doc = copy.deepcopy(spec["config"])
    env = doc["environment"]
    env["seed"] = int(seed)
    means = env.get("means")
    if isinstance(means, dict):
        lo, hi = means["linspace"]
        env["means"] = linspace(lo, hi, doc["num_experts"])
    cc = doc.get("concept_class")
    if cc is not None and isinstance(cc.get("dag"), dict) and "grid_dag" in cc["dag"]:
        cc["dag"] = grid_dag(int(cc["dag"]["grid_dag"]))
    doc["output"] = dict(OUTPUT)
    return doc

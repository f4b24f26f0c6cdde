"""Every benchmark workload still writes the bytes recorded in ``bench/digests.json``.

The benchmark counts a run whose CSV and summary digest differs from the
recorded one as failed.  These tests run each workload once at seed 0, in
process, through the benchmark's own ``child.one_run``, so that a change to
output bytes fails the test suite as well as the benchmark.  The bytes depend
on the platform's float kernels, so they skip on a machine whose Python,
numpy or BLAS version differs from the one the digests were recorded with.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
RECORDED = json.loads((BENCH / "digests.json").read_text())
WORKLOADS = sorted(json.loads((BENCH / "workloads.json").read_text())["workloads"])


@pytest.fixture
def child(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module("child")
    here, recorded = module.machine(), RECORDED["machine"]
    for key in ("python", "numpy", "openblas"):
        if here[key] != recorded[key]:
            pytest.skip(f"digests were recorded with {key} {recorded[key]}, not {here[key]}")
    return module


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_0_output_matches_recorded_digest(child, name, tmp_path, monkeypatch):
    workloads = importlib.import_module("workloads")
    doc = workloads.config(workloads.load()[name], 0)
    assert doc["output"] == {"csv": "run.csv", "summary": "run.json"}
    (tmp_path / "config.json").write_text(json.dumps(doc, sort_keys=True))
    monkeypatch.chdir(tmp_path)
    run = child.one_run()
    assert run["problems"] == []
    assert run["digest"] == RECORDED["digests"][name]["0"]

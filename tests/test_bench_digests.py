"""Every benchmark workload still writes the bytes recorded in ``bench/digests.json``.

The benchmark counts a run whose CSV and summary digest differs from the
recorded one as failed.  These tests run each workload once at seed 0, in
process, through the benchmark's own ``child.one_run``, so that a change to
output bytes fails the test suite as well as the benchmark.  The two
workloads that run the adaptive quadrature, ``experts_cv`` and
``experts_improper``, also run at seeds 1-3, whose subdivision patterns
differ from seed 0's.  ``experts_iprod`` and ``comb_dag`` also run at seed 1,
the seed ``bench/run.py`` runs by default.  Seed 0, and seed 1 of those two,
run again with the CSV formatted in process, as on a machine with one CPU,
so both writer paths are pinned.  The bytes depend on the platform's float
kernels, so they skip on a machine whose Python, numpy or BLAS version
differs from the one the digests were recorded with.
"""

import importlib
import json
import os
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


def check_digest(child, name, seed, tmp_path, monkeypatch):
    workloads = importlib.import_module("workloads")
    doc = workloads.config(workloads.load()[name], seed)
    assert doc["output"] == {"csv": "run.csv", "summary": "run.json"}
    (tmp_path / "config.json").write_text(json.dumps(doc, sort_keys=True))
    monkeypatch.chdir(tmp_path)
    run = child.one_run()
    assert run["problems"] == []
    assert run["digest"] == RECORDED["digests"][name][str(seed)]


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_0_output_matches_recorded_digest(child, name, tmp_path, monkeypatch):
    check_digest(child, name, 0, tmp_path, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["experts_cv", "experts_improper"])
def test_quadrature_output_matches_recorded_digest(child, name, seed, tmp_path, monkeypatch):
    check_digest(child, name, seed, tmp_path, monkeypatch)


def format_in_process(child, monkeypatch):
    def no_fork():
        raise AssertionError("forked a CSV writer")

    monkeypatch.setattr(child.hc, "_spare_cpu", lambda: False)
    monkeypatch.setattr(os, "fork", no_fork)


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_0_output_formatted_in_process_matches_recorded_digest(
    child, name, tmp_path, monkeypatch
):
    format_in_process(child, monkeypatch)
    check_digest(child, name, 0, tmp_path, monkeypatch)


# the seed bench/run.py runs by default, for the two workloads without quadrature
BENCH_SEED_RUNS = [("experts_iprod", 1), ("comb_dag", 1)]


@pytest.mark.parametrize("name, seed", BENCH_SEED_RUNS)
def test_bench_seed_output_matches_recorded_digest(child, name, seed, tmp_path, monkeypatch):
    check_digest(child, name, seed, tmp_path, monkeypatch)


@pytest.mark.parametrize("name, seed", BENCH_SEED_RUNS)
def test_bench_seed_output_formatted_in_process_matches_recorded_digest(
    child, name, seed, tmp_path, monkeypatch
):
    format_in_process(child, monkeypatch)
    check_digest(child, name, seed, tmp_path, monkeypatch)

"""The benchmark's layer tracer still finds every library function it wraps.

``bench/tracer.py`` swaps module attributes of the library by name, so a
renamed or deleted function only shows up when a traced benchmark run
starts (``install`` raises ``KeyError``).  These tests install the tracer,
drive a small traced run through it, and check that ``uninstall`` puts every
original back.
"""

import importlib
from pathlib import Path

import pytest

from squint.component_iprod import learning_rate_grid
from squint.harness_cli import parse_config, run_experiment

from test_harness_cli import comb_config
from test_polytopes import DIAMOND

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def test_install_wraps_every_target_and_uninstall_restores(tracer):
    keys = [(owner, attr) for owner, attr, *_ in tracer.TARGETS]
    before = {(id(owner), attr): owner.__dict__.get(attr) for owner, attr in keys}
    t = tracer.Tracer()
    t.install()
    try:
        for owner, attr in keys:
            assert owner.__dict__[attr].__wrapped__ is before[id(owner), attr], attr
    finally:
        t.uninstall()
    for owner, attr in keys:
        assert owner.__dict__[attr] is before[id(owner), attr], attr


def test_traced_combinatorial_run_counts_each_layer(tracer, tmp_path):
    horizon = 6
    cfg = parse_config(
        comb_config(
            tmp_path, concept_class={"kind": "dag_paths", "dag": DIAMOND}, horizon=horizon
        )
    )
    t = tracer.Tracer()
    t.install()
    try:
        t.traced_run(run_experiment, cfg)
    finally:
        t.uninstall()
    assert t.calls["component_iprod.play"] == horizon
    assert t.calls["component_iprod.observe"] == horizon
    # one projected row per grid learning rate per round
    assert t.counts["polytopes.project.rows"] == horizon * learning_rate_grid(cfg.t_max).size

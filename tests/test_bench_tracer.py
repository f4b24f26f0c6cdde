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

from test_harness_cli import comb_config, experts_config
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


# Calls per layer at K = 3, horizon 6 and potential_every 2: one weight rule
# a round; three kernels per closed-form rule or potential, plus the
# conjugate normalizer; one quadrature per CV rule or quadrature potential;
# one batched theorem call a round, plus one for the near-best set.
EXPERTS_COUNTS = {
    "improper": ({"kind": "improper"}, dict(weights=6, kernel=18, quad=3, potential=3, bound=7)),
    "cv": ({"kind": "cv"}, dict(weights=6, quad=9, potential=3, bound=7)),
    "conjugate": ({"kind": "conjugate", "a": 0.5, "b": 2.0}, dict(weights=6, kernel=30, potential=3)),
    "grid": ({"kind": "grid", "etas": [0.5, 0.25, 0.125]}, dict(weights=6, potential=3)),
}
LAYERS = {
    "weights": "experts.weights",
    "kernel": "numerics.kernel",
    "quad": "numerics.quad",
    "potential": "experts.potential",
    "bound": "regret_bounds.bound",
}


@pytest.mark.parametrize("prior", list(EXPERTS_COUNTS))
def test_traced_experts_run_counts_each_layer(tracer, tmp_path, prior):
    doc, want = EXPERTS_COUNTS[prior]
    cfg = parse_config(
        experts_config(
            tmp_path,
            horizon=6,
            algorithm={"name": "squint", "prior": doc},
            report={"singletons": True, "near_best_fraction": 0.1},
            potential_every=2,
        )
    )
    t = tracer.Tracer()
    t.install()
    try:
        t.traced_run(run_experiment, cfg)
    finally:
        t.uninstall()
    got = {short: t.calls.get(name, 0) for short, name in LAYERS.items()}
    assert got == {short: want.get(short, 0) for short in LAYERS}

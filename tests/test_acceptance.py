"""Acceptance suite: every guarantee checked at its stated tolerance.

Each criterion prints one PASS line (visible with ``pytest -s``) including
its wall time; a FAIL surfaces as an ordinary assertion error.  The heavy
game sweeps (criteria 2/3 and 6) run once in module-scoped fixtures shared
by the tests that consume them.
"""

import json
import math
import time

import numpy as np
import pytest

from squint import component_iprod as ci
from squint import experts as ex
from squint import regret_bounds as rb
from squint.harness_cli import (
    gen_adversarial_shift,
    gen_stochastic,
    gen_uniform_signed,
    parse_config,
    run_experiment,
)
from squint.numerics import QuadratureSpec, log_eta_exp_integral, log_exp_integral, logsumexp
from squint.polytopes import DagPaths, KSubsets, ExplicitVertices

from oracles import ComponentBayes, dual_sweep_subset_projection, lemma4_check, mix_loss
from test_polytopes import DIAMOND, six_node_dag

HORIZON = 1000
NUM_SEEDS = 100
K_VALUES = (2, 5, 10)
POTENTIAL_EVERY = 10
CV_SPEC = QuadratureSpec(0.0, 0.5, abs_tol=1e-10, rel_tol=1e-8)


def _report(num: int, title: str, started: float, budget: str) -> None:
    print(f"CRITERION {num:2d}: PASS - {title} ({time.perf_counter() - started:.1f}s, budget {budget})")


def _stream(seed: int, k: int, horizon: int = HORIZON) -> np.ndarray:
    """Deterministic mix of stochastic and shifting-best-expert streams."""
    if seed % 2 == 0:
        means = np.random.Generator(np.random.Philox(key=10_000 + seed)).uniform(size=k)
        return gen_stochastic(k, means, seed=seed, horizon=horizon)
    return gen_adversarial_shift(
        k, segment_length=25 + 37 * (seed % 7), seed=seed, horizon=horizon,
        noise=0.1 * (seed % 3),
    )


def _softmax_rows(log_w: np.ndarray) -> np.ndarray:
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


class LockstepRuns:
    """All seeds of one (prior, K) cell advanced in lockstep.

    Weight rules and potential terms are the production functions applied to
    stacked per-game statistics; trajectories of the sampled potential and
    the final statistics are retained for the bound checks.
    """

    def __init__(self, kind: str, k: int):
        self.kind = kind
        self.k = k
        self.regret = np.zeros((NUM_SEEDS, k))
        self.variance = np.zeros((NUM_SEEDS, k))
        self.cum_loss = np.zeros((NUM_SEEDS, k))
        self.grid_prior = ex.DiscreteGridPrior.uniform_on(2.0 ** -np.arange(1, 33))
        self.potentials = []  # list of (t, per-game array)

    def _weights(self) -> np.ndarray:
        r, v = self.regret, self.variance
        if self.kind == "cv":
            lw = ex.cv_log_integrals(r.ravel(), v.ravel(), CV_SPEC).reshape(r.shape)
        elif self.kind == "grid":
            etas, masses = self.grid_prior.etas, self.grid_prior.masses
            g = r[:, :, None] * etas - v[:, :, None] * etas * etas
            lw = logsumexp(g + np.log(masses * etas), axis=2)
        else:
            fn = log_exp_integral if self.kind == "improper" else log_eta_exp_integral
            pairs = zip(r.ravel().tolist(), v.ravel().tolist())
            lw = np.array([fn(ri, vi) for ri, vi in pairs]).reshape(r.shape)
        return _softmax_rows(lw)

    def _potential(self) -> np.ndarray:
        r, v = self.regret, self.variance
        if self.kind == "conjugate":
            pairs = zip(r.ravel().tolist(), v.ravel().tolist())
            log_terms = np.array([log_exp_integral(ri, vi) for ri, vi in pairs]).reshape(r.shape)
            return np.expm1(logsumexp(log_terms - math.log(self.k), axis=1) - math.log(0.5))
        if self.kind == "improper":
            terms = ex.improper_potential_terms(r.ravel(), v.ravel()).reshape(r.shape)
            return terms.mean(axis=1)
        if self.kind == "cv":
            terms = ex.cv_potential_terms(r.ravel(), v.ravel()).reshape(r.shape)
            return terms.mean(axis=1)
        etas, masses = self.grid_prior.etas, self.grid_prior.masses
        g = r[:, :, None] * etas - v[:, :, None] * etas * etas
        lse = logsumexp(
            (g + np.log(masses)).reshape(NUM_SEEDS, -1) - math.log(self.k), axis=1
        )
        return np.expm1(lse)

    def run(self, losses: np.ndarray) -> None:
        for t in range(HORIZON):
            w = self._weights()
            loss_t = losses[:, t, :]
            alg = np.sum(w * loss_t, axis=1, keepdims=True)
            inst = alg - loss_t
            self.regret += inst
            self.variance += inst * inst
            self.cum_loss += loss_t
            if (t + 1) % POTENTIAL_EVERY == 0:
                self.potentials.append((t + 1, self._potential()))


@pytest.fixture(scope="module")
def expert_runs():
    started = time.perf_counter()
    losses = {
        k: np.stack([_stream(s, k) for s in range(NUM_SEEDS)]) for k in K_VALUES
    }
    cells = {}
    for kind in ("conjugate", "improper", "cv", "grid"):
        for k in K_VALUES:
            cell = LockstepRuns(kind, k)
            cell.run(losses[k])
            cells[kind, k] = cell
    return {"cells": cells, "elapsed": time.perf_counter() - started}


def test_criterion_01_prod_inequality():
    started = time.perf_counter()
    x = np.linspace(-0.5, 10.0, 10**5)
    violation = np.max(np.expm1(x - x * x) - x)
    assert violation <= 0.0, f"max violation {violation}"
    _report(1, "product inequality e^(x-x^2)-1 <= x on [-1/2, 10]", started, "<1s")


def test_criterion_02_potential_nonpositive_decreasing(expert_runs):
    started = time.perf_counter()
    for (kind, k), cell in expert_runs["cells"].items():
        prev = np.zeros(NUM_SEEDS)
        for t, phi in cell.potentials:
            assert np.max(phi) <= 1e-9, f"{kind} K={k} t={t}: potential {phi.max()}"
            assert np.max(phi - prev) <= 1e-9, f"{kind} K={k} t={t}: potential increased"
            prev = phi
    _report(
        2,
        f"potential <= 1e-9 and non-increasing, {NUM_SEEDS} streams x K in "
        f"{K_VALUES} x T={HORIZON} x 4 priors (sweep {expert_runs['elapsed']:.0f}s)",
        started,
        "<5min incl. criterion 3",
    )


def test_criterion_03_expert_bounds_hold(expert_runs):
    started = time.perf_counter()
    checks = 0
    for (kind, k), cell in expert_runs["cells"].items():
        if kind == "grid":
            continue
        for g in range(NUM_SEEDS):
            best = cell.cum_loss[g].min()
            near = np.flatnonzero(cell.cum_loss[g] <= best + 0.1 * HORIZON)
            subsets = [[i] for i in range(k)] + [list(near)]
            for subset in subsets:
                mass = len(subset) / k
                r_agg = float(cell.regret[g][subset].mean())
                v_agg = float(cell.variance[g][subset].mean())
                if kind == "conjugate":
                    bound = rb.bound_theorem1(v_agg, mass)
                elif kind == "improper":
                    bound = rb.bound_theorem3(v_agg, mass, HORIZON)
                else:
                    bound = rb.bound_theorem2(v_agg, mass)
                assert r_agg <= bound, (
                    f"{kind} K={k} seed={g} subset={subset}: {r_agg} > {bound}"
                )
                checks += 1
    _report(3, f"theorem bounds hold for {checks} subset audits, zero violations", started, "in criterion 2 budget")


def _simpson_pair(r: float, v: float, panels: int = 10**6) -> tuple[float, float]:
    eta = np.linspace(0.0, 0.5, panels + 1)
    f = np.exp(eta * r - eta * eta * v)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = 0.5 / panels
    return h / 3.0 * float(w @ f), h / 3.0 * float(w @ (eta * f))


def test_criterion_04_closed_form_vs_quadrature():
    started = time.perf_counter()
    r_grid = np.linspace(-50.0, 50.0, 20)
    v_grid = np.linspace(0.1, 100.0, 20)
    n_in = n_out = 0
    for r in r_grid:
        for v in v_grid:
            plain_oracle, eta_oracle = _simpson_pair(r, v)
            inside = -12.0 * math.sqrt(v) <= r <= v + 12.0 * math.sqrt(v)
            plain = math.exp(log_exp_integral(r, v))
            if inside:
                etaw = math.exp(log_eta_exp_integral(r, v))
                assert abs(plain - plain_oracle) <= 1e-6 * plain_oracle, (r, v)
                assert abs(etaw - eta_oracle) <= 1e-6 * eta_oracle, (r, v)
                n_in += 1
            else:
                assert abs(plain - plain_oracle) <= 1e-3 * plain_oracle, (r, v)
                n_out += 1
    _report(
        4,
        f"weight integrals vs 1e6-panel Simpson: {n_in} in-window points at 1e-6, "
        f"{n_out} outside at 1e-3",
        started,
        "<1min",
    )


def test_criterion_05_mix_loss_regret():
    started = time.perf_counter()
    horizon = 200
    for cls_idx, cls in enumerate((KSubsets(6, 3), DagPaths.from_json(DIAMOND))):
        k = cls.num_components
        prior = np.full(k, 0.5)
        verts = cls.vertices()
        for eta in ci.learning_rate_grid(horizon):
            for seed in range(3):
                rng = np.random.Generator(np.random.Philox(key=500 + 17 * cls_idx + seed))
                learner = ComponentBayes(cls, prior)
                cum_mix = 0.0
                cum_linear = np.zeros(len(verts))
                for _ in range(horizon):
                    u = learner.play()
                    r_pair = rng.uniform(-1.0, 1.0, (2, k))
                    x1 = -np.log1p(eta * r_pair[0])
                    x0 = -np.log1p(eta * r_pair[1])
                    cum_mix += mix_loss(u, x1, x0)
                    cum_linear += verts @ x1 + (1.0 - verts) @ x0
                    learner.update(x1, x0)
                for v, lin in zip(verts, cum_linear):
                    gap = cum_mix - lin
                    assert gap <= rb.binary_relative_entropy(v, prior) + 1e-8
    _report(5, "mix-loss regret <= comparator entropy, all vertices and grid rates", started, "<30s")


@pytest.fixture(scope="module")
def comb_runs():
    started = time.perf_counter()
    results = []
    classes = [("k_subsets(6,3)", KSubsets(6, 3)), ("k_subsets(8,2)", KSubsets(8, 2)),
               ("six_node_dag", six_node_dag())]
    t_max = 512
    for name, cls in classes:
        k = cls.num_components
        for seed in range(20):
            losses = gen_uniform_signed(k, seed=7000 + seed, horizon=t_max)
            game = ci.make_game(cls, t_max=t_max)
            max_phi = -math.inf
            for t in range(t_max):
                ci.play(game)
                ci.observe(game, losses[t])
                max_phi = max(max_phi, ci.potential(game))
            results.append((name, cls, game, max_phi))
    return {"results": results, "t_max": t_max, "elapsed": time.perf_counter() - started}


def test_criterion_06_combinatorial_guarantees(comb_runs):
    started = time.perf_counter()
    t_max = comb_runs["t_max"]
    n_lemma4 = n_thm4 = 0
    for name, cls, game, max_phi in comb_runs["results"]:
        assert max_phi <= 1e-9, f"{name}: potential reached {max_phi}"
        verts = cls.vertices()
        for eta in game.etas:
            for v in verts:
                lhs, rhs = lemma4_check(game, float(eta), v)
                assert lhs <= rhs + 1e-8, f"{name} eta={eta}: {lhs} > {rhs}"
                n_lemma4 += 1
        for v in verts:
            r, var = ci.comparator_stats(game, v)
            entropy = rb.binary_relative_entropy(v, game.prior_vec)
            bound = rb.bound_theorem4(var, entropy, cls.num_components, t_max)
            assert r <= bound, f"{name}: {r} > {bound}"
            n_thm4 += 1
    _report(
        6,
        f"potential/per-rate/final guarantees on 60 runs (T={t_max}); "
        f"{n_lemma4} per-rate and {n_thm4} final-bound checks "
        f"(sweep {comb_runs['elapsed']:.0f}s)",
        started,
        "<5min",
    )


def test_criterion_07_grid_construction():
    started = time.perf_counter()
    np.testing.assert_allclose(ci.learning_rate_grid(8), [0.5, 0.25, 0.125, 0.0625])
    np.testing.assert_allclose(ci.learning_rate_grid(1), [0.5])
    for t in range(1, 2**16 + 1):
        want = 1
        while 2 ** (want - 1) < t:  # smallest n with 2^(n-1) >= t
            want += 1
        got = ci.learning_rate_grid(t).size
        assert got == want, f"T={t}: {got} != {want}"
    _report(7, "learning-rate grid sizes exact for T in 1..2^16", started, "<1s")


def test_criterion_08_projection_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    classes = [KSubsets(6, 3), KSubsets(8, 2), DagPaths.from_json(DIAMOND), six_node_dag()]
    for cls in classes:
        k = cls.num_components
        points = rng.uniform(0.01, 0.99, size=(1000, k))
        proj = cls.project_batch(points)
        again = cls.project_batch(proj)
        assert np.max(np.abs(again - proj)) <= 1e-9, "projection not idempotent"
        verts = cls.vertices()
        safe = np.clip(proj, 1e-12, 1.0 - 1e-12)
        for v in verts:
            before = -(np.log(points) @ v + np.log1p(-points) @ (1.0 - v))
            after = -(np.log(safe) @ v + np.log1p(-safe) @ (1.0 - v))
            assert np.max(after - before) <= 1e-8, "generalized Pythagorean violated"
        if isinstance(cls, KSubsets):
            for row in points[:1000]:
                want = dual_sweep_subset_projection(row, cls.subset_size)
                got = cls.project(row)
                assert np.max(np.abs(got - want)) <= 1e-6
    _report(8, "idempotence, Pythagorean inequality, dual-sweep agreement (4 classes x 1000 points)", started, "<30s")


def test_criterion_09_decomposition():
    started = time.perf_counter()
    rng = np.random.default_rng(888)
    classes = [KSubsets(6, 3), KSubsets(8, 2), DagPaths.from_json(DIAMOND), six_node_dag()]
    for cls in classes:
        verts = cls.vertices()
        weights = rng.dirichlet(np.ones(verts.shape[0]), size=1000)
        for w in weights:
            u = w @ verts
            d = cls.decompose(u)
            assert d.concepts.shape[0] <= 2 * cls.num_components
            assert np.all(d.weights >= 0.0) and abs(d.weights.sum() - 1.0) <= 1e-12
            assert np.max(np.abs(d.usage() - u)) <= 1e-8
    _report(9, "decomposition residual <= 1e-8, simplex weights, <= 2K concepts (4 classes x 1000 points)", started, "<30s")


def test_criterion_10_two_expert_reduction():
    started = time.perf_counter()
    horizon = 1000
    pi1 = 0.35
    rng = np.random.Generator(np.random.Philox(key=4242))
    game = ci.make_game(ExplicitVertices([[0.0], [1.0]]), prior_vec=np.array([pi1]), t_max=horizon)
    grid = ex.DiscreteGridPrior.uniform_on(ci.learning_rate_grid(horizon))
    log_products = np.zeros((grid.etas.size, 2))
    worst = 0.0
    for _ in range(horizon):
        u = ci.play(game)[0]
        w = ex.iprod_weights_grid(log_products, np.array([pi1, 1.0 - pi1]), grid)
        worst = max(worst, abs(u - w[0]))
        l1, l2 = rng.uniform(0.0, 1.0, 2)
        ci.observe(game, np.array([l1 - l2]))
        mix = w[0] * l1 + w[1] * l2
        log_products += ex.iprod_log_factors(np.array([mix - l1, mix - l2]), grid)
    assert worst <= 1e-10, f"max per-round gap {worst}"
    _report(10, f"single-component aggregation equals two-expert product weights (gap {worst:.1e})", started, "<5s")


def test_criterion_11_timelessness():
    started = time.perf_counter()
    k, horizon, n_zero = 5, 500, 50
    losses = gen_stochastic(k, np.linspace(0.15, 0.85, k), seed=321, horizon=horizon)
    positions = sorted(
        np.random.Generator(np.random.Philox(key=99)).integers(0, horizon, size=n_zero)
    )
    rules = {
        "conjugate": lambda s: ex.squint_weights_conjugate(s),
        "improper": ex.squint_weights_improper,
        "cv": lambda s: ex.squint_weights_cv(s, CV_SPEC),
        "grid": lambda s: ex.squint_weights_grid(s, ex.DiscreteGridPrior.uniform_on(2.0 ** -np.arange(1, 17))),
    }
    for name, rule in rules.items():
        base = ex.ExpertGameState.uniform(k)
        padded = ex.ExpertGameState.uniform(k)
        pos_iter = list(positions)
        worst = 0.0
        for t in range(horizon):
            while pos_iter and pos_iter[0] == t:
                pos_iter.pop(0)
                padded = ex.update(padded, rule(padded), np.zeros(k))
            wb = rule(base)
            wp = rule(padded)
            worst = max(worst, float(np.max(np.abs(wb - wp))))
            base = ex.update(base, wb, losses[t])
            padded = ex.update(padded, wp, losses[t])
        assert worst <= 1e-12, f"{name}: trajectories diverged by {worst}"
    _report(11, f"{n_zero} inserted zero-loss rounds leave all weight trajectories within 1e-12", started, "<5s")


def test_criterion_12_determinism(tmp_path):
    started = time.perf_counter()
    configs = [
        {
            "schema": "squint-experiment/1",
            "mode": "experts",
            "horizon": 60,
            "num_experts": 4,
            "algorithm": {"name": "squint", "prior": {"kind": "improper"}},
            "environment": {"name": "adversarial_shift", "segment_length": 13, "seed": 5},
            "report": {"singletons": True, "near_best_fraction": 0.1},
            "output": {"csv": str(tmp_path / "e.csv"), "summary": str(tmp_path / "e.json")},
        },
        {
            "schema": "squint-experiment/1",
            "mode": "combinatorial",
            "horizon": 40,
            "concept_class": {"kind": "dag_paths", "dag": DIAMOND},
            "algorithm": {"name": "component_iprod"},
            "environment": {"name": "uniform_signed", "seed": 9},
            "report": {"vertices": True},
            "output": {"csv": str(tmp_path / "c.csv"), "summary": str(tmp_path / "c.json")},
        },
    ]
    for doc in configs:
        run_experiment(parse_config(doc))
        first = {
            p: (tmp_path / p).read_bytes() for p in ("e.csv", "e.json", "c.csv", "c.json")
            if (tmp_path / p).exists()
        }
        run_experiment(parse_config(doc))
        for p, blob in first.items():
            assert (tmp_path / p).read_bytes() == blob, f"{p} differs between reruns"
    _report(12, "identical configs produce byte-identical CSV and summary outputs", started, "<10s")

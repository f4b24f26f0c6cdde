"""Batch experiment driver and command-line interface.

Runs a configured algorithm over a generated loss stream, writes one CSV row
per round (losses, weights or usage, audited regret/variance/bound columns,
sampled potential) plus a JSON summary, and flags any round where a measured
aggregate regret exceeds its guarantee.  Both modes share one run loop; a
per-mode learner supplies the play, the audited statistics with the
theorem's bound, and the potential.

Determinism is part of the contract: streams come from the counter-based
Philox generator keyed by the config seed, floats are serialized with
shortest round-trip repr, and JSON keys are sorted, so identical configs
produce byte-identical outputs.

Subcommands: ``run`` (config -> outputs), ``audit`` (re-verify an existing
CSV), ``enumerate`` (list a concept class's vertices), ``grid`` (print the
learning-rate grid for a horizon).  Exit status is 2 on a bound violation,
a failed invariant or a malformed config.  A nan regret or potential and a
nan or infinite bound are violations in ``run`` and ``audit`` alike.
``parse_config`` rejects a malformed config before the first round,
including keys of the other mode (``num_experts`` or ``prior_pi`` in
combinatorial mode, ``concept_class`` or ``prior_vec`` in experts mode),
wrong vector lengths, vectors holding objects, a loss stream of 2^53 cells
or more (horizon x K), output paths that are not two distinct non-empty
strings, a ``prior_pi`` off the simplex or with a zero entry, non-integer
counts, bad subsets, seeds, stream parameters, near-best fractions or
conjugate ``a``/``b`` (also one whose normalizer overflows), a malformed DAG
description (non-integer edge indices, duplicate node names), non-boolean
``report.singletons`` or ``report.vertices``, ``report.vertices`` on a class
with more than ``DEFAULT_VERTEX_CAP`` vertices, and a combinatorial
``algorithm.t_max`` below 1 or below ``horizon`` (Theorem 4 only covers a
grid tuned for the horizon).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, TextIO

import numpy as np

from . import component_iprod as ci
from . import experts as ex
from . import regret_bounds as rb
from .polytopes import DEFAULT_VERTEX_CAP, DagPaths, ExplicitVertices, KSubsets

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "gen_stochastic",
    "gen_adversarial_shift",
    "gen_uniform_signed",
    "generate_stream",
    "run_experiment",
    "audit_csv",
    "main",
]

SCHEMA = "squint-experiment/1"
SUMMARY_SCHEMA = "squint-summary/1"
_POTENTIAL_TOL = 1e-9  # a sampled potential above this (or nan) is a violation

class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""

def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))

def _no_text_or_bool(value) -> bool:
    """Whether value holds no string and no bool at any depth (numpy would convert both)."""
    if isinstance(value, (list, tuple)):
        return all(map(_no_text_or_bool, value))
    return not isinstance(value, (str, bool))

def _floats(value, name: str) -> np.ndarray:
    """``value`` as a float array; ValueError where it holds an object, a string or a bool."""
    if _no_text_or_bool(value):
        try:
            return np.asarray(value, dtype=float)
        except TypeError:
            pass
    raise ValueError(f"{name} must hold numbers, got {value!r}")

def _check_means(num_experts: int, means) -> np.ndarray:
    means = _floats(means, "means")
    if means.shape != (num_experts,):
        raise ValueError(f"means must have length {num_experts}")
    if not np.all((means >= 0.0) & (means <= 1.0)):  # nan fails too
        raise ValueError("means must lie in [0, 1]")
    return means

def _check_int(value, name: str, lo: int, hi: float = math.inf) -> int:
    """An integer (not a bool) with lo <= value < hi; ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value < hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
    return int(value)

def _check_real(value, name: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """A finite number (not a bool or string) in [lo, hi]; ValueError otherwise."""
    ok = isinstance(value, (int, float, np.number)) and not isinstance(value, bool)
    if not (ok and math.isfinite(value) and lo <= value <= hi):
        raise ValueError(f"{name} must be a finite number in [{lo}, {hi}], got {value!r}")
    return float(value)

def _check_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value

def _check_shift(segment_length: int, noise: float) -> None:
    _check_int(segment_length, "segment length", 1)
    _check_real(noise, "noise", 0.0, 1.0)

def gen_stochastic(num_experts: int, means, seed: int, horizon: int) -> np.ndarray:
    """Independent Bernoulli losses, coordinate k with the given mean."""
    means = _check_means(num_experts, means)
    draws = _rng(seed).random((horizon, num_experts))
    return (draws < means[None, :]).astype(float)

def gen_adversarial_shift(
    num_experts: int, segment_length: int, seed: int, horizon: int, noise: float = 0.0
) -> np.ndarray:
    """Rotating best expert: per segment one expert has loss 0, others 1.

    With ``noise`` > 0 each entry is flipped independently with that
    probability, keeping losses in {0, 1}.
    """
    _check_shift(segment_length, noise)
    t_idx = np.arange(horizon)
    best = (t_idx // segment_length) % num_experts
    losses = np.ones((horizon, num_experts))
    losses[t_idx, best] = 0.0
    if noise > 0.0:
        flips = _rng(seed).random((horizon, num_experts)) < noise
        losses = np.where(flips, 1.0 - losses, losses)
    return losses

def gen_uniform_signed(num_components: int, seed: int, horizon: int) -> np.ndarray:
    """Independent uniform losses on [-1, +1] (combinatorial mode)."""
    return _rng(seed).uniform(-1.0, 1.0, (horizon, num_components))

_ENV_PARAMS = {  # name -> (required, optional) parameters besides name and seed
    "stochastic": ({"means"}, set()),
    "adversarial_shift": ({"segment_length"}, {"noise"}),
    "uniform_signed": (set(), set()),
}

def generate_stream(env: dict, dim: int, horizon: int) -> np.ndarray:
    name = env["name"]
    if name == "stochastic":
        return gen_stochastic(dim, env["means"], env["seed"], horizon)
    if name == "adversarial_shift":
        return gen_adversarial_shift(
            dim, env["segment_length"], env["seed"], horizon, env.get("noise", 0.0)
        )
    if name == "uniform_signed":
        return gen_uniform_signed(dim, env["seed"], horizon)
    raise ConfigError(f"unknown environment {name!r}")

def _require_keys(doc: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(doc) - required - optional
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")

@dataclass
class ExperimentConfig:
    doc: dict
    mode: str
    horizon: int
    environment: dict
    algorithm: dict
    report: dict
    output_csv: str
    output_summary: str
    potential_every: int = 10
    num_experts: int | None = None
    prior_pi: np.ndarray | None = None
    prior: ex.LearningRatePrior | None = None
    concept_class: Any = None
    prior_vec: list | None = None
    t_max: int | None = None  # the learning-rate grid's horizon (component_iprod, iprod)

def _parse_concept_class(doc: dict):
    _require_keys(
        doc, {"kind"}, {"num_components", "subset_size", "dag", "vertices"}, "concept_class"
    )
    kind = doc["kind"]
    if kind == "k_subsets":
        _require_keys(doc, {"kind", "num_components", "subset_size"}, set(), "concept_class")
        return KSubsets(
            _check_int(doc["num_components"], "num_components", 1),
            _check_int(doc["subset_size"], "subset_size", 0),
        )
    if kind == "dag_paths":
        _require_keys(doc, {"kind", "dag"}, set(), "concept_class")
        return DagPaths.from_json(doc["dag"])
    if kind == "explicit":
        _require_keys(doc, {"kind", "vertices"}, set(), "concept_class")
        return ExplicitVertices(_floats(doc["vertices"], "vertices"))
    raise ConfigError(f"unknown concept class kind {kind!r}")

def _parse_prior(doc: dict) -> ex.LearningRatePrior:
    _require_keys(doc, {"kind"}, {"a", "b", "etas", "masses"}, "algorithm.prior")
    kind = doc["kind"]
    if kind == "conjugate":
        a = _check_real(doc.get("a", 0.0), "conjugate a")
        b = _check_real(doc.get("b", 0.0), "conjugate b (Theorem 1 needs b >= 0)", 0.0)
        try:
            rb.z_conjugate(a, b)  # Theorem 1's normalizer
        except OverflowError:
            raise ConfigError(f"conjugate prior normalizer overflows at a={a}, b={b}") from None
        return ex.ConjugatePrior(a=a, b=b)
    if kind == "improper":
        return ex.ImproperPrior()
    if kind == "cv":
        return ex.CVPrior()
    if kind == "grid":
        if "etas" not in doc:
            raise ConfigError("grid prior requires etas")
        etas = _floats(doc["etas"], "grid etas")
        if "masses" in doc:
            return ex.DiscreteGridPrior(etas=etas, masses=_floats(doc["masses"], "grid masses"))
        return ex.DiscreteGridPrior.uniform_on(etas)
    raise ConfigError(f"unknown prior kind {kind!r}")

def _report_subsets(report: dict, k: int) -> list[list[int]]:
    subsets = report.get("subsets", [])
    if not isinstance(subsets, list) or not all(isinstance(s, list) for s in subsets):
        raise ConfigError(f"report.subsets must be a list of expert index lists, got {subsets!r}")
    subsets = [sorted(set(_check_int(i, "subset index", 0, k) for i in s)) for s in subsets]
    if report.get("singletons", False):
        subsets += [[i] for i in range(k)]
    return subsets

_OTHER_MODE_KEYS = {  # mode -> the top-level keys only the other mode takes
    "experts": {"concept_class", "prior_vec"},
    "combinatorial": {"num_experts", "prior_pi"},
}

def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document; unknown keys anywhere are rejected.

    Everything that can be checked without playing a round is checked here,
    so a malformed config fails before the run starts.
    """
    _require_keys(
        doc,
        {"schema", "mode", "horizon", "environment", "algorithm", "output"},
        {"report", "potential_every", "num_experts", "prior_pi", "concept_class", "prior_vec"},
        "config",
    )
    if doc["schema"] != SCHEMA:
        raise ConfigError(f"unsupported schema {doc['schema']!r}, expected {SCHEMA!r}")
    mode = doc["mode"]
    if mode not in ("experts", "combinatorial"):
        raise ConfigError(f"unknown mode {mode!r}")
    foreign = sorted(set(doc) & _OTHER_MODE_KEYS[mode])
    if foreign:
        raise ConfigError(f"{mode} mode does not take {foreign}")
    horizon = _check_int(doc["horizon"], "horizon", 0)

    env = doc["environment"]
    _require_keys(env, {"name", "seed"}, {"means", "segment_length", "noise"}, "environment")
    if not isinstance(env["name"], str) or env["name"] not in _ENV_PARAMS:
        raise ConfigError(f"unknown environment {env['name']!r}")
    required, optional = _ENV_PARAMS[env["name"]]
    _require_keys(env, {"name", "seed"} | required, optional, f"environment {env['name']!r}")
    _check_int(env["seed"], "environment.seed", 0, 2**128)  # Philox's key range

    out = doc["output"]
    _require_keys(out, {"csv", "summary"}, set(), "output")
    paths = [out["csv"], out["summary"]]
    # open() would take an integer or a bool as a file descriptor
    if not all(isinstance(path, str) and path for path in paths):
        raise ConfigError(f"output.csv and output.summary must be non-empty strings, got {paths!r}")
    if os.path.abspath(paths[0]) == os.path.abspath(paths[1]):
        raise ConfigError(f"output.csv and output.summary must differ, got {paths!r}")

    cfg = ExperimentConfig(
        doc=doc,
        mode=mode,
        horizon=horizon,
        environment=env,
        algorithm=doc["algorithm"],
        report=doc.get("report", {}),
        output_csv=out["csv"],
        output_summary=out["summary"],
        # 0 disables sampling
        potential_every=_check_int(doc.get("potential_every", 10), "potential_every", 0),
    )

    algo = doc["algorithm"]
    if mode == "experts":
        if "num_experts" not in doc:
            raise ConfigError("experts mode requires num_experts")
        k = cfg.num_experts = _check_int(doc["num_experts"], "num_experts", 1)
        _require_keys(algo, {"name"}, {"prior", "eta", "grid_t_max"}, "algorithm")
        if algo["name"] == "squint":
            if "prior" not in algo:
                raise ConfigError("squint requires a prior")
            cfg.prior = _parse_prior(algo["prior"])
        elif algo["name"] == "hedge":
            if not _check_real(algo.get("eta"), "hedge eta", 0.0) > 0.0:
                raise ConfigError("hedge requires a positive eta")
        elif algo["name"] == "iprod":
            cfg.t_max = _check_int(algo.get("grid_t_max", max(horizon, 1)), "iprod grid_t_max", 1)
            ci.learning_rate_grid(cfg.t_max)
        else:
            raise ConfigError(f"unknown experts algorithm {algo['name']!r}")
        _require_keys(
            cfg.report, set(), {"subsets", "singletons", "near_best_fraction"}, "report"
        )
        _check_bool(cfg.report.get("singletons", False), "report.singletons")
        if cfg.report.get("near_best_fraction") is not None:
            _check_real(cfg.report["near_best_fraction"], "near_best_fraction", 0.0)
        if env["name"] == "uniform_signed":
            raise ConfigError("experts mode requires losses in [0, 1]")
        pi = doc.get("prior_pi")
        cfg.prior_pi = np.full(k, 1.0 / k) if pi is None else _floats(pi, "prior_pi")
        if cfg.prior_pi.shape != (k,):
            raise ConfigError(f"prior_pi must have length {k}")
        if not np.all(cfg.prior_pi > 0.0):
            # the weight rules take ln pi(k), and a subset audit needs prior mass
            raise ConfigError("prior_pi entries must be positive")
        start = ex.ExpertGameState.from_prior(cfg.prior_pi)  # checks the simplex
        for subset in _report_subsets(cfg.report, k):
            rb.aggregate_subset(start, subset)  # nonempty, in range, positive prior mass
    else:
        if "concept_class" not in doc:
            raise ConfigError("combinatorial mode requires concept_class")
        cfg.concept_class = _parse_concept_class(doc["concept_class"])
        k = cfg.concept_class.num_components
        cfg.prior_vec = doc.get("prior_vec")
        _require_keys(algo, {"name"}, {"t_max"}, "algorithm")
        if algo["name"] != "component_iprod":
            raise ConfigError(f"unknown combinatorial algorithm {algo['name']!r}")
        cfg.t_max = _check_int(algo.get("t_max", max(horizon, 1)), "algorithm.t_max", 1)
        ci.learning_rate_grid(cfg.t_max)
        if horizon > cfg.t_max:
            # Theorem 4 holds for the grid tuned to t_max, at horizons up to t_max
            raise ConfigError(f"horizon {horizon} exceeds algorithm.t_max {cfg.t_max}")
        _require_keys(cfg.report, set(), {"comparators", "vertices"}, "report")
        if _check_bool(cfg.report.get("vertices", False), "report.vertices"):
            count = cfg.concept_class.num_vertices()
            if count > DEFAULT_VERTEX_CAP:
                raise ConfigError(
                    f"report.vertices: {count} vertices exceed the cap {DEFAULT_VERTEX_CAP}"
                )
        vectors = cfg.report.get("comparators", [])
        if not isinstance(vectors, list):
            raise ConfigError(f"report.comparators must be a list of {k}-vectors, got {vectors!r}")
        for vec in vectors + ([] if cfg.prior_vec is None else [cfg.prior_vec]):
            vec = _floats(vec, "prior_vec and comparators")
            # written as "not good" so that a null or nan entry fails
            if vec.shape != (k,) or not np.all((vec >= 0.0) & (vec <= 1.0)):
                raise ConfigError(f"prior_vec and comparators must be {k}-vectors in [0, 1]")
    if horizon * k >= 2**53:  # one (horizon x k) float64 loss array; t stays an exact float
        raise ConfigError(f"horizon {horizon} x {k} loss cells reach 2^53")
    # the generators' own checks, without drawing (numpy.random is slow to import)
    if env["name"] == "stochastic":
        _check_means(k, env["means"])
    elif env["name"] == "adversarial_shift":
        _check_shift(env["segment_length"], env.get("noise", 0.0))
    return cfg

def _fmt(x: float) -> str:
    return repr(float(x))

def _record(entry: dict, regret: float, variance: float, bound: float | None) -> dict:
    """Add an audited item's statistics (and its verdict, if a bound applies)."""
    entry.update(regret=regret, variance=variance)
    if bound is not None:
        # a nan or infinite bound checks nothing, so it is a violation too
        entry.update(bound=bound, violated=not (regret <= bound < math.inf))
    return entry

def _items(stats: tuple) -> list[tuple]:
    """Audit arrays (regret, variance, bound or None) as one float tuple per item."""
    r, v, b = stats
    return list(zip(r.tolist(), v.tolist(), [None] * r.size if b is None else b.tolist()))

class _Experts:
    """Squint, Hedge or iProd on K experts, audited on prior-weighted subsets."""

    played = "w"

    def __init__(self, cfg: ExperimentConfig):
        k = self.dim = cfg.num_experts
        self.state = ex.ExpertGameState.from_prior(cfg.prior_pi)
        self.prior = cfg.prior
        self.theorem = None if cfg.prior is None else cfg.prior.bound  # f(V, pi mass, t)
        self.has_bound = self.theorem is not None
        self.subsets = _report_subsets(cfg.report, k)
        self.names = [f"S{j}" for j in range(len(self.subsets))]
        # row j: the prior conditioned on subset j, so (cond @ R)[j] is its aggregate regret
        pi = self.state.prior
        self.masses = np.array([float(pi[s].sum()) for s in self.subsets])
        self.cond = np.zeros((len(self.subsets), k))
        for row, subset, mass in zip(self.cond, self.subsets, self.masses):
            row[subset] = pi[subset] / mass
        self.near_best_fraction = cfg.report.get("near_best_fraction")
        self.grid = None
        algo = cfg.algorithm
        if algo["name"] == "squint":
            self._weights = lambda: ex.weights_for_prior(self.state, self.prior)
        elif algo["name"] == "hedge":
            eta = float(algo["eta"])
            self._weights = lambda: ex.hedge_weights(self.state, eta)
        else:
            grid = self.grid = ex.DiscreteGridPrior.uniform_on(ci.learning_rate_grid(cfg.t_max))
            # iProd's sufficient statistic: running sums of ln(1 + eta r_t)
            log_products = self.log_products = np.zeros((grid.etas.size, k))
            self._weights = lambda: ex.iprod_weights_grid(log_products, self.state.prior, grid)

    def step(self, loss: np.ndarray) -> tuple[int, np.ndarray]:
        w = self._weights()
        self.state = ex.update(self.state, w, loss)
        if self.grid is not None:
            self.log_products += ex.iprod_log_factors(self.state._round_regret, self.grid)
        return self.state.t, w

    def audit(self) -> tuple:
        """Arrays of every reported subset's regret, variance and bound (or None)."""
        state = self.state
        v = self.cond @ state.variance
        bound = None if self.theorem is None else self.theorem(v, self.masses, state.t)
        return self.cond @ state.regret, v, bound

    def potential(self) -> float | None:
        return None if self.prior is None else ex.potential(self.state, self.prior)

    def summary(self, stats: tuple | None) -> tuple[list[dict], dict | None]:
        """Audit entries from the final round's stats (None: no rounds) and the near-best set."""
        audits = [{"name": n, "subset": s} for n, s in zip(self.names, self.subsets)]
        if stats is None:
            return audits, None
        state, frac = self.state, self.near_best_fraction
        for entry, mass, item in zip(audits, self.masses.tolist(), _items(stats)):
            entry["pi_mass"] = mass
            _record(entry, *item)
        if frac is None:
            return audits, None
        best = float(state.cum_loss.min())
        members = [i for i in range(self.dim) if state.cum_loss[i] <= best + float(frac) * state.t]
        agg = rb.aggregate_subset(state, members)
        bound = None if self.theorem is None else self.theorem(agg.v_agg, agg.pi_mass, state.t)
        near_best = {"subset": members, "pi_mass": agg.pi_mass}
        return audits, _record(near_best, agg.r_agg, agg.v_agg, bound)

class _Combinatorial:
    """Component iProd over a concept class, audited on hull comparators (Theorem 4)."""

    played = "u"
    has_bound = True

    def __init__(self, cfg: ExperimentConfig):
        cls = cfg.concept_class
        self.dim = cls.num_components
        self.t_max = cfg.t_max
        prior_vec = None if cfg.prior_vec is None else np.asarray(cfg.prior_vec, dtype=float)
        self.game = ci.make_game(cls, prior_vec=prior_vec, t_max=cfg.t_max)
        comparators = list(cfg.report.get("comparators", []))
        if cfg.report.get("vertices", False):
            comparators += list(cls.vertices())
        # row j is comparator Cj; one comparator_stats call audits every row per round
        self.matrix = np.array(comparators, dtype=float).reshape(-1, self.dim)
        self.entropies = np.array(
            [rb.binary_relative_entropy(v, self.game.prior_vec) for v in self.matrix]
        )
        self.names = [f"C{j}" for j in range(len(self.matrix))]

    def step(self, loss: np.ndarray) -> tuple[int, np.ndarray]:
        u = ci.play(self.game)
        ci.observe(self.game, loss)
        return self.game.t, u

    def audit(self) -> tuple:
        """Arrays of every reported comparator's regret, variance and Theorem 4 bound."""
        r, v = ci.comparator_stats(self.game, self.matrix)
        return r, v, rb.bound_theorem4(v, self.entropies, self.dim, self.t_max)

    def potential(self) -> float:
        return ci.potential(self.game)

    def summary(self, stats: tuple | None) -> tuple[list[dict], None]:
        """Audit entries from the final round's stats; unbounded zeros before any round."""
        if stats is None:
            stats = ci.comparator_stats(self.game, self.matrix) + (None,)
        audits = [
            _record({"name": n, "comparator": v, "entropy": e}, *item)
            for n, v, e, item in zip(
                self.names, self.matrix.tolist(), self.entropies.tolist(), _items(stats)
            )
        ]
        return audits, None

def _run(cfg: ExperimentConfig, out: TextIO) -> dict:
    """Play and audit every round, writing each CSV line to ``out``; returns the summary."""
    learner = _Experts(cfg) if cfg.mode == "experts" else _Combinatorial(cfg)
    k = learner.dim
    losses = generate_stream(cfg.environment, k, cfg.horizon)

    header = ["t"] + [f"loss_{i + 1}" for i in range(k)]
    header += [f"{learner.played}_{i + 1}" for i in range(k)]
    for name in learner.names:
        header += [f"R_{name}", f"V_{name}"] + ([f"bound_{name}"] if learner.has_bound else [])
    header.append("potential")
    # no cell ever needs CSV quoting (float reprs, integers, "" and plain names)
    out.write(",".join(header) + "\n")

    stats = None
    any_violation = False
    max_potential = None
    for loss_t in losses:
        t, played = learner.step(loss_t)
        r, v, bound = learner.audit()
        audited = (r, v)
        if bound is not None:
            bound = np.broadcast_to(bound, r.shape)
            # a nan regret and a nan or infinite bound are violations
            if not np.all((r <= bound) & (bound < math.inf)):
                any_violation = True
            audited += (bound,)
        stats = (r, v, bound)
        # R, V[, bound] per item; tolist() gives Python floats, repr'd as by _fmt
        cells = np.concatenate((loss_t, played, np.column_stack(audited).ravel()))
        sample = cfg.potential_every > 0 and t % cfg.potential_every == 0
        phi = learner.potential() if sample else None
        if phi is None:
            potential = ""
        else:
            max_potential = phi if max_potential is None else max(max_potential, phi)
            if not phi <= _POTENTIAL_TOL:
                any_violation = True
            potential = _fmt(phi)
        out.write(f"{t},{','.join(map(repr, cells.tolist()))},{potential}\n")

    audits, near_best = learner.summary(stats)
    summary = dict(schema=SUMMARY_SCHEMA, config=cfg.doc, rounds=cfg.horizon, audits=audits)
    if near_best is not None:
        summary["near_best"] = near_best
        any_violation = any_violation or near_best.get("violated", False)
    summary.update(any_violation=any_violation, max_potential=max_potential)
    return summary

def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute a parsed config; writes the CSV and summary, returns the summary.

    The CSV is written line by line as the rounds are played.  A run that
    raises removes its partial CSV and writes no summary.
    """
    fh = open(cfg.output_csv, "w", newline="")
    try:
        with fh:
            summary = _run(cfg, fh)
    except BaseException:
        os.remove(cfg.output_csv)
        raise
    with open(cfg.output_summary, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return summary

def audit_csv(csv_path: str) -> tuple[bool, list[str]]:
    """Re-verify every bound column of an existing run CSV.

    Returns (ok, messages): ok is False iff in some row a regret column is
    not at most its bound column, a bound is infinite, or a sampled
    potential is not at most 1e-9; a nan in any of them counts as a
    violation.  Raises ``ValueError`` for a file with no header line or a
    row whose length differs from the header's (a truncated or otherwise
    malformed CSV).
    """
    problems = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{csv_path} has no header line")
        pairs = []
        for i, name in enumerate(header):
            if name.startswith("bound_"):
                target = "R_" + name[len("bound_"):]
                if target not in header:
                    problems.append(f"column {name} has no matching {target}")
                    continue
                pairs.append((header.index(target), i, name))
        phi_idx = header.index("potential") if "potential" in header else None
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"line {reader.line_num}: {len(row)} fields, the header has {len(header)}"
                )
            for r_idx, b_idx, name in pairs:
                if not float(row[r_idx]) <= float(row[b_idx]) < math.inf:
                    problems.append(f"t={row[0]}: R={row[r_idx]} fails {name}={row[b_idx]}")
            if phi_idx is not None and row[phi_idx] and not float(row[phi_idx]) <= _POTENTIAL_TOL:
                problems.append(f"t={row[0]}: potential={row[phi_idx]} exceeds {_POTENTIAL_TOL}")
    return (not problems, problems)

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="squint", description="run and audit online-prediction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")

    p_audit = sub.add_parser("audit", help="re-verify bounds in a run CSV")
    p_audit.add_argument("csv", help="path to a CSV produced by run")

    p_enum = sub.add_parser("enumerate", help="list a concept class's vertices")
    p_enum.add_argument("spec", help="path to a JSON concept-class spec")
    p_enum.add_argument("--cap", type=int, default=10**5)

    p_grid = sub.add_parser("grid", help="print the learning-rate grid for a horizon")
    p_grid.add_argument("horizon", type=int)

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
            cfg = parse_config(doc)
        except (OSError, json.JSONDecodeError, ConfigError, ValueError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return 2
        summary = run_experiment(cfg)
        print(json.dumps({"any_violation": summary["any_violation"]}, sort_keys=True))
        return 2 if summary["any_violation"] else 0

    if args.command == "audit":
        try:
            ok, problems = audit_csv(args.csv)
        except (OSError, ValueError) as err:
            print(f"audit error: {err}", file=sys.stderr)
            return 2
        for p in problems:
            print(p)
        print("OK" if ok else "VIOLATIONS FOUND")
        return 0 if ok else 2

    if args.command == "enumerate":
        try:
            with open(args.spec) as fh:
                cls = _parse_concept_class(json.load(fh))
            verts = cls.vertices(cap=args.cap)
        except (OSError, json.JSONDecodeError, ConfigError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        for row in verts:
            print(",".join(str(int(x)) for x in row))
        return 0

    if args.command == "grid":
        try:
            etas = ci.learning_rate_grid(args.horizon)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        for eta in etas:
            print(_fmt(eta))
        return 0

    return 2

if __name__ == "__main__":
    sys.exit(main())

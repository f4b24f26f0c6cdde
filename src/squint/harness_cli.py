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

Given ``os.fork`` and a second CPU, ``run`` forks a writer that formats the
CSV from one float64 frame per round sent over a pipe, while the next
rounds play.  It calls no BLAS, so Python 3.12+'s fork warning is harmless.
A writer that fails is an output error (exit 2).

Subcommands: ``run`` (config -> outputs), ``audit`` (re-verify an existing
CSV), ``enumerate`` (list a concept class's vertices), ``grid`` (print the
learning-rate grid for a horizon).  Exit status is 2 on a bound violation,
a failed invariant, a malformed config, an output that cannot be opened or
a numerical error, which removes the outputs like any failed run.  A nan
regret or potential and a nan or infinite bound are violations in ``run``
and ``audit`` alike.  ``parse_config`` rejects a malformed config before
the first round: each named object has one table holding every key's check
and default, and the rules that tie keys together follow as code.  README
"CLI" lists the keys and what each check rejects.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from typing import Any, TextIO

import numpy as np

from . import component_iprod as ci
from . import experts as ex
from . import regret_bounds as rb
from .numerics import QuadratureError
from .polytopes import DEFAULT_VERTEX_CAP, DagPaths, ExplicitVertices, KSubsets, ProjectionError

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
_AUDIT_BLOCK = 16  # CSV lines per np.loadtxt call; 64 measured +1.5 MB of peak RSS on comb_dag

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
    _check_int(segment_length, "segment length", 1)
    _check_real(noise, "noise", 0.0, 1.0)
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

# A key table maps each key an object takes to (check, default).  check(value,
# where) returns the checked value or raises ValueError.  A key left out takes
# its default, which is a checked value already; one whose default is
# _REQUIRED must be given.
_REQUIRED = object()

def _as_given(value, where: str):
    """The check of a value that is parsed on its own: a nested object or a DAG description."""
    return value

def _or_null(check: Callable) -> Callable:
    """``check``, except that null stands for the default, None."""
    return lambda value, where: None if value is None else check(value, where)

def _path(value, where: str) -> str:
    if not (isinstance(value, str) and value):  # open() takes an integer or a bool as a descriptor
        raise ValueError(f"{where} must be a non-empty string, got {value!r}")
    return value

def _subsets(value, where: str) -> list[list[int]]:
    """Sorted, duplicate-free index lists; the range and the prior mass need K and prior_pi."""
    if not isinstance(value, list) or not all(isinstance(s, list) for s in value):
        raise ValueError(f"{where} must be a list of expert index lists, got {value!r}")
    return [sorted(set(_check_int(i, "subset index", 0) for i in s)) for s in value]

def _vectors(value, where: str) -> list[np.ndarray]:
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list of vectors, got {value!r}")
    return [_floats(vec, where) for vec in value]

def _require_keys(doc: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(doc) - required - optional
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")

def _checked(doc: dict, table: dict, where: str, named: frozenset = frozenset()) -> dict:
    """Each key of ``table``: doc's value, checked, or its default; doc may hold ``named`` too."""
    required = {key for key, (_, default) in table.items() if default is _REQUIRED}
    _require_keys(doc, required | named, set(table), where)
    return {key: check(doc[key], f"{where} {key}") if key in doc else default
            for key, (check, default) in table.items()}

def _require_named(doc: dict, key: str, tables: dict, where: str) -> tuple[str, dict]:
    """The name doc[key] and doc's values checked against that name's table."""
    _require_keys(doc, {key}, set().union(*tables.values()), where)
    name = doc[key]
    if not isinstance(name, str) or name not in tables:
        raise ConfigError(f"unknown {where} {key} {name!r}")
    return name, _checked(doc, tables[name], f"{where} {name!r}", {key})

def _conjugate(a: float, b: float) -> ex.ConjugatePrior:
    try:
        rb.z_conjugate(a, b)  # Theorem 1's normalizer
    except OverflowError:
        raise ConfigError(f"conjugate prior normalizer overflows at a={a}, b={b}") from None
    return ex.ConjugatePrior(a=a, b=b)

def _grid(etas: np.ndarray, masses: np.ndarray | None) -> ex.DiscreteGridPrior:
    grid = ex.DiscreteGridPrior
    return grid.uniform_on(etas) if masses is None else grid(etas=etas, masses=masses)

# per named object, name -> key table and name -> constructor of the checked values
_SEED = (partial(_check_int, lo=0, hi=2**128), _REQUIRED)  # Philox's key range
_ENV_PARAMS = {
    "stochastic": {"seed": _SEED, "means": (_floats, _REQUIRED)},  # means' length needs K
    "adversarial_shift": {
        "seed": _SEED,
        "segment_length": (partial(_check_int, lo=1), _REQUIRED),
        "noise": (partial(_check_real, lo=0.0, hi=1.0), 0.0),
    },
    "uniform_signed": {"seed": _SEED},
}
_GENERATORS = {
    "stochastic": gen_stochastic,
    "adversarial_shift": gen_adversarial_shift,
    "uniform_signed": gen_uniform_signed,
}
_PRIOR_PARAMS = {
    # Theorem 1's bound takes the square root of V + b
    "conjugate": {"a": (_check_real, 0.0), "b": (partial(_check_real, lo=0.0), 0.0)},
    "improper": {},
    "cv": {},
    "grid": {"etas": (_floats, _REQUIRED), "masses": (_floats, None)},  # None: uniform
}
_PRIORS = {"conjugate": _conjugate, "improper": ex.ImproperPrior, "cv": ex.CVPrior, "grid": _grid}
_CONCEPT_CLASS_PARAMS = {
    "k_subsets": {
        "num_components": (partial(_check_int, lo=1), _REQUIRED),
        "subset_size": (partial(_check_int, lo=0), _REQUIRED),
    },
    "dag_paths": {"dag": (_as_given, _REQUIRED)},  # DagPaths.from_json checks it
    "explicit": {"vertices": (_floats, _REQUIRED)},
}
_CONCEPT_CLASSES = {
    "k_subsets": KSubsets,
    "dag_paths": lambda dag: DagPaths.from_json(dag),
    "explicit": ExplicitVertices,
}

def generate_stream(env: dict, dim: int, horizon: int) -> np.ndarray:
    """The (horizon, dim) loss stream of an environment, checked against its table."""
    name, params = _require_named(env, "name", _ENV_PARAMS, "environment")
    return _GENERATORS[name](dim, horizon=horizon, **params)

def _parse_prior(doc: dict, where: str) -> ex.LearningRatePrior:
    kind, params = _require_named(doc, "kind", _PRIOR_PARAMS, where)
    return _PRIORS[kind](**params)

def _parse_concept_class(doc: dict, where: str = "concept_class"):
    kind, params = _require_named(doc, "kind", _CONCEPT_CLASS_PARAMS, where)
    return _CONCEPT_CLASSES[kind](**params)

_GRID_T_MAX = (partial(_check_int, lo=1), None)  # None: the horizon
_ALGORITHM_PARAMS = {  # per mode
    "experts": {
        "squint": {"prior": (_parse_prior, _REQUIRED)},
        "hedge": {"eta": (partial(_check_real, lo=math.ulp(0.0)), _REQUIRED)},  # positive
        "iprod": {"grid_t_max": _GRID_T_MAX},
    },
    "combinatorial": {"component_iprod": {"t_max": _GRID_T_MAX}},
}
_REPORT_PARAMS = {  # per mode
    "experts": {
        "subsets": (_subsets, []),
        "singletons": (_check_bool, False),
        "near_best_fraction": (_or_null(partial(_check_real, lo=0.0)), None),
    },
    "combinatorial": {"comparators": (_vectors, []), "vertices": (_check_bool, False)},
}
_OUTPUT_PARAMS = {"csv": (_path, _REQUIRED), "summary": (_path, _REQUIRED)}
_CONFIG_KEYS = {  # the top-level keys of both modes
    "schema": (_as_given, _REQUIRED),
    "mode": (_as_given, _REQUIRED),
    "horizon": (partial(_check_int, lo=0), _REQUIRED),
    "environment": (_as_given, _REQUIRED),
    "algorithm": (_as_given, _REQUIRED),
    "output": (_as_given, _REQUIRED),
    "report": (_as_given, {}),
    "potential_every": (partial(_check_int, lo=0), 10),  # 0 disables sampling
}
_CONFIG_PARAMS = {  # per mode
    "experts": {
        **_CONFIG_KEYS,
        "num_experts": (partial(_check_int, lo=1), _REQUIRED),
        "prior_pi": (_or_null(_floats), None),  # None: uniform
    },
    "combinatorial": {
        **_CONFIG_KEYS,
        "concept_class": (_parse_concept_class, _REQUIRED),
        "prior_vec": (_or_null(_floats), None),  # None: 1/2 per component
    },
}

@dataclass
class ExperimentConfig:
    """A parsed config: every value is checked, with its default filled in."""

    doc: dict  # the document as given, echoed by the summary
    mode: str
    horizon: int
    environment: dict  # the environment's name and checked values
    algorithm: str
    params: dict  # the algorithm's checked values
    report: dict
    output_csv: str
    output_summary: str
    potential_every: int
    num_experts: int | None = None
    prior_pi: np.ndarray | None = None
    subsets: list[list[int]] | None = None  # the audited expert subsets, singletons included
    concept_class: Any = None
    prior_vec: np.ndarray | None = None
    t_max: int | None = None  # the learning-rate grid's horizon (component_iprod, iprod)

def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document; unknown keys anywhere are rejected.

    Everything that can be checked without playing a round is checked here,
    so a malformed config fails before the run starts: each key against its
    table, then the rules between keys.
    """
    _require_keys(doc, {"schema", "mode"}, set().union(*_CONFIG_PARAMS.values()), "config")
    if doc["schema"] != SCHEMA:
        raise ConfigError(f"unsupported schema {doc['schema']!r}, expected {SCHEMA!r}")
    mode = doc["mode"]
    if not isinstance(mode, str) or mode not in _CONFIG_PARAMS:
        raise ConfigError(f"unknown mode {mode!r}")
    foreign = sorted(set(doc) - set(_CONFIG_PARAMS[mode]))
    if foreign:
        raise ConfigError(f"{mode} mode does not take {foreign}")
    top = _checked(doc, _CONFIG_PARAMS[mode], "config")
    horizon = top["horizon"]
    env_name, env = _require_named(top["environment"], "name", _ENV_PARAMS, "environment")
    name, params = _require_named(top["algorithm"], "name", _ALGORITHM_PARAMS[mode], "algorithm")
    report = _checked(top["report"], _REPORT_PARAMS[mode], "report")
    out = _checked(top["output"], _OUTPUT_PARAMS, "output")
    if os.path.abspath(out["csv"]) == os.path.abspath(out["summary"]):
        raise ConfigError(f"output.csv and output.summary must differ, got {out['csv']!r}")
    cfg = ExperimentConfig(
        doc=doc, mode=mode, horizon=horizon, environment={"name": env_name, **env},
        algorithm=name, params=params, report=report, output_csv=out["csv"],
        output_summary=out["summary"], potential_every=top["potential_every"],
    )
    if mode == "combinatorial" or name == "iprod":
        t_max = params["t_max" if mode == "combinatorial" else "grid_t_max"]
        cfg.t_max = max(horizon, 1) if t_max is None else t_max
        ci.learning_rate_grid(cfg.t_max)
    if mode == "experts":
        k = cfg.num_experts = top["num_experts"]
        if env_name == "uniform_signed":
            raise ConfigError("experts mode requires losses in [0, 1]")
        pi = cfg.prior_pi = np.full(k, 1.0 / k) if top["prior_pi"] is None else top["prior_pi"]
        if pi.shape != (k,):
            raise ConfigError(f"prior_pi must have length {k}")
        if not np.all(pi > 0.0):
            # the weight rules take ln pi(k), and a subset audit needs prior mass
            raise ConfigError("prior_pi entries must be positive")
        start = ex.ExpertGameState.from_prior(pi)  # checks the simplex
        cfg.subsets = report["subsets"] + ([[i] for i in range(k)] if report["singletons"] else [])
        for subset in cfg.subsets:
            rb.aggregate_subset(start, subset)  # nonempty, in range, positive prior mass
    else:
        cls = cfg.concept_class = top["concept_class"]
        k = cls.num_components
        if horizon > cfg.t_max:
            # Theorem 4 holds for the grid tuned to t_max, at horizons up to t_max
            raise ConfigError(f"horizon {horizon} exceeds algorithm.t_max {cfg.t_max}")
        count = cls.num_vertices() if report["vertices"] else 0
        if count > DEFAULT_VERTEX_CAP:
            raise ConfigError(f"report.vertices: {count} vertices exceed {DEFAULT_VERTEX_CAP}")
        cfg.prior_vec = top["prior_vec"]
        for vec in report["comparators"] + ([] if cfg.prior_vec is None else [cfg.prior_vec]):
            # written as "not good" so that a null or nan entry fails
            if vec.shape != (k,) or not np.all((vec >= 0.0) & (vec <= 1.0)):
                raise ConfigError(f"prior_vec and comparators must be {k}-vectors in [0, 1]")
    if horizon * k >= 2**53:  # one (horizon x k) float64 loss array; t stays an exact float
        raise ConfigError(f"horizon {horizon} x {k} loss cells reach 2^53")
    if env_name == "stochastic":
        _check_means(k, env["means"])
    return cfg

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
        self.subsets = cfg.subsets
        self.names = [f"S{j}" for j in range(len(self.subsets))]
        # row j: the prior conditioned on subset j, so (cond @ R)[j] is its aggregate regret
        pi = self.state.prior
        self.masses = np.array([float(pi[s].sum()) for s in self.subsets])
        self.cond = np.zeros((len(self.subsets), k))
        for row, subset, mass in zip(self.cond, self.subsets, self.masses):
            row[subset] = pi[subset] / mass
        # with no subset reported, every round's audit returns this one empty array
        self.no_subsets = None if self.subsets else np.empty(0)
        self.near_best_fraction = cfg.report["near_best_fraction"]
        self.prior = self.theorem = self.grid = None
        if cfg.algorithm == "squint":
            self.prior = cfg.params["prior"]
            self.theorem = self.prior.bound  # f(V, pi mass, t), or None
            self._weights = lambda: ex.weights_for_prior(self.state, self.prior)
        elif cfg.algorithm == "hedge":
            eta = cfg.params["eta"]
            self._weights = lambda: ex.hedge_weights(self.state, eta)
        else:
            grid = self.grid = ex.DiscreteGridPrior.uniform_on(ci.learning_rate_grid(cfg.t_max))
            # iProd's sufficient statistic: running sums of ln(1 + eta r_t)
            log_products = self.log_products = np.zeros((grid.etas.size, k))
            self._weights = lambda: ex.iprod_weights_grid(log_products, self.state.prior, grid)
        self.has_bound = self.theorem is not None

    def step(self, loss: np.ndarray) -> tuple[int, np.ndarray]:
        w = self._weights()
        self.state = ex.update(self.state, w, loss)
        if self.grid is not None:
            self.log_products += ex.iprod_log_factors(self.state._round_regret, self.grid)
        return self.state.t, w

    def audit(self) -> tuple:
        """Arrays of every reported subset's regret, variance and bound (or None)."""
        state = self.state
        if self.no_subsets is None:
            r, v = self.cond @ state.regret, self.cond @ state.variance
        else:  # what the two zero-size products would give
            r = v = self.no_subsets
        bound = None if self.theorem is None else self.theorem(v, self.masses, state.t)
        return r, v, bound

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
        self.game = ci.make_game(cls, prior_vec=cfg.prior_vec, t_max=cfg.t_max)
        comparators = list(cfg.report["comparators"])
        if cfg.report["vertices"]:
            comparators += list(cls.vertices())
        # row j is comparator Cj; one comparator_stats call audits every row per round
        self.matrix = np.array(comparators, dtype=float).reshape(-1, self.dim)
        self.entropies = rb.binary_relative_entropy(self.matrix, self.game.prior_vec)
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

def _write_frame(frame, out: TextIO) -> None:
    """Write the CSV line of one frame: t, the row's cells, then phi ("" when not sampled).

    A frame is anything whose ``tolist()`` gives its float64 cells: t, the
    row's cells, a sampled flag and phi.
    """
    cells = frame.tolist()
    phi = repr(cells[-1]) if cells[-2] else ""
    out.write(f"{int(cells[0])},{','.join(map(repr, cells[1:-2]))},{phi}\n")

def _spare_cpu() -> bool:
    """Whether os.fork exists and this process may run on more than one CPU."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1

@contextlib.contextmanager
def _line_writer(out: TextIO, width: int) -> Iterator[Callable]:
    """Yield ``write(frame)``, which puts the CSV line of one round's frame in ``out``.

    A frame is ``width`` float64 cells (t, the row's cells, a sampled flag,
    phi), free to refill once ``write`` returns.  ``_write_frame`` formats
    every line: in this process on one CPU, where a fork only adds work, and
    with a spare CPU in a forked writer that reads the frames from a pipe.
    The writer ends with ``os._exit``, so it flushes no inherited buffer but
    ``out``; it is reaped on every exit path, and one that exited nonzero
    raises ``OSError``.
    """
    if not _spare_cpu():
        yield lambda frame: _write_frame(frame, out)
        return
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(write_end)
            gc.disable()  # so no finalizer of an inherited object runs here
            with open(read_end, "rb") as frames:  # until end of file or a partial frame
                while len(frame := frames.read(8 * width)) == 8 * width:
                    _write_frame(memoryview(frame).cast("d"), out)
            out.flush()
            status = 0
        except Exception as err:
            os.write(2, f"CSV writer: {err!r}\n".encode())
        finally:
            os._exit(status)
    os.close(read_end)  # else a writer that died would leave this process blocked on a full pipe
    try:
        with open(write_end, "wb") as frames:
            yield frames.write
    except BrokenPipeError:
        pass  # the writer stopped early, so its exit status below is not 0
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise OSError(f"the CSV writer process exited with status {status}")

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
    out.flush()  # a writer process appends every later line to the same file

    frame = np.empty(len(header) + 1)  # the potential is a sampled flag and phi
    audited = frame[2 * k + 1 : -2].reshape(-1, 3 if learner.has_bound else 2).T  # R, V[, bound]
    stats = None
    any_violation = False
    max_potential = None
    with _line_writer(out, frame.size) as write:
        for loss_t in losses:
            t, played = learner.step(loss_t)
            r, v, bound = learner.audit()
            audited[0], audited[1] = r, v
            if bound is not None:
                bound = audited[2] = np.broadcast_to(bound, r.shape)
                # a nan regret and a nan or infinite bound are violations
                if not np.all((r <= bound) & (bound < math.inf)):
                    any_violation = True
            stats = (r, v, bound)
            sample = cfg.potential_every > 0 and t % cfg.potential_every == 0
            phi = learner.potential() if sample else None
            if phi is not None:
                # max() would keep a nan only when it comes first
                if max_potential is None or phi > max_potential or math.isnan(phi):
                    max_potential = phi
                if not phi <= _POTENTIAL_TOL:
                    any_violation = True
            frame[0], frame[1 : k + 1], frame[k + 1 : 2 * k + 1] = t, loss_t, played
            frame[-2:] = (0.0, 0.0) if phi is None else (1.0, phi)
            write(frame)

    audits, near_best = learner.summary(stats)
    summary = dict(schema=SUMMARY_SCHEMA, config=cfg.doc, rounds=cfg.horizon, audits=audits)
    if near_best is not None:
        summary["near_best"] = near_best
        any_violation = any_violation or near_best.get("violated", False)
    summary.update(any_violation=any_violation, max_potential=max_potential)
    return summary

def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute a parsed config; writes the CSV and summary, returns the summary.

    Both outputs are opened before the first round, and the CSV is written
    line by line as the rounds are played.  A run that raises, also on an
    output it cannot open, removes every output it opened.
    """
    opened = []
    try:
        with open(cfg.output_csv, "w", newline="") as out:
            opened.append(cfg.output_csv)
            with open(cfg.output_summary, "w") as fh:
                opened.append(cfg.output_summary)
                summary = _run(cfg, out)
                try:  # streamed: one string of the whole summary would hold all its chunks at once
                    json.dump(summary, fh, sort_keys=True, indent=1, allow_nan=False)
                except ValueError:  # nan or inf: start over, each as the string of its token
                    fh.seek(0)
                    fh.truncate()
                    strict = json.loads(json.dumps(summary), parse_constant=str)
                    json.dump(strict, fh, sort_keys=True, indent=1)
                fh.write("\n")
    except BaseException:
        for path in opened:
            os.remove(path)
        raise
    return summary

def _fields(line: str) -> list[str]:
    """The cells of one CSV line; a blank line has none, as ``csv.reader`` reads it."""
    text = line.rstrip("\r\n")
    return text.split(",") if text else []

def _csv_floats(lines: list[str], cols: list[int]) -> np.ndarray:
    """The given columns of CSV lines as a (lines, columns) float64 array."""
    return np.loadtxt(lines, delimiter=",", usecols=cols, ndmin=2, comments=None)

def _unreadable_cell(
    lines: list[str], first: int, cols: list[int], header: list[str]
) -> ValueError | None:
    """A ``ValueError`` naming the first cell of ``cols`` in ``lines`` that ``_csv_floats`` cannot read."""
    for n, line in enumerate(lines, first):
        try:
            _csv_floats([line], cols)
        except ValueError:
            for c in cols:
                try:
                    _csv_floats([line], [c])
                except ValueError:
                    return ValueError(f"line {n}: {header[c]}={_fields(line)[c]!r} is not a float")
    return None

def audit_csv(csv_path: str) -> tuple[bool, list[str]]:
    """Re-verify every bound column of an existing run CSV.

    Returns (ok, messages): ok is False iff in some row a regret column is
    not at most its bound column, a bound is infinite, or a sampled
    potential is not at most 1e-9; a nan in any of them counts as a
    violation.  Messages come row by row, and within a row the bound
    columns in header order, then the potential.  Raises ``ValueError``
    for a file with no header line, a row whose length differs from the
    header's (a truncated or otherwise malformed CSV), or a regret or bound
    cell that is not a float.

    The file is read as ``run`` writes it: comma-separated, unquoted, with
    the numbers in Python float syntax without underscores.  It is parsed
    in blocks of ``_AUDIT_BLOCK`` lines, one ``np.loadtxt`` call per block
    for the regret and bound columns, so memory is bounded by the block.
    """
    problems = []
    with open(csv_path, newline="") as fh:
        line = fh.readline()
        if not line:
            raise ValueError(f"{csv_path} has no header line")
        header = _fields(line)
        index = {}
        for i, name in enumerate(header):
            index.setdefault(name, i)  # the first column of a name, as header.index finds it
        pairs = []
        for i, name in enumerate(header):
            if name.startswith("bound_"):
                target = "R_" + name[len("bound_"):]
                if target not in index:
                    problems.append(f"column {name} has no matching {target}")
                    continue
                pairs.append((index[target], i, name))
        cols = [r_idx for r_idx, _, _ in pairs] + [b_idx for _, b_idx, _ in pairs]
        phi_idx = index.get("potential")
        phi_last = phi_idx == len(header) - 1
        first = 2  # the file line of the block's first line
        while block := list(itertools.islice(fh, _AUDIT_BLOCK)):
            for n, line in enumerate(block, first):
                # only a blank line starts with its terminator; it has no fields
                count = line.count(",") + 1 if line[0] not in "\r\n" else 0
                if count != len(header):
                    raise ValueError(f"line {n}: {count} fields, the header has {len(header)}")
            failed = [False] * len(block)
            if pairs:
                try:
                    values = _csv_floats(block, cols)
                except ValueError as err:
                    raise _unreadable_cell(block, first, cols, header) or err
                r, bound = values[:, : len(pairs)], values[:, len(pairs) :]
                # a nan regret and a nan or infinite bound are violations
                bad = ~((r <= bound) & (bound < math.inf))
                failed = bad.any(axis=1).tolist()
            for j, line in enumerate(block):
                if failed[j]:
                    row = _fields(line)
                    for p in np.flatnonzero(bad[j]).tolist():
                        r_idx, b_idx, name = pairs[p]
                        problems.append(f"t={row[0]}: R={row[r_idx]} fails {name}={row[b_idx]}")
                if phi_idx is None:
                    continue
                phi = line[line.rfind(",") + 1 :].rstrip("\r\n") if phi_last else _fields(line)[phi_idx]
                if phi and not float(phi) <= _POTENTIAL_TOL:
                    problems.append(f"t={_fields(line)[0]}: potential={phi} exceeds {_POTENTIAL_TOL}")
            first += len(block)
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
    p_enum.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)

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
        try:
            summary = run_experiment(cfg)
        except OSError as err:
            print(f"output error: {err}", file=sys.stderr)
            return 2
        except (OverflowError, ValueError, QuadratureError, ProjectionError) as err:
            print(f"numerical error: {err}", file=sys.stderr)
            return 2
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
        for eta in etas.tolist():
            print(repr(eta))
        return 0

    return 2

if __name__ == "__main__":
    sys.exit(main())

import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import squint.component_iprod as ci
import squint.experts as ex
import squint.harness_cli as hc
import squint.regret_bounds as rb
from squint.component_iprod import learning_rate_grid
from squint.numerics import QuadratureError
from squint.harness_cli import (
    ConfigError,
    audit_csv,
    gen_adversarial_shift,
    gen_stochastic,
    gen_uniform_signed,
    main,
    parse_config,
    run_experiment,
)

from oracles import iprod_weights_history
from test_polytopes import DIAMOND


def experts_config(tmp_path, **overrides):
    doc = {
        "schema": "squint-experiment/1",
        "mode": "experts",
        "horizon": 40,
        "num_experts": 3,
        "algorithm": {"name": "squint", "prior": {"kind": "improper"}},
        "environment": {"name": "stochastic", "means": [0.2, 0.5, 0.8], "seed": 11},
        "report": {"singletons": True, "near_best_fraction": 0.1},
        "output": {
            "csv": str(tmp_path / "run.csv"),
            "summary": str(tmp_path / "run.json"),
        },
        "potential_every": 10,
    }
    doc.update(overrides)
    return doc


def comb_config(tmp_path, **overrides):
    doc = {
        "schema": "squint-experiment/1",
        "mode": "combinatorial",
        "horizon": 30,
        "concept_class": {"kind": "k_subsets", "num_components": 4, "subset_size": 2},
        "algorithm": {"name": "component_iprod"},
        "environment": {"name": "uniform_signed", "seed": 5},
        "report": {"vertices": True},
        "output": {
            "csv": str(tmp_path / "comb.csv"),
            "summary": str(tmp_path / "comb.json"),
        },
    }
    doc.update(overrides)
    return doc


def expected_columns(prefix, k, items, bounds):
    cols = ["t"] + [f"loss_{i + 1}" for i in range(k)] + [f"{prefix}_{i + 1}" for i in range(k)]
    for name in items:
        cols += [f"R_{name}", f"V_{name}"] + ([f"bound_{name}"] if bounds else [])
    return cols + ["potential"]


SUBSET_KEYS = {"name", "subset", "pi_mass", "regret", "variance"}
COMPARATOR_KEYS = {"name", "comparator", "entropy", "regret", "variance"}
VERDICT_KEYS = {"bound", "violated"}
SINGLETONS = ["S0", "S1", "S2"]


def prior_config(kind, **prior):
    def make(tmp_path):
        return experts_config(
            tmp_path, algorithm={"name": "squint", "prior": {"kind": kind, **prior}}, horizon=20
        )

    return make


def multi_subsets_config(tmp_path, **overrides):
    """Multi-element subsets and singletons under a non-uniform prior."""
    doc = experts_config(
        tmp_path,
        prior_pi=[0.2, 0.3, 0.5],
        report={"subsets": [[0, 1], [0, 1, 2]], "singletons": True, "near_best_fraction": 0.1},
    )
    doc.update(overrides)
    return doc


# the middle coordinate pinned to 1, the other two free: a product set
PRODUCT_VERTICES = [[0, 1, 0], [0, 1, 1], [1, 1, 0], [1, 1, 1]]

# s -> m and n -> t lie on every path, so the projection pins them to 1
BRIDGED_DAG = {
    "nodes": ["s", "m", "a", "b", "n", "t"],
    "edges": [
        {"from": "s", "to": "m", "index": 1},
        {"from": "m", "to": "a", "index": 2},
        {"from": "m", "to": "b", "index": 3},
        {"from": "a", "to": "n", "index": 4},
        {"from": "b", "to": "n", "index": 5},
        {"from": "n", "to": "t", "index": 6},
    ],
    "source": "s",
    "sink": "t",
}

# run shape -> (config factory, expected CSV header, expected keys of every summary audit)
RUN_SHAPES = {
    "improper": (
        experts_config,
        expected_columns("w", 3, SINGLETONS, True),
        SUBSET_KEYS | VERDICT_KEYS,
    ),
    "conjugate": (
        prior_config("conjugate", a=0.5, b=2.0),
        expected_columns("w", 3, SINGLETONS, True),
        SUBSET_KEYS | VERDICT_KEYS,
    ),
    "cv": (
        prior_config("cv"),
        expected_columns("w", 3, SINGLETONS, True),
        SUBSET_KEYS | VERDICT_KEYS,
    ),
    "grid": (
        prior_config("grid", etas=[0.5, 0.25, 0.125]),
        expected_columns("w", 3, SINGLETONS, False),
        SUBSET_KEYS,
    ),
    "potential_off": (
        lambda tmp_path: experts_config(tmp_path, potential_every=0),
        expected_columns("w", 3, SINGLETONS, True),
        SUBSET_KEYS | VERDICT_KEYS,
    ),
    "explicit_class": (
        lambda tmp_path: comb_config(
            tmp_path,
            concept_class={"kind": "explicit", "vertices": PRODUCT_VERTICES},
            horizon=20,
        ),
        expected_columns("u", 3, ["C0", "C1", "C2", "C3"], True),
        COMPARATOR_KEYS | VERDICT_KEYS,
    ),
    "dag_bridges": (
        lambda tmp_path: comb_config(
            tmp_path, concept_class={"kind": "dag_paths", "dag": BRIDGED_DAG}, horizon=20
        ),
        expected_columns("u", 6, ["C0", "C1"], True),
        COMPARATOR_KEYS | VERDICT_KEYS,
    ),
    "combinatorial_zero_horizon": (
        lambda tmp_path: comb_config(tmp_path, horizon=0),
        expected_columns("u", 4, [f"C{j}" for j in range(6)], True),
        COMPARATOR_KEYS,
    ),
    "iprod": (
        lambda tmp_path: experts_config(tmp_path, algorithm={"name": "iprod"}),
        expected_columns("w", 3, SINGLETONS, False),
        SUBSET_KEYS,
    ),
    "iprod_grid_t_max": (
        lambda tmp_path: experts_config(tmp_path, algorithm={"name": "iprod", "grid_t_max": 500}),
        expected_columns("w", 3, SINGLETONS, False),
        SUBSET_KEYS,
    ),
    "hedge": (
        lambda tmp_path: experts_config(tmp_path, algorithm={"name": "hedge", "eta": 1.0}),
        expected_columns("w", 3, SINGLETONS, False),
        SUBSET_KEYS,
    ),
    "multi_subsets": (
        multi_subsets_config,
        expected_columns("w", 3, ["S0", "S1", "S2", "S3", "S4"], True),
        SUBSET_KEYS | VERDICT_KEYS,
    ),
    # no audited item, so no R/V columns: the experts_iprod benchmark shape
    "near_best_only": (
        lambda tmp_path: experts_config(
            tmp_path, algorithm={"name": "iprod"}, report={"near_best_fraction": 0.1}
        ),
        expected_columns("w", 3, [], False),
        SUBSET_KEYS,
    ),
}


class TestGenerators:
    def test_all_zero_and_all_one_means(self):
        z = gen_stochastic(3, [0.0, 0.0, 0.0], seed=1, horizon=50)
        o = gen_stochastic(3, [1.0, 1.0, 1.0], seed=1, horizon=50)
        assert np.all(z == 0.0)
        assert np.all(o == 1.0)

    def test_empirical_means_within_band(self):
        t = 10**5
        means = np.array([0.1, 0.5, 0.9])
        stream = gen_stochastic(3, means, seed=7, horizon=t)
        emp = stream.mean(axis=0)
        sigma = np.sqrt(means * (1 - means) / t)
        assert np.all(np.abs(emp - means) <= 3.0 * sigma)

    def test_shift_segments(self):
        stream = gen_adversarial_shift(3, segment_length=10, seed=0, horizon=60)
        for t in range(60):
            best = (t // 10) % 3
            assert stream[t, best] == 0.0
            assert stream[t].sum() == 2.0

    def test_single_segment_constant_best(self):
        stream = gen_adversarial_shift(4, segment_length=100, seed=0, horizon=100)
        assert np.all(stream[:, 0] == 0.0)
        assert np.all(stream[:, 1:] == 1.0)

    def test_signed_range_and_determinism(self):
        a = gen_uniform_signed(5, seed=2, horizon=100)
        b = gen_uniform_signed(5, seed=2, horizon=100)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.abs(a) <= 1.0)


def dag_config(**dag):
    """A combinatorial config on the one-edge DAG s -> t, with DAG keys overridden."""
    doc = {"nodes": ["s", "t"], "edges": [{"from": "s", "to": "t", "index": 1}]}
    doc.update(source="s", sink="t")
    doc.update(dag)
    return lambda tmp_path: comb_config(
        tmp_path, concept_class={"kind": "dag_paths", "dag": doc}, report={}
    )


# configs that must fail at parse time, before any round is played
MALFORMED = {
    "means_length": lambda tmp_path: experts_config(
        tmp_path, environment={"name": "stochastic", "means": [0.2, 0.5], "seed": 11}
    ),
    "means_missing": lambda tmp_path: experts_config(
        tmp_path, environment={"name": "stochastic", "seed": 11}
    ),
    "segment_length_zero": lambda tmp_path: experts_config(
        tmp_path, environment={"name": "adversarial_shift", "segment_length": 0, "seed": 11}
    ),
    "hedge_eta_nan": lambda tmp_path: experts_config(
        tmp_path, algorithm={"name": "hedge", "eta": math.nan}
    ),
    "iprod_grid_t_max_zero": lambda tmp_path: experts_config(
        tmp_path, algorithm={"name": "iprod", "grid_t_max": 0}
    ),
    "prior_pi_length": lambda tmp_path: experts_config(tmp_path, prior_pi=[0.5, 0.5]),
    "prior_pi_off_simplex": lambda tmp_path: experts_config(tmp_path, prior_pi=[0.5, 0.5, 0.5]),
    "empty_subset": lambda tmp_path: experts_config(tmp_path, report={"subsets": [[]]}),
    "subset_out_of_range": lambda tmp_path: experts_config(tmp_path, report={"subsets": [[0, 3]]}),
    "subset_zero_mass": lambda tmp_path: experts_config(
        tmp_path, prior_pi=[0.5, 0.5, 0.0], report={"subsets": [[2]]}
    ),
    # ln(0) in the improper and conjugate rules on round 1
    "prior_pi_zero_improper": lambda tmp_path: experts_config(
        tmp_path, prior_pi=[1.0, 0.0, 0.0], report={}
    ),
    # a near-best set of zero prior mass at the end of the run
    "prior_pi_zero_near_best": lambda tmp_path: experts_config(
        tmp_path,
        algorithm={"name": "hedge", "eta": 1.0},
        prior_pi=[0.0, 0.0, 1.0],
        report={"near_best_fraction": 0.1},
    ),
    # nan passes "p < 0" and "|sum - 1| > tol" alike, so the checks test "not good"
    "grid_masses_nan": prior_config("grid", etas=[0.5, 0.25], masses=[math.nan, 1.0]),
    "grid_etas_nan": prior_config("grid", etas=[math.nan, 0.25]),
    "prior_vec_length": lambda tmp_path: comb_config(tmp_path, prior_vec=[0.5, 0.5, 0.5]),
    "comparator_length": lambda tmp_path: comb_config(
        tmp_path, report={"comparators": [[0.5, 0.5, 0.5]]}
    ),
    "comparator_out_of_range": lambda tmp_path: comb_config(
        tmp_path, report={"comparators": [[0.5, 0.5, 0.5, 1.5]]}
    ),
    # null reads as nan, which passes "< 0" and "> 1" alike
    "comparator_null_entry": lambda tmp_path: comb_config(
        tmp_path, report={"comparators": [[None, 0.5, 0.5, 0.5]]}
    ),
    "prior_vec_null_entry": lambda tmp_path: comb_config(
        tmp_path, prior_vec=[None, 0.5, 0.5, 0.5]
    ),
    "prior_vec_nan_entry": lambda tmp_path: comb_config(
        tmp_path, prior_vec=[math.nan, 0.5, 0.5, 0.5]
    ),
    "horizon_above_t_max": lambda tmp_path: comb_config(
        tmp_path, algorithm={"name": "component_iprod", "t_max": 4}
    ),
    "t_max_zero": lambda tmp_path: comb_config(
        tmp_path, algorithm={"name": "component_iprod", "t_max": 0}
    ),
    # passed parse_config, then failed with a traceback sizing the loss stream
    "horizon_2_62": lambda tmp_path: experts_config(tmp_path, horizon=2**62),
    "horizon_2_51_k_subsets": lambda tmp_path: comb_config(tmp_path, horizon=2**51),
    # these used to pass parse_config, then fail with a traceback or a false violation
    **{
        f"near_best_fraction_{label}": lambda tmp_path, frac=frac: experts_config(
            tmp_path, report={"singletons": True, "near_best_fraction": frac}
        )
        for label, frac in [("negative", -1), ("nan", math.nan), ("string", "abc")]
    },
    **{
        f"seed_{label}": lambda tmp_path, seed=seed: experts_config(
            tmp_path, environment={"name": "stochastic", "means": [0.2, 0.5, 0.8], "seed": seed}
        )
        for label, seed in [("negative", -1), ("string", "x"), ("too_large", 2**128)]
    },
    "means_nan": lambda tmp_path: experts_config(
        tmp_path, environment={"name": "stochastic", "means": [0.2, math.nan, 0.8], "seed": 11}
    ),
    "subsets_not_lists": lambda tmp_path: experts_config(tmp_path, report={"subsets": 5}),
    "subset_fractional_index": lambda tmp_path: experts_config(
        tmp_path, report={"subsets": [[0.5]]}
    ),
    "noise_string": lambda tmp_path: experts_config(
        tmp_path,
        environment={"name": "adversarial_shift", "segment_length": 5, "noise": "x", "seed": 11},
    ),
    "segment_length_fractional": lambda tmp_path: experts_config(
        tmp_path, environment={"name": "adversarial_shift", "segment_length": 2.5, "seed": 11}
    ),
    "horizon_fractional": lambda tmp_path: experts_config(tmp_path, horizon=2.7),
    "potential_every_null": lambda tmp_path: experts_config(tmp_path, potential_every=None),
    "num_experts_null": lambda tmp_path: experts_config(tmp_path, num_experts=None),
    "hedge_eta_null": lambda tmp_path: experts_config(
        tmp_path, algorithm={"name": "hedge", "eta": None}
    ),
    "num_components_fractional": lambda tmp_path: comb_config(
        tmp_path, concept_class={"kind": "k_subsets", "num_components": 4.7, "subset_size": 2}
    ),
    "conjugate_a_nan": prior_config("conjugate", a=math.nan, b=1.0),
    "conjugate_b_nan": prior_config("conjugate", a=0.0, b=math.nan),
    "conjugate_b_negative": prior_config("conjugate", a=0.0, b=-1.0),
    "vertices_over_cap": lambda tmp_path: comb_config(
        tmp_path, concept_class={"kind": "k_subsets", "num_components": 20, "subset_size": 10}
    ),
    "dag_not_object": lambda tmp_path: comb_config(
        tmp_path, concept_class={"kind": "dag_paths", "dag": 5}
    ),
    "dag_edges_not_list": dag_config(edges={"from": "s", "to": "t", "index": 1}),
    "dag_edge_is_list": dag_config(edges=[["s", "t", 1]]),
    "dag_edge_without_index": dag_config(edges=[{"from": "s", "to": "t"}]),
    "dag_edge_index_fractional": dag_config(edges=[{"from": "s", "to": "t", "index": 1.5}]),
    "dag_edge_index_string": dag_config(edges=[{"from": "s", "to": "t", "index": "1"}]),
    # a repeated source passes the cycle check, so only the duplicate test catches it
    "dag_duplicate_nodes": dag_config(nodes=["s", "s", "t"]),
    "dag_nodes_not_list": dag_config(nodes=5),
    "dag_node_name_list": dag_config(nodes=["s", ["x"], "t"]),
    "dag_edge_unknown_key": dag_config(edges=[{"from": "s", "to": "t", "index": 1, "weight": 3}]),
    "comparators_not_list": lambda tmp_path: comb_config(tmp_path, report={"comparators": 5}),
    "singletons_string": lambda tmp_path: experts_config(tmp_path, report={"singletons": "false"}),
    "vertices_string": lambda tmp_path: comb_config(tmp_path, report={"vertices": "no"}),
    # a JSON object where a vector belongs made np.asarray raise TypeError
    "means_object": lambda tmp_path: experts_config(
        tmp_path, environment={"name": "stochastic", "means": {"a": 0.5}, "seed": 11}
    ),
    "prior_pi_object": lambda tmp_path: experts_config(tmp_path, prior_pi={"a": 1.0}),
    "grid_etas_object": prior_config("grid", etas={"a": 0.5}),
    "grid_masses_object": prior_config("grid", etas=[0.5, 0.25], masses={"a": 1.0}),
    "comparator_object": lambda tmp_path: comb_config(
        tmp_path, report={"comparators": [{"a": 0.5}]}
    ),
    "prior_vec_object": lambda tmp_path: comb_config(tmp_path, prior_vec={"a": 0.5}),
    "explicit_vertices_object": lambda tmp_path: comb_config(
        tmp_path, concept_class={"kind": "explicit", "vertices": {"a": [0, 1]}}, report={}
    ),
    # an unhashable name made the environment lookup raise TypeError
    "environment_name_list": lambda tmp_path: experts_config(
        tmp_path, environment={"name": ["stochastic"], "seed": 11}
    ),
    "environment_name_object": lambda tmp_path: experts_config(
        tmp_path, environment={"name": {"stochastic": 1}, "seed": 11}
    ),
    # uniform_on divided by the zero grid size
    "grid_etas_empty": prior_config("grid", etas=[]),
    # open() takes an integer or a bool as a file descriptor
    **{
        f"output_csv_{label}": lambda tmp_path, path=path: experts_config(
            tmp_path, output={"csv": path, "summary": str(tmp_path / "run.json")}
        )
        for label, path in [("integer", 1), ("true", True), ("empty", "")]
    },
    # the summary would overwrite the CSV
    "output_same_path": lambda tmp_path: experts_config(
        tmp_path, output={"csv": str(tmp_path / "run.out"), "summary": str(tmp_path / "run.out")}
    ),
    # Theorem 1's normalizer e^{a/2}/a overflows a float
    "conjugate_a_overflow": prior_config("conjugate", a=1500.0, b=0.0),
    # numpy parses numeric strings and reads true and false as 1.0 and 0.0
    "means_strings": lambda tmp_path: experts_config(
        tmp_path, environment={"name": "stochastic", "means": ["0.2", "0.5", "0.8"], "seed": 11}
    ),
    "means_bools": lambda tmp_path: experts_config(
        tmp_path, environment={"name": "stochastic", "means": [True, False, 0.5], "seed": 11}
    ),
    "prior_pi_strings": lambda tmp_path: experts_config(tmp_path, prior_pi=["0.2", "0.3", "0.5"]),
    "grid_etas_strings": prior_config("grid", etas=["0.5", "0.25"]),
    "grid_masses_bools": prior_config("grid", etas=[0.5, 0.25], masses=[True, False]),
    "prior_vec_strings": lambda tmp_path: comb_config(tmp_path, prior_vec=["0.5"] * 4),
    "comparator_bools": lambda tmp_path: comb_config(
        tmp_path, report={"comparators": [[True, False, True, False]]}
    ),
    "explicit_vertices_strings": lambda tmp_path: comb_config(
        tmp_path,
        concept_class={"kind": "explicit", "vertices": [["0", "1"], ["1", "1"]]},
        report={},
    ),
    "explicit_vertices_bools": lambda tmp_path: comb_config(
        tmp_path,
        concept_class={"kind": "explicit", "vertices": [[False, True], [True, True]]},
        report={},
    ),
    # grids past 2^1021 reach subnormal rates: a traceback (iProd) or a false violation
    "iprod_grid_t_max_subnormal": lambda tmp_path: experts_config(
        tmp_path, algorithm={"name": "iprod", "grid_t_max": 2**1100}
    ),
    "t_max_subnormal": lambda tmp_path: comb_config(
        tmp_path, algorithm={"name": "component_iprod", "t_max": 2**1060}
    ),
    # iProd's grid defaults to the horizon, which parsing used to check as 1
    "iprod_grid_from_subnormal_horizon": lambda tmp_path: experts_config(
        tmp_path, horizon=2**1022, algorithm={"name": "iprod"}
    ),
    # keys of the other mode used to be ignored, whatever their values
    "experts_with_concept_class": lambda tmp_path: experts_config(
        tmp_path, concept_class={"kind": "k_subsets", "num_components": 3, "subset_size": 1}
    ),
    "experts_with_prior_vec": lambda tmp_path: experts_config(tmp_path, prior_vec=[0.5] * 3),
    "combinatorial_with_num_experts": lambda tmp_path: comb_config(tmp_path, num_experts=7),
    "combinatorial_with_prior_pi": lambda tmp_path: comb_config(tmp_path, prior_pi=[1, 0]),
    # keys of another algorithm or prior kind used to be ignored
    "hedge_with_prior": lambda tmp_path: experts_config(
        tmp_path, algorithm={"name": "hedge", "eta": 0.5, "prior": {"kind": "cv"}}
    ),
    "iprod_with_eta": lambda tmp_path: experts_config(
        tmp_path, algorithm={"name": "iprod", "eta": 2.0}
    ),
    "improper_with_a": prior_config("improper", a=1.0),
    "grid_with_a": prior_config("grid", etas=[0.5, 0.25], a=3.0),
}


def grid_dag_doc(n):
    """The n-by-n grid DAG as a config describes it: edges right then down, in row-major order."""
    edges = []
    for r in range(n):
        for c in range(n):
            for to in [f"{r}_{c + 1}"] * (c + 1 < n) + [f"{r + 1}_{c}"] * (r + 1 < n):
                edges.append({"from": f"{r}_{c}", "to": to, "index": len(edges) + 1})
    nodes = [f"{r}_{c}" for r in range(n) for c in range(n)]
    return {"nodes": nodes, "edges": edges, "source": "0_0", "sink": f"{n - 1}_{n - 1}"}


# configs that pass parse_config and then fail in the run; each used to exit 1 with a traceback
RUN_FAILURES = {
    # eta times the cumulative loss overflows, so no expert keeps a finite log-weight
    "hedge_eta_1e308": lambda tmp_path: experts_config(
        tmp_path, algorithm={"name": "hedge", "eta": 1e308}
    ),
    # the projection's Newton Jacobian is singular in double precision
    "ill_conditioned_prior_vec": lambda tmp_path: comb_config(
        tmp_path,
        horizon=3,
        concept_class={"kind": "dag_paths", "dag": grid_dag_doc(6)},
        report={},
        prior_vec=np.random.default_rng(1).choice([0.5, 1 - 1e-12], 60).tolist(),
    ),
}

README = Path(__file__).parents[1] / "README.md"

# README "CLI" object label -> the parse tables it describes (name -> key table)
README_OBJECTS = {
    "`algorithm` (experts)": hc._ALGORITHM_PARAMS["experts"],
    "`algorithm` (combinatorial)": hc._ALGORITHM_PARAMS["combinatorial"],
    "`algorithm.prior`": hc._PRIOR_PARAMS,
    "`environment`": hc._ENV_PARAMS,
    "`concept_class`": hc._CONCEPT_CLASS_PARAMS,
    "`report` (experts)": {"": hc._REPORT_PARAMS["experts"]},
    "`report` (combinatorial)": {"": hc._REPORT_PARAMS["combinatorial"]},
    "`output`": {"": hc._OUTPUT_PARAMS},
}


def readme_table(first_header):
    """The body rows, as lists of stripped cells, of the README table with this first header."""
    lines = README.read_text().splitlines()
    start = lines.index(next(line for line in lines if line.startswith(f"| {first_header} |")))
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip()[1:-1].split("|")])
    return rows


def readme_keys(cell):
    """{key: the default text stated after it, or ""} of a cell such as "`a`, `b` (default `0`)"."""
    keys = {}
    for group, default in re.findall(r"((?:`\w+`(?:, )?)+)\s*(?:\(default ([^)]*)\))?", cell):
        keys.update(dict.fromkeys(re.findall(r"`(\w+)`", group), default))
    return keys


def stated_default(text):
    """A README default as a table holds it: the JSON literal in its first backticks, or None."""
    try:
        return json.loads(text.split("`")[1])
    except (IndexError, ValueError):  # words, or a name such as `horizon`: a default made in code
        return None


def table_keys(table):
    """(required keys, {optional key: default}) of one key table."""
    required = {key for key, (_, default) in table.items() if default is hc._REQUIRED}
    return required, {key: d for key, (_, d) in table.items() if d is not hc._REQUIRED}


class TestConfigTables:
    def test_readme_top_level_keys_match_the_parse_tables(self):
        rows = readme_table("key")
        for column, mode in enumerate(hc._CONFIG_PARAMS, start=1):
            stated = {"required": set(), "optional": {}, "rejected": set()}
            for row in rows:
                status, _, default = row[column].partition(" (default ")
                keys = readme_keys(row[0])
                if status == "optional":
                    assert default, f"{mode}: {row[0]} states no default"
                    stated[status].update(dict.fromkeys(keys, stated_default(default[:-1])))
                else:
                    stated[status].update(keys)
            assert (stated["required"], stated["optional"]) == table_keys(hc._CONFIG_PARAMS[mode])
            others = set().union(*hc._CONFIG_PARAMS.values()) - set(hc._CONFIG_PARAMS[mode])
            assert stated["rejected"] == others

    def test_readme_object_keys_match_the_parse_tables(self):
        stated, label = {}, None
        for obj, names, required, optional in readme_table("object"):
            label = obj or label
            optional = readme_keys(optional)
            assert all(optional.values()), f"{label} {names}: an optional key states no default"
            defaults = {key: stated_default(text) for key, text in optional.items()}
            for name in re.findall(r"`(\w+)`", names) or [""]:
                stated.setdefault(label, {})[name] = (set(readme_keys(required)), defaults)
        parsed = {
            label: {name: table_keys(table) for name, table in tables.items()}
            for label, tables in README_OBJECTS.items()
        }
        assert stated == parsed

    @pytest.mark.parametrize(
        "env",
        [
            {"name": "stochastic", "seed": 1},
            {"name": "adversarial_shift", "seed": 1},
            {"name": "uniform_signed"},
            {"seed": 1},
            {"name": "uniform_signed", "seed": 1, "means": [0.5]},  # a key of another environment
            {"name": "uniform_signed", "seed": 1, "extra": True},
        ],
    )
    def test_generate_stream_rejects_missing_or_unknown_keys(self, env):
        with pytest.raises(ConfigError):
            hc.generate_stream(env, 1, 5)

    def test_generate_stream_noise_defaults_to_zero(self):
        env = {"name": "adversarial_shift", "segment_length": 3, "seed": 4}
        left_out = hc.generate_stream(env, 4, 50)
        assert left_out.tobytes() == hc.generate_stream({**env, "noise": 0.0}, 4, 50).tobytes()


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        doc = experts_config(tmp_path)
        doc["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(doc)

    def test_unknown_nested_key(self, tmp_path):
        doc = experts_config(tmp_path)
        doc["environment"]["extra"] = True
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(doc)

    def test_wrong_schema(self, tmp_path):
        doc = experts_config(tmp_path, schema="other/9")
        with pytest.raises(ConfigError, match="schema"):
            parse_config(doc)

    def test_env_param_mismatch(self, tmp_path):
        doc = experts_config(tmp_path)
        doc["environment"] = {"name": "stochastic", "seed": 1, "segment_length": 5}
        with pytest.raises(ConfigError):
            parse_config(doc)

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_config_exits_2(self, tmp_path, capsys, case):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MALFORMED[case](tmp_path)))
        assert main(["run", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_other_mode_keys_are_named(self, tmp_path):
        doc = comb_config(tmp_path, num_experts=7, prior_pi=[1, 0])
        taken = r"combinatorial mode does not take \['num_experts', 'prior_pi'\]"
        with pytest.raises(ConfigError, match=taken):
            parse_config(doc)

    def test_signed_losses_rejected_for_experts(self, tmp_path):
        doc = experts_config(tmp_path)
        doc["environment"] = {"name": "uniform_signed", "seed": 1}
        with pytest.raises(ConfigError):
            parse_config(doc)


class TestRunExperiment:
    def test_improper_run_has_no_violations(self, tmp_path):
        summary = run_experiment(parse_config(experts_config(tmp_path)))
        assert summary["any_violation"] is False
        assert summary["max_potential"] <= 1e-9
        assert summary["near_best"]["violated"] is False
        assert all(not a.get("violated", False) for a in summary["audits"])

    # round 1's uniform weights sum to 1 - 1.1e-16, so every expert starts
    # at R = -1.1e-16, V = 1.2e-32, where ln xi used to take ln(0)
    @pytest.mark.parametrize("k", [6, 10])
    @pytest.mark.parametrize("mean", [1.0, 0.99, 0.9])
    @pytest.mark.parametrize("prior", [{"kind": "improper"}, {"kind": "conjugate"}])
    def test_near_equal_losses_run(self, tmp_path, capsys, k, mean, prior):
        doc = experts_config(
            tmp_path,
            num_experts=k,
            horizon=10,
            algorithm={"name": "squint", "prior": prior},
            environment={"name": "stochastic", "means": [mean] * k, "seed": 0},
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", str(cfg_path)]) == 0

    def test_zero_horizon(self, tmp_path):
        doc = experts_config(tmp_path, horizon=0)
        doc["report"] = {"subsets": [[0]]}
        summary = run_experiment(parse_config(doc))
        assert summary["rounds"] == 0
        assert summary["any_violation"] is False
        with open(doc["output"]["csv"]) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 1  # header only

    @pytest.mark.parametrize("shape", list(RUN_SHAPES))
    def test_reruns_are_byte_identical(self, tmp_path, shape):
        make, columns, audit_keys = RUN_SHAPES[shape]
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
        doc_a, doc_b = make(tmp_path / "a"), make(tmp_path / "b")
        summary = run_experiment(parse_config(doc_a))
        run_experiment(parse_config(doc_b))
        with open(doc_a["output"]["csv"], "rb") as fa, open(doc_b["output"]["csv"], "rb") as fb:
            csv_a, csv_b = fa.read(), fb.read()
        assert csv_a == csv_b
        assert csv_a.decode().splitlines()[0].split(",") == columns
        with open(doc_a["output"]["summary"]) as fa, open(doc_b["output"]["summary"]) as fb:
            ja, jb = json.load(fa), json.load(fb)
        ja["config"]["output"] = jb["config"]["output"] = None
        assert ja == jb
        assert summary["any_violation"] is False
        assert [set(a) for a in summary["audits"]] == [audit_keys] * len(summary["audits"])

    def test_iprod_weights_match_history_oracle(self, tmp_path):
        # the running log-product sums give the same bytes as re-summing
        # the whole regret history every round
        k, horizon = 5, 300
        doc = experts_config(
            tmp_path,
            num_experts=k,
            horizon=horizon,
            algorithm={"name": "iprod"},
            environment={"name": "stochastic", "means": [0.1, 0.3, 0.5, 0.7, 0.9], "seed": 7},
            prior_pi=[0.1, 0.15, 0.2, 0.25, 0.3],
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", str(cfg_path)]) == 0
        with open(doc["output"]["csv"]) as fh:
            rows = list(csv.reader(fh))
        header, rows = rows[0], rows[1:]
        loss_cols = [header.index(f"loss_{i + 1}") for i in range(k)]
        w_cols = [header.index(f"w_{i + 1}") for i in range(k)]
        grid = ex.DiscreteGridPrior.uniform_on(learning_rate_grid(horizon))
        pi = np.asarray(doc["prior_pi"])
        history = []
        assert len(rows) == horizon
        for row in rows:
            w = iprod_weights_history(history, pi, grid)
            assert [row[c] for c in w_cols] == [repr(float(x)) for x in w]
            loss = np.array([float(row[c]) for c in loss_cols])
            history.append(float(w @ loss) - loss)

    def test_iprod_reads_weights_once_per_round(self, tmp_path, monkeypatch):
        # the harness reads iProd weights through ex.iprod_weights_grid, once
        # per round, from a (G, K) array: benchmark tracing relies on this
        shapes = []
        original = ex.iprod_weights_grid

        def counting(log_products, prior_pi, prior):
            shapes.append(np.shape(log_products))
            return original(log_products, prior_pi, prior)

        monkeypatch.setattr(ex, "iprod_weights_grid", counting)
        horizon = 50
        doc = experts_config(tmp_path, algorithm={"name": "iprod"}, horizon=horizon)
        run_experiment(parse_config(doc))
        g = learning_rate_grid(horizon).size
        assert shapes == [(g, 3)] * horizon

    def test_iprod_run_validates_state_a_fixed_number_of_times(self, tmp_path, monkeypatch):
        # update trusts the state it builds: no ExpertGameState check per round
        calls = []
        original = ex.ExpertGameState.__post_init__

        def counting(state):
            calls.append(state.t)
            original(state)

        monkeypatch.setattr(ex.ExpertGameState, "__post_init__", counting)
        counts = []
        for horizon in (50, 200):
            calls.clear()
            doc = experts_config(tmp_path, algorithm={"name": "iprod"}, horizon=horizon)
            run_experiment(parse_config(doc))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_subset_cells_match_aggregate_subset(self, tmp_path):
        # singleton cells are the repr of aggregate_subset exactly; a
        # multi-element subset's product may differ from it in the last bit
        doc = multi_subsets_config(tmp_path, horizon=200)
        summary = run_experiment(parse_config(doc))
        with open(doc["output"]["csv"]) as fh:
            rows = list(csv.reader(fh))
        header, rows = rows[0], rows[1:]
        subsets = [a["subset"] for a in summary["audits"]]
        assert subsets == [[0, 1], [0, 1, 2], [0], [1], [2]]
        state = ex.ExpertGameState.from_prior(doc["prior_pi"])
        for row in rows:
            w = np.array([float(row[header.index(f"w_{i + 1}")]) for i in range(3)])
            loss = np.array([float(row[header.index(f"loss_{i + 1}")]) for i in range(3)])
            state = ex.update(state, w, loss)
            for j, subset in enumerate(subsets):
                agg = rb.aggregate_subset(state, subset)
                cells = [row[header.index(f"{c}_S{j}")] for c in ("R", "V")]
                if len(subset) == 1:
                    assert cells == [repr(agg.r_agg), repr(agg.v_agg)]
                else:
                    assert float(cells[0]) == pytest.approx(agg.r_agg, rel=0, abs=1e-12)
                    assert float(cells[1]) == pytest.approx(agg.v_agg, rel=0, abs=1e-12)

    def test_audits_call_bounds_once_per_round(self, tmp_path, monkeypatch):
        # one array bound call per round plus one for the near-best set, and
        # aggregate_subset only at parse time and for the near-best set:
        # benchmark tracing of the regret_bounds layer relies on this
        calls = {"bound": [], "aggregate": 0}
        bound, aggregate = rb.bound_theorem3, rb.aggregate_subset

        def counting_bound(v_agg, pi_mass, horizon):
            calls["bound"].append(np.shape(v_agg))
            return bound(v_agg, pi_mass, horizon)

        def counting_aggregate(state, subset):
            calls["aggregate"] += 1
            return aggregate(state, subset)

        monkeypatch.setattr(rb, "bound_theorem3", counting_bound)
        monkeypatch.setattr(rb, "aggregate_subset", counting_aggregate)
        horizon = 30
        doc = multi_subsets_config(tmp_path, horizon=horizon)
        cfg = parse_config(doc)
        assert calls == {"bound": [], "aggregate": 5}  # the five subsets, checked at parse
        run_experiment(cfg)
        assert calls == {"bound": [(5,)] * horizon + [()], "aggregate": 6}

    @pytest.mark.parametrize("horizon, num_calls", [(12, 12), (0, 1)])
    def test_audits_call_comparator_stats_once_per_round(
        self, tmp_path, monkeypatch, horizon, num_calls
    ):
        # one call per round (one for the summary of a horizon-0 run) on the
        # C-contiguous matrix of every comparator, row j being Cj: benchmark
        # tracing of the component_iprod layer relies on this
        stacks = []
        comparator_stats = ci.comparator_stats

        def counting_stats(state, v):
            stacks.append(v)
            return comparator_stats(state, v)

        monkeypatch.setattr(ci, "comparator_stats", counting_stats)
        report = {"comparators": [[0.5, 0.5, 0.5, 0.5], [0.25, 0.75, 0.5, 0.5]], "vertices": True}
        doc = comb_config(tmp_path, horizon=horizon, report=report)
        summary = run_experiment(parse_config(doc))
        audits = summary["audits"]
        assert [a["name"] for a in audits] == [f"C{j}" for j in range(8)]  # 2 + C(4,2)
        assert len(stacks) == num_calls
        for stack in stacks:
            assert stack.shape == (8, 4) and stack.flags.c_contiguous
            assert stack.tolist() == [a["comparator"] for a in audits]

    def test_combinatorial_run(self, tmp_path):
        summary = run_experiment(parse_config(comb_config(tmp_path)))
        assert summary["any_violation"] is False
        assert summary["max_potential"] <= 1e-9
        assert len(summary["audits"]) == 6  # C(4,2) vertices
        for audit in summary["audits"]:
            assert audit["regret"] <= audit["bound"]

    def test_combinatorial_dag_run(self, tmp_path):
        doc = comb_config(
            tmp_path,
            concept_class={"kind": "dag_paths", "dag": DIAMOND},
            horizon=25,
        )
        summary = run_experiment(parse_config(doc))
        assert summary["any_violation"] is False


@pytest.fixture
def writer_pids(monkeypatch):
    """The pid of every process that os.fork starts, as seen by the parent;
    runs fork their CSV writer, whatever CPUs this machine has."""
    monkeypatch.setattr(hc, "_spare_cpu", lambda: True)
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid != 0:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    """One writer was forked, and it has been waited for already."""
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


class TestStreamingCsv:
    """The CSV is written line by line, with the bytes csv.writer would give."""

    @pytest.mark.parametrize("shape", list(RUN_SHAPES))
    def test_lines_match_csv_writer(self, tmp_path, shape):
        doc = RUN_SHAPES[shape][0](tmp_path)
        run_experiment(parse_config(doc))
        with open(doc["output"]["csv"], "rb") as fh:
            raw = fh.read()
        rewritten = io.StringIO()
        rows = csv.reader(io.StringIO(raw.decode(), newline=""))
        csv.writer(rewritten, lineterminator="\n").writerows(rows)
        assert rewritten.getvalue().encode() == raw

    @pytest.mark.parametrize("mode", ["experts", "combinatorial"])
    def test_failed_run_leaves_no_outputs(self, tmp_path, monkeypatch, writer_pids, mode):
        module, name, make = {
            "experts": (ex, "update", experts_config),
            "combinatorial": (ci, "observe", comb_config),
        }[mode]
        original = getattr(module, name)
        rounds = []

        def fail_at_round_5(*args, **kwargs):
            rounds.append(None)
            if len(rounds) == 5:
                raise RuntimeError("injected failure in round 5")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, fail_at_round_5)
        doc = make(tmp_path)
        with pytest.raises(RuntimeError, match="round 5"):
            run_experiment(parse_config(doc))
        assert_reaped(writer_pids)
        assert not os.path.exists(doc["output"]["csv"])
        assert not os.path.exists(doc["output"]["summary"])

    @pytest.mark.parametrize("mode", ["experts", "combinatorial"])
    def test_clean_run_reaps_its_writer(self, tmp_path, writer_pids, mode):
        make = experts_config if mode == "experts" else comb_config
        run_experiment(parse_config(make(tmp_path)))
        assert_reaped(writer_pids)

    # 30 rounds fit in the pipe, so the writer fails after the last frame is
    # sent; 3000 rounds do not, so the parent's write meets a closed pipe
    @pytest.mark.parametrize("horizon", [30, 3000])
    def test_failed_writer_is_an_output_error(
        self, tmp_path, monkeypatch, capfd, writer_pids, horizon
    ):
        def broken_frame(frame, out):
            raise RuntimeError("injected writer failure")

        monkeypatch.setattr(hc, "_write_frame", broken_frame)
        doc = experts_config(tmp_path, horizon=horizon, algorithm={"name": "hedge", "eta": 1.0})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", str(cfg_path)]) == 2
        err = capfd.readouterr().err
        assert "injected writer failure" in err
        assert "output error: the CSV writer process exited with status 1" in err
        assert_reaped(writer_pids)
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("mode", ["experts", "combinatorial"])
    def test_failed_write_in_process_is_an_output_error(self, tmp_path, monkeypatch, capsys, mode):
        write_frame = hc._write_frame
        rounds = []

        def disk_full_at_round_5(frame, out):
            rounds.append(None)
            if len(rounds) == 5:
                raise OSError(errno.ENOSPC, "No space left on device")
            write_frame(frame, out)

        monkeypatch.setattr(hc, "_spare_cpu", lambda: False)
        monkeypatch.setattr(hc, "_write_frame", disk_full_at_round_5)
        doc = (experts_config if mode == "experts" else comb_config)(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", str(cfg_path)]) == 2
        assert "output error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert len(rounds) == 5
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    # "experts" and "combinatorial" sample the potential every third round
    @pytest.mark.parametrize("shape", ["experts", "combinatorial", *RUN_SHAPES])
    def test_one_cpu_formats_in_process_with_the_same_bytes(self, tmp_path, monkeypatch, shape):
        if shape in RUN_SHAPES:
            doc = RUN_SHAPES[shape][0](tmp_path)
        else:
            doc = (experts_config if shape == "experts" else comb_config)(tmp_path, potential_every=3)
        spare_cpu = hc._spare_cpu
        outputs = []
        for spare in (True, False):
            monkeypatch.setattr(hc, "_spare_cpu", lambda: spare)
            run_experiment(parse_config(doc))
            outputs.append([Path(doc["output"][k]).read_bytes() for k in ("csv", "summary")])
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count(b"\n") == 1 + doc["horizon"]

        # a process allowed on one CPU only, as under `taskset -c 0`, forks no writer
        def no_fork():
            raise AssertionError("forked on one CPU")

        monkeypatch.setattr(hc, "_spare_cpu", spare_cpu)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", no_fork)
        run_experiment(parse_config(doc))
        assert [Path(doc["output"][k]).read_bytes() for k in ("csv", "summary")] == outputs[0]

    # the child pins itself to one CPU before it imports squint, so _spare_cpu
    # reads the real affinity mask; this changes no setting outside that process
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
    @pytest.mark.parametrize("mode", ["experts", "combinatorial"])
    def test_process_pinned_to_one_cpu_forks_no_writer(self, tmp_path, writer_pids, mode):
        doc = (experts_config if mode == "experts" else comb_config)(tmp_path, potential_every=3)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import squint.harness_cli as hc\n"
            "def no_fork():\n"
            "    raise AssertionError('forked on one CPU')\n"
            "os.fork = no_fork\n"
            "sys.exit(hc.main(['run', sys.argv[1]]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(hc.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(cfg_path)], capture_output=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr.decode()
        pinned = [Path(doc["output"][k]).read_bytes() for k in ("csv", "summary")]
        run_experiment(parse_config(doc))
        assert_reaped(writer_pids)
        assert [Path(doc["output"][k]).read_bytes() for k in ("csv", "summary")] == pinned

    def test_zero_horizon_writes_the_header_only(self, tmp_path, writer_pids):
        doc = comb_config(tmp_path, horizon=0)
        run_experiment(parse_config(doc))
        with open(doc["output"]["csv"]) as fh:
            lines = fh.readlines()
        assert lines == [",".join(RUN_SHAPES["combinatorial_zero_horizon"][1]) + "\n"]
        assert_reaped(writer_pids)

    def test_forked_writer_flushes_no_inherited_buffer(self, tmp_path):
        # stdout is a pipe, so the unflushed print sits in its buffer at the fork
        doc = experts_config(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code = (
            "import sys; import squint.harness_cli as hc; hc._spare_cpu = lambda: True; "
            "print('printed before the run'); sys.exit(hc.main(sys.argv[1:]))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(hc.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run(
            [sys.executable, "-c", code, "run", str(cfg_path)],
            stdout=subprocess.PIPE,
            env=env,
            check=True,
            timeout=60,
        )
        out = proc.stdout.decode()
        assert out.count("printed before the run") == 1
        assert out.count('{"any_violation": false}') == 1
        with open(doc["output"]["csv"]) as fh:
            assert len(fh.readlines()) == 1 + doc["horizon"]

    @pytest.mark.parametrize("bad", ["csv", "summary"])
    def test_unwritable_output_fails_before_round_1(self, tmp_path, monkeypatch, capsys, bad):
        doc = experts_config(tmp_path)
        doc["output"][bad] = str(tmp_path / "missing" / "out")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        rounds = []
        monkeypatch.setattr(ex, "update", lambda *args: rounds.append(None))
        assert main(["run", str(cfg_path)]) == 2
        assert "output error" in capsys.readouterr().err
        assert not rounds
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("failure", ["potential_limit", "quadrature_budget"])
    def test_numerical_error_exits_2_and_removes_outputs(
        self, tmp_path, monkeypatch, capsys, failure
    ):
        if failure == "potential_limit":  # round 10's peak exponent is far above 0.5
            monkeypatch.setattr(ex, "LINEAR_EXPONENT_LIMIT", 0.5)
            message = "numerical error: the improper potential is evaluated in linear domain"
        else:
            def starved(*args, **kwargs):
                raise QuadratureError("adaptive Simpson exceeded 4 subdivisions")

            monkeypatch.setattr(ex, "integrate_adaptive_batch", starved)
            message = "numerical error: adaptive Simpson exceeded 4 subdivisions"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(experts_config(tmp_path)))
        assert main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("case", list(RUN_FAILURES))
    def test_run_time_failure_exits_2_and_removes_outputs(self, tmp_path, capsys, case):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(RUN_FAILURES[case](tmp_path)))
        assert main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("numerical error:")
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_conjugate_a_minus_1e300_runs(self, tmp_path, capsys):
        # the weights' eta integrals sit in a window of width ~45/|a| at eta = 0
        doc = prior_config("conjugate", a=-1e300, b=1.0)(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        with open(doc["output"]["csv"]) as fh:
            rows = list(csv.reader(fh))
        header, rows = rows[0], rows[1:]
        w = np.array([[float(row[header.index(f"w_{i + 1}")]) for i in range(3)] for row in rows])
        assert w.shape == (20, 3) and np.isfinite(w).all()
        summary = json.loads(Path(doc["output"]["summary"]).read_text())
        assert summary["any_violation"] is False

    def test_memory_does_not_grow_with_horizon(self, tmp_path):
        # Potential sampling is off: the improper potential's adaptive Simpson
        # keeps more intervals as its integrand sharpens with t, which is a
        # working set of the quadrature, not of the output path pinned here.
        def peak_bytes(horizon):
            doc = experts_config(
                tmp_path,
                num_experts=50,
                horizon=horizon,
                environment={
                    "name": "stochastic",
                    "means": np.linspace(0.1, 0.9, 50).tolist(),
                    "seed": 1,
                },
                report={"singletons": True},
                potential_every=0,
            )
            cfg = parse_config(doc)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(100)  # first-run allocations (imports, caches) count against neither
        small = peak_bytes(100)
        assert peak_bytes(400) - small < 1_000_000


def strict_summary(doc):
    """The run's summary, parsed as strict JSON: a bare NaN or Infinity token raises."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(Path(doc["output"]["summary"]).read_text(), parse_constant=reject)


class TestAudit:
    def test_clean_run_passes_audit(self, tmp_path):
        doc = experts_config(tmp_path)
        run_experiment(parse_config(doc))
        ok, problems = audit_csv(doc["output"]["csv"])
        assert ok, problems

    @pytest.mark.parametrize("shape", list(RUN_SHAPES))
    def test_every_run_shape_passes_cli_audit(self, tmp_path, shape):
        doc = RUN_SHAPES[shape][0](tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", str(cfg_path)]) == 0
        assert main(["audit", doc["output"]["csv"]]) == 0

    def test_tampered_run_fails_audit(self, tmp_path):
        doc = experts_config(tmp_path)
        run_experiment(parse_config(doc))
        path = doc["output"]["csv"]
        with open(path) as fh:
            lines = fh.readlines()
        header = lines[0].strip().split(",")
        col = header.index("R_S0")
        parts = lines[-1].strip().split(",")
        parts[col] = "1e9"
        lines[-1] = ",".join(parts) + "\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        ok, problems = audit_csv(path)
        assert not ok
        assert problems

    def test_nan_regret_fails_audit(self, tmp_path):
        doc = experts_config(tmp_path)
        run_experiment(parse_config(doc))
        path = doc["output"]["csv"]
        with open(path) as fh:
            lines = fh.readlines()
        col = lines[0].strip().split(",").index("R_S0")
        parts = lines[-1].strip().split(",")
        parts[col] = "nan"
        lines[-1] = ",".join(parts) + "\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        assert main(["audit", path]) == 2

    def test_nan_bound_is_a_violation(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rb, "bound_theorem3", lambda v_agg, pi_mass, horizon: math.nan)
        doc = experts_config(tmp_path)
        summary = run_experiment(parse_config(doc))
        assert summary["any_violation"] is True
        assert all(a["violated"] for a in summary["audits"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", str(cfg_path)]) == 2
        assert main(["audit", doc["output"]["csv"]]) == 2


    @pytest.mark.parametrize("phis", [[-1.0, math.nan, -0.5], [math.nan, -1.0, -0.5]])
    def test_nan_potential_is_the_max_in_either_order(self, tmp_path, monkeypatch, phis):
        values = iter(phis)
        monkeypatch.setattr(ex, "potential", lambda state, prior: next(values))
        doc = experts_config(tmp_path, horizon=3, potential_every=1)
        summary = run_experiment(parse_config(doc))
        assert math.isnan(summary["max_potential"])
        assert summary["any_violation"] is True

    def test_nan_bound_violates_only_its_item(self, tmp_path, monkeypatch):
        bound = rb.bound_theorem3

        def first_nan(v_agg, pi_mass, horizon):
            b = bound(v_agg, pi_mass, horizon)
            if np.ndim(b) == 0:
                return b
            b = b.copy()
            b[0] = math.nan
            return b

        monkeypatch.setattr(rb, "bound_theorem3", first_nan)
        doc = experts_config(tmp_path)
        summary = run_experiment(parse_config(doc))
        assert summary["any_violation"] is True
        assert [a["violated"] for a in summary["audits"]] == [True, False, False]
        assert summary["near_best"]["violated"] is False
        assert main(["audit", doc["output"]["csv"]]) == 2


    @pytest.mark.parametrize(
        "overrides",
        [
            # (1 + 2 ln(T+1)) / pi overflows in Theorem 3's tail
            dict(
                num_experts=2,
                prior_pi=[1e-310, 1.0 - 1e-310],
                environment={"name": "stochastic", "means": [0.2, 0.8], "seed": 11},
            ),
            # Theorem 1's Z sqrt(2(V+b)) / pi overflows
            dict(algorithm={"name": "squint", "prior": {"kind": "conjugate", "a": 1430.0}}),
        ],
        ids=["tiny_prior_mass", "conjugate_a_1430"],
    )
    def test_infinite_bound_is_a_violation(self, tmp_path, overrides):
        doc = experts_config(tmp_path, **overrides)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            assert main(["run", str(cfg_path)]) == 2
        audits = strict_summary(doc)["audits"]
        assert float(audits[0]["bound"]) == math.inf
        assert [a["violated"] for a in audits] == [
            not float(a["bound"]) < math.inf for a in audits
        ]
        assert main(["audit", doc["output"]["csv"]]) == 2

    @pytest.mark.parametrize("failure", ["nan_potential", "inf_bound"])
    def test_failed_run_writes_strict_json(self, tmp_path, monkeypatch, failure):
        # a nan or infinite float is the string of its token, which float() reads
        if failure == "nan_potential":
            monkeypatch.setattr(ex, "potential", lambda state, prior: math.nan)
        else:
            monkeypatch.setattr(rb, "bound_theorem3", lambda v_agg, pi_mass, horizon: v_agg + math.inf)
        doc = experts_config(tmp_path, horizon=3, potential_every=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", str(cfg_path)]) == 2
        summary = strict_summary(doc)
        assert summary["any_violation"] is True
        if failure == "nan_potential":
            assert summary["max_potential"] == "NaN"
        else:
            entries = summary["audits"] + [summary["near_best"]]
            assert [e["bound"] for e in entries] == ["Infinity"] * 4
            assert all(e["violated"] for e in entries)
            assert math.isinf(float(summary["audits"][0]["bound"]))

    def test_infinite_bound_fails_audit(self, tmp_path):
        doc = experts_config(tmp_path)
        run_experiment(parse_config(doc))
        path = doc["output"]["csv"]
        assert main(["audit", path]) == 0
        with open(path) as fh:
            lines = fh.readlines()
        col = lines[0].strip().split(",").index("bound_S0")
        parts = lines[-1].strip().split(",")
        parts[col] = "inf"
        lines[-1] = ",".join(parts) + "\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        ok, problems = audit_csv(path)
        assert not ok and problems == [f"t=40: R={parts[col - 2]} fails bound_S0=inf"]
        assert main(["audit", path]) == 2

    def test_truncated_row_is_an_audit_error(self, tmp_path, capsys):
        doc = experts_config(tmp_path)
        run_experiment(parse_config(doc))
        path = doc["output"]["csv"]
        with open(path) as fh:
            lines = fh.readlines()
        lines[-1] = ",".join(lines[-1].split(",")[:5])  # a run cut off mid-line
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(ValueError, match="5 fields"):
            audit_csv(path)
        assert main(["audit", path]) == 2
        assert "audit error" in capsys.readouterr().err

    def test_empty_file_is_an_audit_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="no header"):
            audit_csv(str(path))
        assert main(["audit", str(path)]) == 2
        assert "audit error" in capsys.readouterr().err

    def test_header_only_csv_passes(self, tmp_path, capsys):
        doc = experts_config(tmp_path, horizon=0)
        run_experiment(parse_config(doc))
        assert audit_csv(doc["output"]["csv"]) == (True, [])
        assert main(["audit", doc["output"]["csv"]]) == 0
        assert capsys.readouterr().out.strip() == "OK"


class TestCli:
    def test_run_and_audit_roundtrip(self, tmp_path):
        doc = experts_config(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", str(cfg_path)]) == 0
        assert main(["audit", doc["output"]["csv"]]) == 0

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"schema": "nope"}))
        assert main(["run", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "make, message",
        [
            (MALFORMED["hedge_eta_nan"], "config error:"),
            (RUN_FAILURES["hedge_eta_1e308"], "numerical error: hedge learning rate eta=1e+308"),
        ],
        ids=["malformed", "run_time_failure"],
    )
    def test_module_entry_point_exits_2_without_traceback(self, tmp_path, make, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make(tmp_path)))
        proc = subprocess.run(
            [sys.executable, "-m", "squint.harness_cli", "run", str(cfg_path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(hc.__file__).parents[1])),
            timeout=60,
        )
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr

    def test_enumerate(self, tmp_path, capsys):
        spec = tmp_path / "cls.json"
        spec.write_text(json.dumps({"kind": "k_subsets", "num_components": 4, "subset_size": 2}))
        assert main(["enumerate", str(spec)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 6
        assert all(line.count("1") == 2 for line in out)

    def test_grid(self, capsys):
        assert main(["grid", "8"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert [float(x) for x in out] == [0.5, 0.25, 0.125, 0.0625]

    def test_grid_stops_at_the_least_normal_float(self, capsys):
        assert main(["grid", str(2**1021)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1022 and float(out[-1]) == 2.0**-1022
        assert main(["grid", str(2**1021 + 1)]) == 2
        assert main(["grid", str(2**1100)]) == 2
        assert "learning rates" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["experts", "combinatorial"])
    def test_largest_normal_grid_runs(self, tmp_path, mode):
        if mode == "experts":
            doc = experts_config(tmp_path, algorithm={"name": "iprod", "grid_t_max": 2**1021})
        else:
            algorithm = {"name": "component_iprod", "t_max": 2**1021}
            doc = comb_config(tmp_path, horizon=12, potential_every=1, algorithm=algorithm)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", str(cfg_path)]) == 0

    def test_grid_rejects_bad_horizon(self, capsys):
        assert main(["grid", "0"]) == 2

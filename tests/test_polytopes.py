import json
import math
import warnings

import numpy as np
import pytest

from squint import component_iprod as ci
from squint.polytopes import DagPaths, Decomposition, ExplicitVertices, KSubsets
from squint.regret_bounds import binary_relative_entropy

from oracles import (
    dag_constraints_former,
    dead_edges_former,
    dual_sweep_subset_projection,
    equality_residuals_former,
    newton_jacobian_dense,
    num_vertices_former,
    project_batch_former,
    project_newton_former,
    singular_former,
    slsqp_entropy_projection,
    unconstrained_update,
)

DIAMOND = {
    "nodes": ["s", "a", "b", "t"],
    "edges": [
        {"from": "s", "to": "a", "index": 1},
        {"from": "s", "to": "b", "index": 2},
        {"from": "a", "to": "t", "index": 3},
        {"from": "b", "to": "t", "index": 4},
    ],
    "source": "s",
    "sink": "t",
}


def diamond():
    return DagPaths.from_json(json.dumps(DIAMOND))


def six_node_dag():
    """Two layers between source and sink: 4 paths over 8 edges."""
    edges = [
        ("s", "a", 1),
        ("s", "b", 2),
        ("a", "c", 3),
        ("a", "d", 4),
        ("b", "c", 5),
        ("b", "d", 6),
        ("c", "t", 7),
        ("d", "t", 8),
    ]
    return DagPaths(["s", "a", "b", "c", "d", "t"], edges, "s", "t")


def grid_dag(n):
    """The n-by-n grid DAG: edges right then down in row-major order, source 0_0."""
    edges = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                edges.append((f"{r}_{c}", f"{r}_{c + 1}", len(edges) + 1))
            if r + 1 < n:
                edges.append((f"{r}_{c}", f"{r + 1}_{c}", len(edges) + 1))
    nodes = [f"{r}_{c}" for r in range(n) for c in range(n)]
    return DagPaths(nodes, edges, "0_0", f"{n - 1}_{n - 1}")


def parallel_edge_dag():
    """Three parallel s -> a edges and two parallel a -> t edges, indices interleaved."""
    edges = [("s", "a", 1), ("a", "t", 2), ("s", "a", 3), ("a", "t", 4), ("s", "a", 5)]
    return DagPaths(["s", "a", "t"], edges, "s", "t")


def direct_edge_dag():
    """A diamond plus an edge straight from the source to the sink."""
    edges = [("s", "a", 1), ("s", "t", 2), ("s", "b", 3), ("a", "t", 4), ("b", "t", 5)]
    return DagPaths(["s", "a", "b", "t"], edges, "s", "t")


def bridge_dag():
    """A diamond behind the edge s -> m, which lies on every path."""
    edges = [("s", "m", 1), ("m", "a", 2), ("m", "b", 3), ("a", "t", 4), ("b", "t", 5)]
    return DagPaths(["s", "m", "a", "b", "t"], edges, "s", "t")


def unordered_dag():
    """Sink listed first, an isolated node ahead of the source in topological order,
    edge indices out of node order."""
    edges = [("a", "t", 1), ("s", "b", 2), ("b", "t", 3), ("s", "a", 4), ("a", "b", 5)]
    return DagPaths(["t", "iso", "b", "a", "s"], edges, "s", "t")


def random_hull_point(cls, rng):
    verts = cls.vertices()
    w = rng.dirichlet(np.ones(verts.shape[0]))
    return w @ verts


class TestVertexEnumeration:
    def test_k_subsets_count(self):
        v = KSubsets(4, 2).vertices()
        assert v.shape == (6, 4)
        assert np.all(v.sum(axis=1) == 2)
        assert np.unique(v, axis=0).shape[0] == 6

    def test_single_edge_graph(self):
        cls = DagPaths(["s", "t"], [("s", "t", 1)], "s", "t")
        v = cls.vertices()
        assert v.shape == (1, 1)
        np.testing.assert_array_equal(v, [[1.0]])

    def test_diamond_paths(self):
        v = diamond().vertices()
        assert v.shape == (2, 4)
        want = {(1.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 1.0)}
        assert {tuple(r) for r in v} == want

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            KSubsets(30, 15).vertices(cap=100)

    @pytest.mark.parametrize(
        "cls_factory",
        [
            lambda: KSubsets(6, 3),
            diamond,
            six_node_dag,
            lambda: ExplicitVertices([[0, 1, 0], [0, 1, 1], [1, 1, 0], [1, 1, 1]]),
        ],
    )
    def test_count_matches_enumeration_and_sets_the_cap(self, cls_factory):
        cls = cls_factory()
        count = cls.num_vertices()
        assert cls.vertices(cap=count).shape == (count, cls.num_components)
        with pytest.raises(ValueError, match="exceed the cap"):
            cls.vertices(cap=count - 1)


class TestDagValidation:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            DagPaths(["a", "b"], [("a", "b", 1), ("b", "a", 2)], "a", "b")

    def test_rejects_dead_edge(self):
        with pytest.raises(ValueError) as exc:
            DagPaths(["s", "t", "x"], [("s", "t", 1), ("s", "x", 2)], "s", "t")
        assert "no source-sink path" in str(exc.value)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            DagPaths(["s", "t"], [("s", "t", 2)], "s", "t")

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError, match="node names must be distinct"):
            DagPaths(["s", "a", "a", "t"], [("s", "a", 1), ("a", "t", 2)], "s", "t")

    def test_rejects_non_integer_index(self):
        for index in (1.5, "1", True):
            with pytest.raises(ValueError, match="edge indices must be integers"):
                DagPaths(["s", "t"], [("s", "t", index)], "s", "t")

    def test_json_rejects_unknown_keys(self):
        doc = dict(DIAMOND)
        doc["extra"] = 1
        with pytest.raises(ValueError):
            DagPaths.from_json(doc)


class TestProjection:
    def test_member_point_unchanged(self):
        cls = KSubsets(5, 2)
        rng = np.random.default_rng(1)
        u = random_hull_point(cls, rng)
        u = np.clip(u, 1e-6, 1 - 1e-6)
        got = cls.project(u)
        np.testing.assert_allclose(got, u, atol=1e-9)

    def test_symmetry_forces_uniform(self):
        got = KSubsets(3, 1).project(np.full(3, 0.5))
        np.testing.assert_allclose(got, 1.0 / 3.0, atol=1e-12)

    def test_matches_dual_sweep_oracle(self):
        rng = np.random.default_rng(2)
        cls = KSubsets(4, 2)
        for _ in range(25):
            ut = rng.uniform(0.02, 0.98, 4)
            got = cls.project(ut)
            want = dual_sweep_subset_projection(ut, 2)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_matches_generic_solver_on_subsets(self):
        rng = np.random.default_rng(3)
        cls = KSubsets(6, 3)
        eq = np.ones((1, 6))
        for _ in range(5):
            ut = rng.uniform(0.05, 0.95, 6)
            got = cls.project(ut)
            want = slsqp_entropy_projection(ut, eq, np.array([3.0]))
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_matches_generic_solver_on_diamond(self):
        rng = np.random.default_rng(4)
        cls = diamond()
        # source outflow = 1, conservation at a and b
        eq = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, -1.0, 0.0],
                [0.0, 1.0, 0.0, -1.0],
            ]
        )
        rhs = np.array([1.0, 0.0, 0.0])
        for _ in range(5):
            ut = rng.uniform(0.05, 0.95, 4)
            got = cls.project(ut)
            want = slsqp_entropy_projection(ut, eq, rhs)
            np.testing.assert_allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize(
        "cls_factory", [lambda: KSubsets(4, 2), lambda: KSubsets(6, 3), diamond, six_node_dag]
    )
    def test_idempotent_and_pythagorean(self, cls_factory):
        cls = cls_factory()
        rng = np.random.default_rng(5)
        verts = cls.vertices()
        for _ in range(60):
            ut = rng.uniform(0.01, 0.99, cls.num_components)
            u = cls.project(ut)
            assert cls.hull_residual(u) <= 1e-9
            np.testing.assert_allclose(cls.project(u), u, atol=1e-9)
            for v in verts:
                lhs = binary_relative_entropy(v, np.clip(u, 1e-12, 1 - 1e-12))
                rhs = binary_relative_entropy(v, ut)
                assert lhs <= rhs + 1e-8

    def test_subset_projection_preserves_order(self):
        rng = np.random.default_rng(6)
        cls = KSubsets(6, 2)
        for _ in range(20):
            ut = rng.uniform(0.01, 0.99, 6)
            u = cls.project(ut)
            order = np.argsort(ut)
            assert np.all(np.diff(u[order]) >= -1e-12)

    def test_bridge_edge_forced_to_one(self):
        cls = bridge_dag()
        u = cls.project(np.array([0.3, 0.5, 0.5, 0.5, 0.5]))
        assert abs(u[0] - 1.0) <= 1e-8
        assert abs(u[1] + u[2] - 1.0) <= 1e-8

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        product = ExplicitVertices([[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]])
        for cls in (six_node_dag(), product):
            mat = rng.uniform(0.05, 0.95, size=(4, cls.num_components))
            batch = cls.project_batch(mat)
            for row_in, row_out in zip(mat, batch):
                np.testing.assert_allclose(cls.project(row_in), row_out, atol=1e-9)


class TestDecomposition:
    def test_vertex_decomposes_to_itself(self):
        cls = KSubsets(5, 2)
        v = cls.vertices()[3]
        d = cls.decompose(v)
        assert d.concepts.shape[0] == 1
        np.testing.assert_allclose(d.weights, [1.0])
        np.testing.assert_array_equal(d.concepts[0], v)

    def test_two_dim_unique_decomposition(self):
        d = KSubsets(2, 1).decompose(np.array([0.3, 0.7]))
        got = {tuple(c): w for c, w in zip(d.concepts, d.weights)}
        assert got[(1.0, 0.0)] == pytest.approx(0.3, abs=1e-12)
        assert got[(0.0, 1.0)] == pytest.approx(0.7, abs=1e-12)

    def test_diamond_midpoint(self):
        cls = diamond()
        verts = cls.vertices()
        mid = verts.mean(axis=0)
        d = cls.decompose(mid)
        assert d.concepts.shape[0] == 2
        np.testing.assert_allclose(sorted(d.weights), [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize(
        "cls_factory",
        [lambda: KSubsets(4, 2), lambda: KSubsets(6, 3), lambda: KSubsets(5, 5), diamond, six_node_dag],
    )
    def test_roundtrip_on_random_hull_points(self, cls_factory):
        cls = cls_factory()
        rng = np.random.default_rng(8)
        for _ in range(60):
            u = random_hull_point(cls, rng)
            d = cls.decompose(u)
            assert d.concepts.shape[0] <= 2 * cls.num_components
            assert np.all(d.weights >= 0.0)
            assert abs(d.weights.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(d.usage(), u, atol=1e-8)
            for row in d.concepts:
                assert cls.hull_residual(row) <= 1e-9

    def test_rejects_infeasible_point(self):
        with pytest.raises(ValueError):
            KSubsets(4, 2).decompose(np.array([0.9, 0.9, 0.9, 0.9]))

    def test_decomposition_validation(self):
        with pytest.raises(ValueError):
            Decomposition(np.array([[1.0, 0.0]]), np.array([0.5]))


class TestExplicitVertices:
    def test_single_component_binary(self):
        cls = ExplicitVertices([[0.0], [1.0]])
        u = cls.project(np.array([0.37]))
        np.testing.assert_allclose(u, [0.37])
        d = cls.decompose(np.array([0.37]))
        np.testing.assert_allclose(d.usage(), [0.37], atol=1e-12)

    def test_pinned_coordinates(self):
        cls = ExplicitVertices([[1.0, 0.0], [1.0, 1.0]])
        u = cls.project(np.array([0.2, 0.6]))
        np.testing.assert_allclose(u, [1.0, 0.6])

    def test_rejects_non_product(self):
        with pytest.raises(ValueError):
            ExplicitVertices([[0.0, 0.0], [1.0, 1.0]])

    def test_product_roundtrip(self):
        cls = ExplicitVertices([[0, 0], [0, 1], [1, 0], [1, 1]])
        rng = np.random.default_rng(9)
        for _ in range(20):
            u = rng.uniform(0, 1, 2)
            d = cls.decompose(u)
            np.testing.assert_allclose(d.usage(), u, atol=1e-10)


class TestUnconstrainedUpdate:
    def test_equal_losses_identity(self):
        u = np.array([0.2, 0.5, 0.9])
        x = np.array([0.3, -1.0, 2.0])
        np.testing.assert_allclose(unconstrained_update(u, x, x), u, atol=1e-12)

    def test_direct_value(self):
        got = unconstrained_update(np.array([0.5]), np.array([0.0]), np.array([math.log(2.0)]))
        np.testing.assert_allclose(got, [2.0 / 3.0], atol=1e-14)

    def test_matches_explicit_posterior(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            u = rng.uniform(0.05, 0.95, 4)
            x1 = rng.uniform(-2, 2, 4)
            x0 = rng.uniform(-2, 2, 4)
            want = u * np.exp(-x1) / (u * np.exp(-x1) + (1 - u) * np.exp(-x0))
            np.testing.assert_allclose(unconstrained_update(u, x1, x0), want, atol=1e-12)

    def test_rejects_non_finite_losses(self):
        with pytest.raises(ValueError):
            unconstrained_update(np.array([0.5]), np.array([math.inf]), np.array([0.0]))

    def test_project_then_decompose_roundtrip(self):
        cls = KSubsets(3, 1)
        u = cls.project(np.full(3, 0.5))
        d = cls.decompose(u)
        np.testing.assert_allclose(d.usage(), u, atol=1e-9)


def played_u_tildes(cls, rounds=4):
    """The unprojected rows of every learner over the first rounds of a game on cls."""
    game = ci.make_game(cls, t_max=rounds)
    rng = np.random.default_rng(9)
    rows = []
    for _ in range(rounds):
        rows.append(game.u_tilde.copy())
        ci.play(game)
        ci.observe(game, rng.uniform(-1.0, 1.0, cls.num_components))
    return np.vstack(rows)


JACOBIAN_DAGS = {
    "grid6": lambda: grid_dag(6),
    "diamond": diamond,
    "parallel_edges": parallel_edge_dag,
    "source_to_sink_edge": direct_edge_dag,
}


class TestNewtonJacobian:
    """The Laplacian-structured Jacobian has the dense product's bits."""

    @pytest.mark.parametrize("name", list(JACOBIAN_DAGS))
    def test_matches_dense_product_bytes(self, name):
        cls = JACOBIAN_DAGS[name]()
        rng = np.random.default_rng(8)
        k = cls.num_components
        for n in (1, 9, 14):
            u = rng.uniform(0.0, 1.0, (n, k))
            draws = [
                u * (1.0 - u),
                rng.uniform(0.0, 0.25, (n, k)),
                rng.uniform(0.0, 1e-12, (n, k)),  # near 0
                0.25 - rng.uniform(0.0, 1e-12, (n, k)),  # near 1/4
                rng.choice([0.0, 5e-324, 1e-300, 1e-16, 0.1, 0.25 - 2**-54, 0.25], (n, k)),
            ]
            for d in draws:
                want = newton_jacobian_dense(cls._inc, d)
                assert cls._jacobian(d).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", list(JACOBIAN_DAGS))
    def test_projection_bytes_match_dense_jacobian(self, name, monkeypatch):
        cls = JACOBIAN_DAGS[name]()
        mat = played_u_tildes(cls)
        # Newton converges on every row, so the patched Jacobian is what gets used
        u, failed = cls._project_newton(cls._interior_rows(mat))
        assert isinstance(u, np.ndarray) and not failed.any()
        got = cls.project_batch(mat)
        monkeypatch.setattr(cls, "_jacobian", lambda d: newton_jacobian_dense(cls._inc, d))
        assert cls.project_batch(mat).tobytes() == got.tobytes()


def criterion_8_points():
    """The random rows criterion 8 projects, one (1000, K) array per class."""
    rng = np.random.default_rng(777)
    return [rng.uniform(0.01, 0.99, size=(1000, k)) for k in (6, 8, 4, 8)]


class TestRowwiseFallback:
    """Only the rows Newton fails to converge are projected cyclically."""

    @pytest.mark.parametrize("make, which", [(diamond, 2), (six_node_dag, 3)])
    def test_cyclic_sees_only_unconverged_rows(self, make, which, monkeypatch):
        cls = make()
        points = criterion_8_points()[which]
        mat = cls._interior_rows(points)
        _, failed = cls._project_newton(mat)
        assert 0 < failed.sum() < 100
        seen = []
        cyclic = cls._project_cyclic
        monkeypatch.setattr(cls, "_project_cyclic", lambda rows: seen.append(rows) or cyclic(rows))
        proj = cls.project_batch(points)
        assert np.vstack(seen).tobytes() == mat[failed].tobytes()
        assert np.max(cls._equality_residuals(proj)) <= 1e-9
        single = np.array([cls.project(row) for row in points])
        assert np.max(np.abs(proj - single)) <= 1e-9

    def test_singular_and_stalled_rows_fall_back_alone(self, monkeypatch):
        # criterion 8's diamond rows 28 (the Jacobian turns exactly singular)
        # and 191 (its backtracking runs out), next to rows 0 and 1, which converge
        cls = diamond()
        mat = criterion_8_points()[2][[0, 28, 1, 191]]
        solves, seen, jacobians = [], [], []
        solve, cyclic, jacobian = np.linalg.solve, cls._project_cyclic, cls._jacobian

        def recorded_solve(a, b):
            solves.append((a.copy(), True))
            out = solve(a, b)
            solves[-1] = (solves[-1][0], False)
            return out

        monkeypatch.setattr(np.linalg, "solve", recorded_solve)
        monkeypatch.setattr(cls, "_project_cyclic", lambda rows: seen.append(rows) or cyclic(rows))
        monkeypatch.setattr(cls, "_jacobian", lambda d: jacobians.append(d) or jacobian(d))
        proj = cls.project_batch(mat)
        monkeypatch.undo()
        # one batched solve raised, on a stack where only row 28's Jacobian is singular and
        # row 191 is already frozen (I): it failed before, through exhausted backtracking
        raised = [a for a, r in solves if a.ndim == 3 and r]
        assert len(raised) == 1
        assert singular_former(raised[0]).tolist() == [False, True, False, False]
        assert np.array_equal(raised[0][3], np.eye(3))
        # the rows were then solved alone, and only row 28's own solve raised
        assert [r for a, r in solves if a.ndim == 2] == [False, True, False, False]
        _, failed = cls._project_newton(cls._interior_rows(mat))
        assert failed.tolist() == [False, True, False, True]
        # the failed rows count as converged, so Newton stops well before its 80-step cap
        assert len(jacobians) < 20
        assert [rows.tobytes() for rows in seen] == [mat[1:2].tobytes(), mat[3:4].tobytes()]
        assert np.max(cls._equality_residuals(proj)) <= 1e-9
        for row_in, row_out in zip(mat, proj):
            np.testing.assert_allclose(cls.project(row_in), row_out, atol=1e-9)

    def test_rowwise_solves_give_the_batched_bits(self):
        rng = np.random.default_rng(11)
        for cls in (grid_dag(6), diamond(), six_node_dag()):
            for n in (1, 7, 40):
                u = rng.uniform(0.0, 1.0, (n, cls.num_components))
                jac = cls._jacobian(u * (1.0 - u))
                diff = rng.uniform(-1.0, 1.0, (n, jac.shape[1]))
                batched = np.linalg.solve(jac, diff[:, :, None])[:, :, 0]
                rowwise = np.array([np.linalg.solve(j, b) for j, b in zip(jac, diff)])
                assert rowwise.tobytes() == batched.tobytes()

    def test_saturated_sweeps_raise_no_warning(self):
        # on the bridge DAG the sweeps drive edge s -> m to exactly 1, whose logit is +inf
        cls = bridge_dag()
        points = np.random.default_rng(3).uniform(0.01, 0.99, (200, cls.num_components))
        _, failed = cls._project_newton(cls._interior_rows(points))
        assert failed.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cls.project_batch(points)
        assert got.tobytes() == project_batch_former(cls, points).tobytes()


EQUALITY_DAGS = dict(
    JACOBIAN_DAGS,
    six_node=six_node_dag,
    bridge=bridge_dag,
    unordered=unordered_dag,
    single_edge=lambda: DagPaths(["s", "t"], [("s", "t", 1)], "s", "t"),
)

EQUALITY_CLASSES = dict(
    EQUALITY_DAGS,
    subsets_6_3=lambda: KSubsets(6, 3),
    subsets_4_0=lambda: KSubsets(4, 0),
    subsets_4_4=lambda: KSubsets(4, 4),
    explicit_pinned=lambda: ExplicitVertices([[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]),
    explicit_free=lambda: ExplicitVertices([[0, 0], [0, 1], [1, 0], [1, 1]]),
    explicit_point=lambda: ExplicitVertices([[0, 1, 1]]),
)


class TestOneEqualityMatrix:
    """Each class's ``_inc`` and ``_rhs`` say what the former per-class code said."""

    @pytest.mark.parametrize("name", list(EQUALITY_DAGS))
    def test_dag_tables_match_former_bytes(self, name):
        cls = EQUALITY_DAGS[name]()
        _, *want_tables = dag_constraints_former(cls)
        tables = (cls._inc, cls._rhs, cls._jac_entries, cls._jac_terms)
        for got, want in zip(tables, want_tables):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert cls.num_vertices() == num_vertices_former(cls) == cls.vertices().shape[0]

    @pytest.mark.parametrize("name", list(EQUALITY_CLASSES))
    def test_residuals_match_former(self, name):
        cls = EQUALITY_CLASSES[name]()
        assert set(np.unique(cls._inc)) <= {-1.0, 0.0, 1.0}
        assert cls._inc.shape == (cls._rhs.size, cls.num_components)
        verts = cls.vertices()
        assert not cls._equality_residuals(verts).any()
        rng = np.random.default_rng(12)
        inside = rng.dirichlet(np.ones(verts.shape[0]), 300) @ verts
        for mat in (inside, rng.uniform(0.0, 1.0, (300, cls.num_components))):
            got, want = cls._equality_residuals(mat), equality_residuals_former(cls, mat)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        for u in inside[:20]:
            want = float(equality_residuals_former(cls, u[None])[0])
            assert abs(cls.hull_residual(u) - want) <= 1e-15

    @pytest.mark.parametrize(
        "nodes, edges",
        [
            (["s", "t", "x"], [("s", "t", 1), ("s", "x", 2)]),
            (["x", "s", "t"], [("x", "s", 1), ("s", "t", 2)]),
            (["s", "t", "y"], [("s", "t", 1), ("t", "y", 2)]),
            (
                ["s", "a", "t", "x", "y"],
                [("x", "y", 3), ("s", "a", 1), ("a", "t", 2), ("a", "x", 4)],
            ),
            (["s", "a", "b", "t"], [("s", "a", 1), ("b", "t", 2), ("s", "t", 3)]),
        ],
    )
    def test_dead_edge_messages_unchanged(self, nodes, edges, monkeypatch):
        with pytest.raises(ValueError) as exc:
            DagPaths(nodes, edges, "s", "t")
        monkeypatch.setattr(DagPaths, "_check_edges_usable", lambda self: None)
        cls = DagPaths(nodes, edges, "s", "t")
        monkeypatch.undo()
        assert str(exc.value) == f"edges {dead_edges_former(cls)} lie on no source-sink path"


class TestFormerProjectionBytes:
    """``project_batch`` gives the bytes of the former constraint list and second solve."""

    @pytest.mark.parametrize("make, which", [(diamond, 2), (six_node_dag, 3)])
    def test_criterion_8_points(self, make, which):
        cls = make()
        points = criterion_8_points()[which]
        newton, failed = cls._project_newton(cls._interior_rows(points))
        want_newton, want_failed = project_newton_former(cls, cls._interior_rows(points))
        assert failed.any()
        assert failed.tobytes() == want_failed.tobytes()
        assert newton.tobytes() == want_newton.tobytes()
        assert cls.project_batch(points).tobytes() == project_batch_former(cls, points).tobytes()

    def test_edge_on_every_path(self):
        cls = bridge_dag()
        points = np.random.default_rng(13).uniform(0.01, 0.99, (200, cls.num_components))
        assert cls.project_batch(points).tobytes() == project_batch_former(cls, points).tobytes()

    def test_played_grid_rows(self):
        cls = grid_dag(6)
        mat = played_u_tildes(cls, rounds=43)
        assert mat.shape == (301, 60)
        assert cls.project_batch(mat).tobytes() == project_batch_former(cls, mat).tobytes()

import json
import math
import warnings

import numpy as np
import pytest

from squint import component_iprod as ci
from squint import polytopes as pt
from squint.polytopes import (
    PROJECTION_RESIDUAL,
    ConceptClass,
    DagPaths,
    Decomposition,
    ExplicitVertices,
    KSubsets,
    ProjectionError,
)
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
    project_subsets_former,
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


def late_bridge_dag():
    """A diamond ahead of the edge m -> t, which lies on every path."""
    edges = [("s", "a", 1), ("s", "b", 2), ("a", "m", 3), ("b", "m", 4), ("m", "t", 5)]
    return DagPaths(["s", "a", "b", "m", "t"], edges, "s", "t")


def single_edge_dag():
    return DagPaths(["s", "t"], [("s", "t", 1)], "s", "t")


def two_edge_path_dag():
    return DagPaths(["s", "m", "t"], [("s", "m", 1), ("m", "t", 2)], "s", "t")


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

    # clamping keeps nan: the product set returned it, and the Newton ran
    # 80 steps before raising ProjectionError "worst nan"
    @pytest.mark.parametrize(
        "cls_factory",
        [lambda: ExplicitVertices([[0, 0], [0, 1], [1, 0], [1, 1]]), lambda: KSubsets(4, 2), diamond],
    )
    def test_rejects_nan_rows(self, cls_factory):
        cls = cls_factory()
        row = np.full(cls.num_components, 0.5)
        row[0] = math.nan
        with pytest.raises(ValueError, match="numbers"):
            cls.project(row)
        with pytest.raises(ValueError, match="numbers"):
            cls.project_batch(np.vstack((np.full(cls.num_components, 0.5), row)))


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

    # projected points miss the hull's equalities by up to 1e-9, so the peel
    # must stop at what is left rather than at an exact zero
    @pytest.mark.parametrize(
        "cls_factory", [lambda: KSubsets(6, 3), lambda: KSubsets(9, 4), diamond, six_node_dag]
    )
    def test_roundtrip_on_projected_points(self, cls_factory):
        cls = cls_factory()
        rng = np.random.default_rng(9)
        for _ in range(100):
            u = cls.project(rng.uniform(0.01, 0.99, cls.num_components))
            d = cls.decompose(u)
            assert d.concepts.shape[0] <= 2 * cls.num_components
            assert np.all(d.weights >= 0.0) and abs(d.weights.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(d.usage(), u, atol=1e-8)

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
        got = cls.project_batch(mat)
        monkeypatch.setattr(cls, "_jacobian", lambda d: newton_jacobian_dense(cls._inc, d))
        assert cls.project_batch(mat).tobytes() == got.tobytes()


def criterion_8_points():
    """The random rows criterion 8 projects, one (1000, K) array per class."""
    rng = np.random.default_rng(777)
    return [rng.uniform(0.01, 0.99, size=(1000, k)) for k in (6, 8, 4, 8)]


def former_newton_rows(cls, points):
    """The former Newton iteration's rows and the mask of the rows it converged."""
    u, failed = project_newton_former(cls, cls._interior_rows(points))
    return u, ~failed


class TestDampedNewton:
    """One damped Newton iteration projects every row, the rows the former
    Newton iteration left to its cyclic fallback included."""

    @pytest.mark.parametrize("make, which", [(diamond, 2), (six_node_dag, 3)])
    def test_former_fallback_rows_converge_in_batch(self, make, which):
        cls = make()
        points = criterion_8_points()[which]
        _, converged = former_newton_rows(cls, points)
        assert 0 < (~converged).sum() < 100
        proj = cls.project_batch(points)
        assert np.max(cls._equality_residuals(proj)) <= 1e-9
        # a lone row stops at residual 1e-9, about 1e-9 from the projection; in the
        # batch it keeps stepping until every row has converged
        single = np.array([cls.project(row) for row in points])
        assert np.max(np.abs(proj - single)) <= 1e-8

    def test_singular_and_stalled_rows_converge(self):
        # criterion 8's diamond rows 28 (the former Jacobian turned exactly singular)
        # and 191 (its residual backtracking ran out), next to rows 0 and 1
        cls = diamond()
        mat = criterion_8_points()[2][[0, 28, 1, 191]]
        _, converged = former_newton_rows(cls, mat)
        assert converged.tolist() == [True, False, True, False]
        proj = cls.project_batch(mat)
        assert np.max(cls._equality_residuals(proj)) <= 1e-9
        for row_in, row_out in zip(mat, proj):
            np.testing.assert_allclose(cls.project(row_in), row_out, atol=1e-8)
        assert np.max(np.abs(proj - project_batch_former(cls, mat))) <= 1e-8

    def test_bridge_rows_raise_no_warning(self):
        # the edge s -> m is pinned to exactly 1, whose logit is +inf
        cls = bridge_dag()
        points = np.random.default_rng(3).uniform(0.01, 0.99, (200, cls.num_components))
        _, converged = former_newton_rows(cls, points)
        assert not converged.all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cls.project_batch(points)
        assert np.all(got[:, 0] == 1.0)
        assert np.max(np.abs(got - project_batch_former(cls, points))) <= 1e-8


class TestFormerFailures:
    """Rows the former projection raised on or took seconds per row for."""

    @pytest.mark.parametrize(
        "make, points",
        [
            (late_bridge_dag, np.random.default_rng(3).uniform(0.01, 0.99, (200, 5))),
            (lambda: grid_dag(6), np.random.default_rng(0).uniform(0.01, 0.99, (300, 60))),
        ],
        ids=["late_bridge", "grid6"],
    )
    def test_rows_project(self, make, points):
        cls = make()
        proj = cls.project_batch(points)
        assert np.max(cls._equality_residuals(proj)) <= 1e-9
        assert np.max(np.abs(cls.project_batch(proj) - proj)) <= 1e-9
        want, converged = former_newton_rows(cls, points)
        assert 0 < (~converged).sum() < 10
        assert np.max(np.abs(proj[converged] - want[converged])) <= 1e-8

    def test_saturated_grid_rows_converge(self):
        cls = grid_dag(6)
        edge = np.arange(cls.num_components)
        rows = [np.full(edge.size, 1.0 - 1e-12)]
        rows += [np.where(edge % step == 0, 1.0 - 1e-12, 0.5) for step in (2, 3)]
        for row in rows:
            assert cls.hull_residual(cls.project(row)) <= 1e-9

    def test_ill_conditioned_row_raises_projection_error(self):
        # the projection's u(1-u) spans over 40 orders of magnitude: a float64 limit
        row = np.random.default_rng(1).choice([0.5, 1.0 - 1e-12], 60)
        with pytest.raises(ProjectionError):
            grid_dag(6).project(row)

    @pytest.mark.parametrize("make", [single_edge_dag, two_edge_path_dag])
    def test_single_path_projects_to_ones(self, make):
        cls = make()
        points = np.random.default_rng(14).uniform(0.01, 0.99, (5, cls.num_components))
        assert np.array_equal(cls.project_batch(points), np.ones_like(points))


EQUALITY_DAGS = dict(
    JACOBIAN_DAGS,
    six_node=six_node_dag,
    bridge=bridge_dag,
    unordered=unordered_dag,
    single_edge=single_edge_dag,
    late_bridge=late_bridge_dag,
    two_edge_path=two_edge_path_dag,
)

# the DAGs with an edge on every path, whose rows are contracted and pinned by design
PINNED_DAGS = {"bridge", "single_edge", "late_bridge", "two_edge_path"}

EQUALITY_CLASSES = dict(
    EQUALITY_DAGS,
    subsets_6_3=lambda: KSubsets(6, 3),
    subsets_4_0=lambda: KSubsets(4, 0),
    subsets_4_4=lambda: KSubsets(4, 4),
    explicit_pinned=lambda: ExplicitVertices([[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]),
    explicit_free=lambda: ExplicitVertices([[0, 0], [0, 1], [1, 0], [1, 1]]),
    explicit_point=lambda: ExplicitVertices([[0, 1, 1]]),
)


def row_change(frm: np.ndarray, to: np.ndarray) -> np.ndarray:
    """The matrix M with to = M @ frm, for two row sets spanning the same space."""
    change = np.linalg.lstsq(frm.T, to.T, rcond=None)[0].T
    np.testing.assert_allclose(change @ frm, to, rtol=0.0, atol=1e-12)
    return change


class TestOneEqualityMatrix:
    """Each class's ``_inc`` and ``_rhs`` say what the former per-class code said.

    A DAG with an edge on every path says it in other rows: its flow rows
    contract the forced edges and identity rows pin them to 1.  Those rows
    and the former ones then express each other.
    """

    @pytest.mark.parametrize("name", list(EQUALITY_DAGS))
    def test_dag_tables_match_former_bytes(self, name):
        cls = EQUALITY_DAGS[name]()
        _, *want_tables = dag_constraints_former(cls)
        assert cls.num_vertices() == num_vertices_former(cls) == cls.vertices().shape[0]
        forced = cls.vertices().min(axis=0) == 1.0
        assert np.array_equal(cls._pinned, forced) and forced.any() == (name in PINNED_DAGS)
        if name not in PINNED_DAGS:
            tables = (cls._inc, cls._rhs, cls._jac_entries, cls._jac_terms)
            for got, want in zip(tables, want_tables):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            return
        flows, pins = cls._inc[: cls._flows], cls._inc[cls._flows :]
        assert np.array_equal(pins, np.eye(cls.num_components)[forced])
        assert np.all(cls._rhs[cls._flows :] == 1.0) and not flows[:, forced].any()
        new = np.column_stack((cls._inc, cls._rhs))
        former = np.column_stack(want_tables[:2])
        assert np.linalg.matrix_rank(new) == np.linalg.matrix_rank(former) == new.shape[0]
        row_change(former, new)
        if cls._flows:
            d = np.random.default_rng(15).uniform(0.0, 0.25, (9, cls.num_components))
            assert cls._jacobian(d).tobytes() == newton_jacobian_dense(flows, d).tobytes()

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
            if name in PINNED_DAGS:
                # each residual bounds the other through the rows that express one set by the other
                new = np.column_stack((cls._inc, cls._rhs))
                former = np.column_stack(dag_constraints_former(cls)[1:3])
                to_new, to_former = row_change(former, new), row_change(new, former)
                assert np.all(got <= np.abs(to_new).sum(axis=1).max() * want + 1e-14)
                assert np.all(want <= np.abs(to_former).sum(axis=1).max() * got + 1e-14)
            else:
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
    def test_dead_edge_messages_unchanged(self, nodes, edges):
        with pytest.raises(ValueError) as exc:
            DagPaths(nodes, edges, "s", "t")
        dead = dead_edges_former(edges, "s", "t")
        assert str(exc.value) == f"edges {dead} lie on no source-sink path"


class TestFormerProjectionBytes:
    """``project_batch`` gives the former projection: its bytes on played rows, and
    within 1e-8 on rows where the former needed its cyclic fallback."""

    @pytest.mark.parametrize("make, which", [(diamond, 2), (six_node_dag, 3)])
    def test_criterion_8_points(self, make, which):
        cls = make()
        points = criterion_8_points()[which]
        _, converged = former_newton_rows(cls, points)
        assert not converged.all()
        got, want = cls.project_batch(points), project_batch_former(cls, points)
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_edge_on_every_path(self):
        cls = bridge_dag()
        points = np.random.default_rng(13).uniform(0.01, 0.99, (200, cls.num_components))
        got, want = cls.project_batch(points), project_batch_former(cls, points)
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_played_grid_rows(self):
        cls = grid_dag(6)
        mat = played_u_tildes(cls, rounds=43)
        assert mat.shape == (301, 60)
        assert cls.project_batch(mat).tobytes() == project_batch_former(cls, mat).tobytes()


SATURATED_VALUES = np.array([1e-12, 1.0 - 1e-12, 0.5, 1e-6, 1.0 - 1e-6])


def saturated_batches(count, seed, k=None, m=None, rows=4):
    """(K, m, rows) triples whose rows draw from two of ``SATURATED_VALUES``; K in [2, 300)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kk = int(rng.integers(2, 300)) if k is None else k
        mm = int(rng.integers(1, kk)) if m is None else m
        pair = rng.choice(SATURATED_VALUES, 2, replace=False)
        yield kk, mm, rng.choice(pair, (rows, kk))


def parallel_dag(k):
    """k parallel edges from source to sink: the hull is that of ``KSubsets(k, 1)``."""
    return DagPaths(["s", "t"], [("s", "t", e + 1) for e in range(k)], "s", "t")


class TestOneProjection:
    """Every class projects through ``ConceptClass.project_batch``, and each gives
    the former per-class projection: the subset bisection within 1e-9, the
    single-concept subsets and the product sets bit for bit."""

    def test_no_class_defines_its_own(self):
        assert "project_batch" not in KSubsets.__dict__
        assert "project_batch" not in ExplicitVertices.__dict__
        # the benchmark's tracer wraps the name in DagPaths' own dict
        assert DagPaths.__dict__["project_batch"] is ConceptClass.project_batch

    @pytest.mark.parametrize("k, m", [(2, 1), (4, 2), (6, 3), (10, 1), (10, 9), (60, 17), (299, 150)])
    def test_subsets_match_former_bisection(self, k, m):
        cls = KSubsets(k, m)
        mat = np.random.default_rng(k + m).uniform(0.01, 0.99, (200, k))
        got = cls.project_batch(mat)
        assert np.max(np.abs(got - project_batch_former(cls, mat))) <= 1e-9
        assert np.max(cls._equality_residuals(got)) <= PROJECTION_RESIDUAL

    def test_saturated_subset_rows(self):
        # without the line search's two guards Newton raised on 10 of these 400 batches
        for k, m, mat in saturated_batches(400, 21):
            cls = KSubsets(k, m)
            got = cls.project_batch(mat)
            want = project_subsets_former(cls._interior_rows(mat), m)
            assert np.max(np.abs(got - want)) <= 1e-9
            assert np.max(cls._equality_residuals(got)) <= PROJECTION_RESIDUAL

    def test_saturated_parallel_dag_rows(self):
        # the former DAG projection raised on 46 of these 200 batches
        cls = parallel_dag(100)
        for _, _, mat in saturated_batches(200, 22, k=100, m=1):
            got = cls.project_batch(mat)
            want = project_subsets_former(cls._interior_rows(mat), 1)
            assert np.max(np.abs(got - want)) <= 1e-9
            assert np.max(cls._equality_residuals(got)) <= PROJECTION_RESIDUAL

    @pytest.mark.parametrize(
        "make",
        [
            lambda: KSubsets(1, 0),
            lambda: KSubsets(1, 1),
            lambda: KSubsets(5, 0),
            lambda: KSubsets(5, 5),
            lambda: ExplicitVertices([[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]),
            lambda: ExplicitVertices([[0, 0], [0, 1], [1, 0], [1, 1]]),
            lambda: ExplicitVertices([[0, 1, 1]]),
        ],
        ids=["subsets_1_0", "subsets_1_1", "subsets_5_0", "subsets_5_5", "pinned", "free", "point"],
    )
    def test_former_bits_without_flow_rows(self, make):
        cls = make()
        rng = np.random.default_rng(16)
        for mat in (rng.uniform(0.0, 1.0, (50, cls.num_components)), played_u_tildes(cls)):
            assert cls.project_batch(mat).tobytes() == project_batch_former(cls, mat).tobytes()

    def test_vanishing_step_raises(self, monkeypatch):
        # a dual that grows along every step fails the Armijo test until the step is nothing
        monkeypatch.setattr(pt, "_dual", lambda z, theta, rhs: np.abs(theta).sum(axis=1))
        with pytest.raises(ProjectionError, match="vanished"):
            KSubsets(4, 2).project(np.array([0.9, 0.9, 0.9, 0.1]))

"""Concept classes over {0,1}^K and their usage polytopes.

A concept class C is a finite set of 0/1 vectors (subsets of a ground set,
source-sink paths of a DAG, ...); the learner's collapsed action set is the
convex hull U = conv(C).  This module provides, per class:

- membership / feasibility residual for the hull's linear description,
- binary-relative-entropy (Bregman) projection onto the hull,
- decomposition of a hull point into a convex combination of concepts,
- exhaustive vertex enumeration for small-instance oracles.

Every class projects the same way: damped Newton on the projection's smooth
convex dual, for all rows at once.  A class names the equalities Newton
solves (the subset sum, a DAG's flow rows, none for a product set) and pins
the coordinates that are constant on its hull, such as a DAG's edges on
every path, when it is built; Newton then converges from any start.

Coordinates are clamped to [1e-12, 1 - 1e-12] before any projection: the
entropy geometry is undefined at the boundary and multiplicative updates
upstream can approach it.
"""

from __future__ import annotations

import itertools
import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProjectionError",
    "Decomposition",
    "ConceptClass",
    "KSubsets",
    "DagPaths",
    "ExplicitVertices",
    "INTERIOR_EPS",
]

INTERIOR_EPS = 1e-12
PROJECTION_RESIDUAL = 1e-9
DECOMPOSITION_RESIDUAL = 1e-8
MAX_NEWTON_STEPS = 80
ARMIJO = 0.25
DEFAULT_VERTEX_CAP = 10**5


class ProjectionError(RuntimeError):
    """The entropy projection's Newton iteration failed to reach the residual tolerance."""


def clamp_interior(u: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(u, dtype=float), INTERIOR_EPS, 1.0 - INTERIOR_EPS)


def _logit(u: np.ndarray) -> np.ndarray:
    return np.log(u) - np.log1p(-u)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(np.minimum(z, -z))  # exp(-|z|), keeping the sign of a nan z
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _dual(z: np.ndarray, theta: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The dual per row: sum_e softplus(z_e) - rhs . theta, where z = logit(w) + A^T theta."""
    return np.logaddexp(0.0, z).sum(axis=1) - theta @ rhs


@dataclass(frozen=True)
class Decomposition:
    """A hull point written as a convex combination of concepts."""

    concepts: np.ndarray  # (n, K), rows in {0, 1}
    weights: np.ndarray  # (n,), on the simplex

    def __post_init__(self):
        object.__setattr__(self, "concepts", np.asarray(self.concepts, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.concepts.ndim != 2 or self.weights.shape != (self.concepts.shape[0],):
            raise ValueError("need (n, K) concepts and (n,) weights")
        if np.any(self.weights < 0.0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must form a probability vector")

    def usage(self) -> np.ndarray:
        """The reconstructed point sum_i weights_i concepts_i."""
        return self.weights @ self.concepts


class ConceptClass(ABC):
    """Interface shared by all concept classes."""

    num_components: int
    _inc: np.ndarray  # (c, K), entries in {-1, 0, 1}: the hull's equalities are _inc @ u = _rhs
    _rhs: np.ndarray  # (c,)

    def _equality_residuals(self, mat: np.ndarray) -> np.ndarray:
        """Per row of mat, the max violation of the hull's equalities."""
        return np.abs(mat @ self._inc.T - self._rhs).max(axis=1, initial=0.0)

    def _set_projection(self, flows: int, pinned: np.ndarray, pin_values) -> None:
        """Newton solves _inc's first flows rows; the pinned coordinates, in none, take pin_values.

        The Newton Jacobian A diag(d) A^T of those rows A is kept as a list
        of terms: for each pair of rows (i, j) that meet column e, the flat
        entry i c + j, the column e and the sign A_ie A_je, in increasing e.
        """
        self._flows, self._pinned, self._pin_values = flows, pinned, np.asarray(pin_values, float)
        edge, row = np.nonzero(self._inc[:flows].T)  # the flow rows' nonzeros, edge-major
        sign = self._inc[row, edge]
        first = np.searchsorted(edge, edge)  # where each nonzero's column starts
        count = np.searchsorted(edge, edge, side="right") - first
        # each nonzero a, paired with the k-th nonzero b of its column
        a, k = np.nonzero(np.arange(count.max(initial=0)) < count[:, None])
        b = first[a] + k
        self._jac_pos, self._jac_edge = row[a] * flows + row[b], edge[a]
        self._jac_sign = sign[a] * sign[b]
        self._jac_index = self._jac_pos[:0]  # _jacobian's flat index for its last batch height

    def project_batch(self, u_tildes: np.ndarray) -> np.ndarray:
        """Row-wise entropy projection of interior points onto the hull.

        The projection of w onto the flow rows A u = rhs is
        u = sigmoid(logit(w) + A^T theta), where theta minimizes the dual
        F(theta) = sum_e softplus(logit(w_e) + (A^T theta)_e) - rhs . theta,
        smooth and convex with gradient A u - rhs and Hessian
        A diag(u(1-u)) A^T, from ``_jacobian``.  Damped Newton reaches its
        minimum from any start, since A leaves out the pinned coordinates.
        Each row's full step is halved until F drops by a quarter of the
        predicted decrease (Armijo; tested while the Newton decrement exceeds
        1e-6 and the residual the tolerance, so that F's rounding cannot mask
        a real decrease) and no flow row has all its coordinates at exactly 0
        or 1, which would make the next Jacobian singular.  Converged rows keep
        stepping until all have.  Raises ``ProjectionError`` on a Jacobian
        singular to working precision, a vanished step or the step cap.
        """
        mat = self._interior_rows(u_tildes)
        if not self._flows:
            mat[:, self._pinned] = self._pin_values
            return mat
        inc, rhs = self._inc[: self._flows], self._rhs[: self._flows]
        support = np.abs(inc.T)  # d @ support is the diagonal of A diag(d) A^T
        logits = _logit(mat)
        n = mat.shape[0]
        theta = np.zeros((n, self._flows))
        z, u, d = logits, mat, mat * (1.0 - mat)  # z = logits + theta @ inc, d = u(1-u)
        diff = u @ inc.T - rhs  # (n, c), the dual gradient
        res = np.abs(diff).max(axis=1)
        value = None  # F at theta, once a line search has needed it
        for _ in range(MAX_NEWTON_STEPS):
            if np.all(res <= PROJECTION_RESIDUAL):
                u[:, self._pinned] = self._pin_values
                return u
            try:
                step = np.linalg.solve(self._jacobian(d), diff[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                raise ProjectionError("singular Newton Jacobian in the entropy projection") from None
            decrement = (diff * step).sum(axis=1)
            search = (decrement > 1e-6) & (res > PROJECTION_RESIDUAL)
            searching = search.any()
            if searching and value is None:
                value = _dual(z, theta, rhs)
            drop = ARMIJO * decrement
            alpha = np.ones(n)
            cand_value = None
            cand_theta = theta - step  # alpha = 1
            while True:
                cand_z = cand_theta @ inc
                cand_z += logits
                cand_u = _sigmoid(cand_z)
                cand_d = 1.0 - cand_u
                cand_d *= cand_u
                worse = ~cand_d.all(axis=1)
                if worse.any():  # some u is exactly 0 or 1: check the Jacobian diagonal
                    worse = (cand_d @ support == 0.0).any(axis=1)
                if searching:
                    cand_value = _dual(cand_z, cand_theta, rhs)
                    worse |= search & ~(cand_value <= value - alpha * drop)
                if not worse.any():
                    break
                alpha = np.where(worse, 0.5 * alpha, alpha)
                cand_theta = theta - alpha[:, None] * step
                if np.any(worse & (cand_theta == theta).all(axis=1)):
                    raise ProjectionError("the entropy projection's line search step vanished")
            theta, z, u, d, value = cand_theta, cand_z, cand_u, cand_d, cand_value
            diff = u @ inc.T - rhs
            res = np.abs(diff).max(axis=1)
        raise ProjectionError(
            f"entropy projection missed residual {PROJECTION_RESIDUAL} after "
            f"{MAX_NEWTON_STEPS} Newton steps (worst {float(res.max()):.2e})"
        )

    def _jacobian(self, d: np.ndarray) -> np.ndarray:
        """A diag(d_r) A^T for each row d_r of d (n, K), as an (n, c, c) stack.

        ``np.bincount`` adds each entry's terms to +0.0 in increasing edge
        order and the signs are exact, which gives the bits of the dense
        product ``(A * d_r) @ A^T``.
        """
        n, c = d.shape[0], self._flows
        if self._jac_index.size != n * self._jac_pos.size:  # built once per batch height
            self._jac_index = (np.arange(n)[:, None] * (c * c) + self._jac_pos).ravel()
        vals = d[:, self._jac_edge] * self._jac_sign
        return np.bincount(self._jac_index, vals.ravel(), n * c * c).reshape(n, c, c)

    @abstractmethod
    def _peel(self, point: np.ndarray) -> tuple[list, list]:
        """Concepts and their unnormalized weights summing to a hull point in [0,1]^K."""

    @abstractmethod
    def num_vertices(self) -> int:
        """The number of concepts, counted without enumerating them."""

    @abstractmethod
    def vertices(self, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
        """All concepts as rows of a 0/1 matrix; raises when more than cap."""

    def _check_vertex_cap(self, cap: int) -> int:
        count = self.num_vertices()
        if count > cap:
            raise ValueError(f"{count} vertices exceed the cap {cap}")
        return count

    def project(self, u_tilde: np.ndarray) -> np.ndarray:
        """Entropy projection of one interior point onto the hull."""
        return self.project_batch(self._check_dim(u_tilde)[None, :])[0]

    def hull_residual(self, u: np.ndarray) -> float:
        """Max violation of the hull's linear description (incl. the box)."""
        u = self._check_dim(u)
        eq = self._equality_residuals(u[None, :])[0]
        return float(max(np.max(-u, initial=0.0), np.max(u - 1.0, initial=0.0), 0.0, eq))

    def decompose(self, u: np.ndarray) -> Decomposition:
        """Write a hull point as a convex combination of concepts."""
        u = self._check_dim(u)
        residual = self.hull_residual(u)
        if not residual <= DECOMPOSITION_RESIDUAL:
            raise ValueError(f"point is outside the hull (residual {residual:.2e})")
        concepts, weights = self._peel(np.clip(u, 0.0, 1.0).astype(float))
        w = np.asarray(weights)
        return Decomposition(np.asarray(concepts), w / w.sum())

    def _check_dim(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.num_components,):
            raise ValueError(f"expected a {self.num_components}-vector, got shape {u.shape}")
        return u

    def _interior_rows(self, u_tildes: np.ndarray) -> np.ndarray:
        mat = clamp_interior(np.atleast_2d(u_tildes))
        # clamped, so only a nan entry fails the second test
        if mat.shape[1] != self.num_components or not (mat > 0.0).all():
            raise ValueError(f"expected rows of {self.num_components} numbers")
        return mat


def _peel_greedy(residual: np.ndarray, pick) -> tuple[list, list]:
    """Peel concepts off a hull point: a subset sum, a box or a unit flow.

    ``pick(residual, mass)`` returns the next concept as a mask, and the
    concept takes the largest weight that keeps every residual coordinate in
    [0, mass].  For a flow the pick is a widest path and that weight its
    bottleneck: every source-sink path crosses each topological-prefix cut
    exactly once, so an edge off the path carries at most the remaining mass
    minus the bottleneck.  A point off the hull by up to
    ``DECOMPOSITION_RESIDUAL`` may leave that much mass unpeeled.
    """
    mass = 1.0
    concepts, weights = [], []
    for _ in range(2 * residual.size + 2):
        chosen = pick(residual, mass)
        lows = residual[chosen]
        highs = (mass - residual)[~chosen]
        p = min(
            float(lows.min()) if lows.size else mass,
            float(highs.min()) if highs.size else mass,
            mass,
        )
        if p <= 1e-12:  # exhausted, up to the point's own distance from the hull
            break
        concepts.append(chosen.astype(float))
        weights.append(p)
        residual = np.clip(residual - p * chosen, 0.0, None)
        mass -= p
    if mass > DECOMPOSITION_RESIDUAL:
        raise ValueError(f"peeling failed to exhaust the point (leftover mass {mass:.2e})")
    return concepts, weights


class KSubsets(ConceptClass):
    """All m-element subsets of {1..K}; hull = {u in [0,1]^K : sum u = m}."""

    def __init__(self, num_components: int, subset_size: int):
        if num_components < 1:
            raise ValueError("need at least one component")
        if not 0 <= subset_size <= num_components:
            raise ValueError(f"subset size must lie in [0, {num_components}]")
        self.num_components = num_components
        self.subset_size = subset_size
        self._inc = np.ones((1, num_components))
        self._rhs = np.array([float(subset_size)])
        single = subset_size in (0, num_components)  # one concept pins every coordinate
        pinned = np.full(num_components, single)
        self._set_projection(int(not single), pinned, np.full(pinned.sum(), float(subset_size > 0)))

    def _peel(self, point: np.ndarray) -> tuple[list, list]:
        m, k = self.subset_size, self.num_components
        if m == 0:
            return [np.zeros(k)], [1.0]
        return _peel_greedy(
            point,
            lambda residual, mass: np.isin(np.arange(k), np.argsort(-residual, kind="stable")[:m]),
        )

    def num_vertices(self) -> int:
        return math.comb(self.num_components, self.subset_size)

    def vertices(self, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
        count = self._check_vertex_cap(cap)
        rows = np.zeros((count, self.num_components))
        for i, combo in enumerate(itertools.combinations(range(self.num_components), self.subset_size)):
            rows[i, list(combo)] = 1.0
        return rows


class DagPaths(ConceptClass):
    """Indicator vectors of source-sink paths in a DAG.

    Edges carry 1-based indices that fix the coordinate order: coordinate k
    corresponds to the edge with index k+1.  Every edge must lie on at least
    one source-sink path, so the hull is the unit-flow polytope: outflow 1 at
    the source and flow conservation at every other non-sink node.
    """

    def __init__(self, nodes, edges, source, sink):
        if not isinstance(nodes, (list, tuple)):
            raise ValueError(f"DAG nodes must be a list of names, got {nodes!r}")
        self.nodes = list(nodes)
        self.source = source
        self.sink = sink
        if source not in self.nodes or sink not in self.nodes:
            raise ValueError("source and sink must appear in the node list")
        if source == sink:
            raise ValueError("source and sink must differ")
        self.num_components = len(edges)
        if self.num_components == 0:
            raise ValueError("need at least one edge")
        try:
            distinct = len(set(self.nodes)) == len(self.nodes)
        except TypeError:
            raise ValueError("node names must be hashable, such as strings or numbers") from None
        if not distinct:
            raise ValueError("node names must be distinct")
        if any(isinstance(e[2], bool) or not isinstance(e[2], (int, np.integer)) for e in edges):
            raise ValueError("edge indices must be integers")
        indices = sorted(int(e[2]) for e in edges)
        if indices != list(range(1, self.num_components + 1)):
            raise ValueError("edge indices must be exactly 1..K, each once")
        self._edge_from = [None] * self.num_components
        self._edge_to = [None] * self.num_components
        for frm, to, idx in edges:
            if frm not in self.nodes or to not in self.nodes:
                raise ValueError(f"edge ({frm}, {to}) references unknown nodes")
            self._edge_from[int(idx) - 1] = frm
            self._edge_to[int(idx) - 1] = to
        self._out = {n: [] for n in self.nodes}
        self._in = {n: [] for n in self.nodes}
        for e in range(self.num_components):
            self._out[self._edge_from[e]].append(e)
            self._in[self._edge_to[e]].append(e)
        self._topo = self._toposort()
        fwd = self._path_counts(self.source, self._topo, self._in, self._edge_from)
        bwd = self._path_counts(self.sink, self._topo[::-1], self._out, self._edge_to)
        self._num_paths = bwd[self.source]
        through = [fwd[frm] * bwd[to] for frm, to in zip(self._edge_from, self._edge_to)]
        dead = [e + 1 for e, paths in enumerate(through) if paths == 0]
        if dead:
            raise ValueError(f"edges {dead} lie on no source-sink path")
        self._build_constraints(np.array([paths == self._num_paths for paths in through]))

    @classmethod
    def from_json(cls, doc) -> "DagPaths":
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        if not isinstance(doc, dict):
            raise ValueError(f"DAG description must be an object, got {doc!r}")
        required = {"nodes", "edges", "source", "sink"}
        unknown = set(doc) - required
        if unknown:
            raise ValueError(f"unknown keys in DAG description: {sorted(unknown)}")
        missing = required - set(doc)
        if missing:
            raise ValueError(f"DAG description missing keys: {sorted(missing)}")
        edges = doc["edges"]
        if not isinstance(edges, list) or not all(
            isinstance(e, dict) and {"from", "to", "index"} <= set(e) for e in edges
        ):
            raise ValueError("DAG edges must be a list of objects with from, to and index")
        unknown = {key for e in edges for key in e} - {"from", "to", "index"}
        if unknown:
            raise ValueError(f"unknown keys in DAG edges: {sorted(unknown)}")
        edges = [(e["from"], e["to"], e["index"]) for e in edges]
        return cls(doc["nodes"], edges, doc["source"], doc["sink"])

    def _toposort(self):
        indeg = {n: 0 for n in self.nodes}
        for e in range(self.num_components):
            indeg[self._edge_to[e]] += 1
        frontier = [n for n in self.nodes if indeg[n] == 0]
        order = []
        while frontier:
            n = frontier.pop(0)
            order.append(n)
            for e in self._out[n]:
                to = self._edge_to[e]
                indeg[to] -= 1
                if indeg[to] == 0:
                    frontier.append(to)
        if len(order) != len(self.nodes):
            raise ValueError("graph contains a cycle")
        return order

    @staticmethod
    def _path_counts(start, order, edges_of, other_end) -> dict:
        """Per node, its number of paths to or from start; order puts edges' other ends first."""
        count = {}
        for n in order:
            count[n] = 1 if n == start else sum(count[other_end[e]] for e in edges_of[n])
        return count

    def _build_constraints(self, forced: np.ndarray):
        """Unit-flow rows over the free edges, then a pin row per forced edge.

        Flow rows: outflow 1 at the source, then conservation at each inner
        node with edges.  An edge on every path is its tail's only way out
        and its head's only way in; its two ends share one row, the sum of
        their own, in which its column cancels, and the sink's group has no
        row.  The pins u_e = 1 follow as identity rows.
        """
        group = {}  # node -> first node of its chain of forced edges
        for n in self._topo:
            ins = self._in[n]
            forced_in = len(ins) == 1 and forced[ins[0]]
            group[n] = group[self._edge_from[ins[0]]] if forced_in else n
        members = [self.source] + [
            n for n in self._topo if n != self.source and (self._out[n] or self._in[n])
        ]
        members = [n for n in members if group[n] != group[self.sink]]
        rows = {g: i for i, g in enumerate(dict.fromkeys(group[n] for n in members))}
        c, k = len(rows), self.num_components
        flow = np.zeros((c, k))
        for n in members:
            flow[rows[group[n]], self._out[n]] += 1.0
            flow[rows[group[n]], self._in[n]] -= 1.0
        self._inc = np.vstack((flow, np.eye(k)[forced]))
        self._rhs = np.concatenate((np.zeros(c), np.ones(int(forced.sum()))))
        if c:
            self._rhs[0] = 1.0  # the source's row; with no row the source is in the sink's group
        self._set_projection(c, forced, self._rhs[c:])

    # bench/tracer.py times DagPaths' projection by wrapping this name in its own class dict
    project_batch = ConceptClass.project_batch

    def num_vertices(self) -> int:
        return self._num_paths

    def vertices(self, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
        self._check_vertex_cap(cap)
        rows = []

        def walk(node, picked):
            if node == self.sink:
                row = np.zeros(self.num_components)
                row[picked] = 1.0
                rows.append(row)
                return
            for e in self._out[node]:
                walk(self._edge_to[e], picked + [e])

        walk(self.source, [])
        return np.asarray(rows)

    def _peel(self, flow: np.ndarray) -> tuple[list, list]:
        return _peel_greedy(flow, lambda residual, mass: self._widest_path(residual))

    def _widest_path(self, flow: np.ndarray) -> np.ndarray:
        """Mask of a source-sink path with the largest least flow; every edge is on some path."""
        best = {n: -1.0 for n in self.nodes}
        pred = {}
        best[self.source] = math.inf
        for n in self._topo:
            for e in self._out[n]:
                cand = min(best[n], float(flow[e]))
                to = self._edge_to[e]
                if cand > best[to]:
                    best[to] = cand
                    pred[to] = e
        path, node = np.zeros(self.num_components, dtype=bool), self.sink
        while node != self.source:
            path[pred[node]] = True
            node = self._edge_from[pred[node]]
        return path


class ExplicitVertices(ConceptClass):
    """A concept class given by an explicit vertex list.

    Supported when the vertex set is a product of per-coordinate value sets
    (each coordinate varies freely over {0,1} or is pinned), which makes the
    hull an axis-aligned box; projection and decomposition are then exact and
    cheap.  Non-product vertex lists are rejected: their hulls have no linear
    description short of facet enumeration, which this artifact does not do.
    """

    def __init__(self, vertices):
        mat = np.atleast_2d(np.asarray(vertices, dtype=float))
        if mat.size == 0 or not np.all((mat == 0.0) | (mat == 1.0)):
            raise ValueError("vertices must be nonempty 0/1 vectors")
        mat = np.unique(mat, axis=0)
        self.num_components = mat.shape[1]
        self._vertices = mat
        value_sets = [np.unique(mat[:, k]) for k in range(self.num_components)]
        prod = 1
        for vs in value_sets:
            prod *= len(vs)
        if prod != mat.shape[0]:
            raise ValueError(
                "vertex list is not a product set; use a structured concept class instead"
            )
        pinned = np.array([len(vs) == 1 for vs in value_sets])
        self._inc = np.eye(self.num_components)[pinned]
        self._rhs = np.array([vs[0] for vs in value_sets if len(vs) == 1])
        self._set_projection(0, pinned, self._rhs)

    def _peel(self, point: np.ndarray) -> tuple[list, list]:
        return _peel_greedy(point, lambda residual, mass: residual >= 0.5 * mass)

    def num_vertices(self) -> int:
        return self._vertices.shape[0]

    def vertices(self, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
        self._check_vertex_cap(cap)
        return self._vertices.copy()


"""Concept classes over {0,1}^K and their usage polytopes.

A concept class C is a finite set of 0/1 vectors (subsets of a ground set,
source-sink paths of a DAG, ...); the learner's collapsed action set is the
convex hull U = conv(C).  This module provides, per class:

- membership / feasibility residual for the hull's linear description,
- binary-relative-entropy (Bregman) projection onto the hull,
- decomposition of a hull point into a convex combination of concepts,
- exhaustive vertex enumeration for small-instance oracles.

Projections exploit that every hull constraint here is linear with +-1
coefficients: the projection onto a single such equality moves all incident
coordinates by a common shift in logit space, u_e -> sigmoid(logit(u_e) +/-
lambda), with the shift found by monotone root-finding.  The subset class
needs exactly one such shift.  The flow polytope of a DAG solves for all its
conservation equalities' shifts at once by damped Newton on the dual; rows
Newton fails to converge are finished by cycling Bregman projections through
the equalities until the residual is met (for affine equalities the cyclic
method converges to the projection onto the intersection without correction
terms).

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
MAX_SWEEPS = 10**4
DEFAULT_VERTEX_CAP = 10**5


class ProjectionError(RuntimeError):
    """Cyclic projection failed to reach the residual tolerance."""


def clamp_interior(u: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(u, dtype=float), INTERIOR_EPS, 1.0 - INTERIOR_EPS)


def _logit(u: np.ndarray) -> np.ndarray:
    return np.log(u) - np.log1p(-u)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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

    @abstractmethod
    def project_batch(self, u_tildes: np.ndarray) -> np.ndarray:
        """Row-wise entropy projection of interior points onto the hull."""

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

    def contains(self, u: np.ndarray, tol: float = DECOMPOSITION_RESIDUAL) -> bool:
        return self.hull_residual(u) <= tol

    def decompose(self, u: np.ndarray) -> Decomposition:
        """Write a hull point as a convex combination of concepts."""
        u = self._check_dim(u)
        if not self.contains(u):
            raise ValueError(f"point is outside the hull (residual {self.hull_residual(u):.2e})")
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
        if mat.shape[1] != self.num_components:
            raise ValueError(f"expected {self.num_components} columns")
        return mat


def _peel_greedy(residual: np.ndarray, pick) -> tuple[list, list]:
    """Peel concepts off a point of a hull cut out by the box and at most one sum.

    ``pick(residual, mass)`` chooses the next concept's coordinates; each
    concept takes the largest weight that keeps every residual coordinate in
    [0, mass].
    """
    mass = 1.0
    concepts, weights = [], []
    for _ in range(2 * residual.size + 2):
        if mass <= 1e-12:
            break
        chosen = pick(residual, mass)
        lows = residual[chosen]
        highs = (mass - residual)[~chosen]
        p = min(
            float(lows.min()) if lows.size else mass,
            float(highs.min()) if highs.size else mass,
            mass,
        )
        concepts.append(chosen.astype(float))
        weights.append(p)
        residual = np.clip(residual - p * chosen, 0.0, None)
        mass -= p
    if mass > 1e-10:
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

    def project_batch(self, u_tildes: np.ndarray) -> np.ndarray:
        mat = self._interior_rows(u_tildes)
        m = self.subset_size
        if m == 0:
            return np.zeros_like(mat)
        if m == self.num_components:
            return np.ones_like(mat)
        logits = _logit(mat)
        lo = np.full(mat.shape[0], -800.0)
        hi = np.full(mat.shape[0], 800.0)
        lam = np.zeros(mat.shape[0])
        for _ in range(80):
            lam = 0.5 * (lo + hi)
            g = _sigmoid(logits + lam[:, None]).sum(axis=1) - m
            if np.all(np.abs(g) <= 1e-12):
                break
            high = g > 0.0
            hi = np.where(high, lam, hi)
            lo = np.where(high, lo, lam)
        return _sigmoid(logits + lam[:, None])

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
        self._check_edges_usable()
        self._build_constraints()

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

    def _check_edges_usable(self):
        fwd = self._path_counts(self.source, self._topo, self._in, self._edge_from)
        bwd = self._path_counts(self.sink, self._topo[::-1], self._out, self._edge_to)
        dead = [
            e + 1
            for e in range(self.num_components)
            if not (fwd[self._edge_from[e]] > 0 and bwd[self._edge_to[e]] > 0)
        ]
        if dead:
            raise ValueError(f"edges {dead} lie on no source-sink path")

    def _build_constraints(self):
        """Rows: outflow 1 at the source, then conservation at each inner node with edges."""
        ends = (self.source, self.sink)
        rows = [self.source] + [
            n for n in self._topo if n not in ends and (self._out[n] or self._in[n])
        ]
        c, k = len(rows), self.num_components
        self._inc = np.zeros((c, k))
        self._rhs = np.zeros(c)
        self._rhs[0] = 1.0
        # each edge leaves at most one constrained node and enters at most one
        frm, to = np.full(k, -1), np.full(k, -1)
        for i, n in enumerate(rows):
            self._inc[i, self._out[n]] = 1.0
            self._inc[i, self._in[n]] = -1.0
            frm[self._out[n]], to[self._in[n]] = i, i
        self._jac_entries, self._jac_terms = self._laplacian_terms(frm, to, c)

    @staticmethod
    def _laplacian_terms(frm, to, c):
        """Sparsity of the Newton Jacobian A diag(d) A^T, a grounded graph Laplacian.

        Entry (i, i) sums d_e over the edges incident to row i; entry (i, j)
        sums -d_e over the edges joining rows i and j.  Returns the flat
        positions of the nonzero entries (nnz,) and a (slots, nnz) table of
        columns into [d, -d, 0]: slot s holds each entry's s-th term in
        increasing edge order, padded with the zero column.
        """
        k = frm.size
        edges = np.arange(k)
        has_f, has_t = frm >= 0, to >= 0
        both = has_f & has_t
        f, t, e = frm[both], to[both], edges[both]
        # one term per (entry, edge): two diagonal terms and two off-diagonal ones per edge
        pos = np.concatenate((frm[has_f] * (c + 1), to[has_t] * (c + 1), f * c + t, t * c + f))
        edge = np.concatenate((edges[has_f], edges[has_t], e, e))
        col = np.concatenate((edges[has_f], edges[has_t], k + e, k + e))
        order = np.lexsort((edge, pos))
        pos, col = pos[order], col[order]
        entries, first, count = np.unique(pos, return_index=True, return_counts=True)
        slot = np.arange(pos.size) - np.repeat(first, count)
        terms = np.full((count.max(), entries.size), 2 * k)
        terms[slot, np.repeat(np.arange(entries.size), count)] = col
        return entries, terms

    def project_batch(self, u_tildes: np.ndarray) -> np.ndarray:
        """Joint dual Newton iteration, cyclic Bregman sweeps as row-wise fallback.

        The projection of w onto the intersection of the flow equalities has
        the form u = sigmoid(logit(w) + A^T theta) with A the signed
        incidence of the constraints; theta solves A u(theta) = rhs, a
        smooth monotone system whose Jacobian A diag(u(1-u)) A^T is positive
        definite, so damped Newton converges in a handful of iterations.
        Rows the Newton iteration fails to converge (a singular Jacobian
        from saturated bridge edges, exhausted backtracking or the iteration
        cap) are projected again, each alone from its input row, by cyclic
        per-constraint projections; every other row keeps Newton's result.
        """
        mat = self._interior_rows(u_tildes)
        u, failed = self._project_newton(mat)
        for i in np.flatnonzero(failed):
            u[i] = self._project_cyclic(mat[i : i + 1])[0]
        return u

    def _project_newton(self, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Newton's rows and the mask of rows it failed to converge.

        A row fails when its Jacobian turns singular, its backtracking runs
        out or the iteration cap is reached.  A failed row is frozen: it
        counts as converged and solves I x = 0, a zero step.  Until a row
        fails, this is the plain damped Newton iteration.  When the batched
        solve raises, each row is solved alone (same bits); a row that raises fails.
        """
        inc, rhs = self._inc, self._rhs
        logits = _logit(mat)
        n, c = mat.shape[0], inc.shape[0]
        theta = np.zeros((n, c))
        u = mat
        diff = u @ inc.T - rhs  # (n, c)
        res = np.abs(diff).max(axis=1)
        failed = np.zeros(n, dtype=bool)
        frozen = False  # whether some row has failed
        for _ in range(80):
            if frozen:
                res[failed], diff[failed] = 0.0, 0.0
            if np.all(res <= PROJECTION_RESIDUAL):
                return u, failed
            jac = self._jacobian(u * (1.0 - u))  # (n, c, c)
            if frozen:
                jac[failed] = np.eye(c)
            try:
                step = np.linalg.solve(jac, diff[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                step = np.zeros((n, c))
                for i in range(n):
                    try:
                        step[i] = np.linalg.solve(jac[i], diff[i])
                    except np.linalg.LinAlgError:
                        failed[i] = frozen = True
            # backtracking on the residual norm, vectorized over rows
            alpha = np.ones(n)
            for _ in range(30):
                cand_theta = theta - alpha[:, None] * step
                cand_u = _sigmoid(logits + cand_theta @ inc)
                cand_diff = cand_u @ inc.T - rhs
                cand_res = np.abs(cand_diff).max(axis=1)
                worse = (cand_res > res) & (res > PROJECTION_RESIDUAL)
                if not worse.any():
                    break
                alpha = np.where(worse, 0.5 * alpha, alpha)
            else:
                failed |= worse
                frozen = True
            theta, u, diff, res = cand_theta, cand_u, cand_diff, cand_res
        return u, failed | ~(res <= PROJECTION_RESIDUAL)

    def _jacobian(self, d: np.ndarray) -> np.ndarray:
        """A diag(d_r) A^T for each row d_r of d (n, K), as an (n, c, c) stack.

        Each entry is summed from +0.0 in increasing edge order, which gives
        the bits of the dense product ``(A * d_r) @ A^T``.
        """
        n, c = d.shape[0], self._inc.shape[0]
        signed = np.concatenate((d, -d, np.zeros((n, 1))), axis=1)
        vals = np.zeros((n, self._jac_entries.size))
        for cols in self._jac_terms:
            vals += np.take(signed, cols, axis=1)
        jac = np.zeros((n, c * c))
        jac[:, self._jac_entries] = vals
        return jac.reshape(n, c, c)

    def _project_cyclic(self, mat: np.ndarray) -> np.ndarray:
        mat = mat.copy()
        signs = [(np.flatnonzero(a > 0.0), np.flatnonzero(a < 0.0)) for a in self._inc]
        # a coordinate the sweeps saturate to 0 or 1 has logit -inf or +inf, as the shifts need
        with np.errstate(divide="ignore"):
            for _ in range(MAX_SWEEPS):
                if np.all(self._equality_residuals(mat) <= PROJECTION_RESIDUAL):
                    return mat
                for (plus, minus), rhs in zip(signs, self._rhs):
                    lam = self._solve_shift(mat, plus, minus, rhs)
                    mat[:, plus] = _sigmoid(_logit(mat[:, plus]) + lam[:, None])
                    if minus.size:
                        mat[:, minus] = _sigmoid(_logit(mat[:, minus]) - lam[:, None])
        worst = float(self._equality_residuals(mat).max())
        raise ProjectionError(
            f"cyclic projection missed residual {PROJECTION_RESIDUAL} after "
            f"{MAX_SWEEPS} sweeps (worst {worst:.2e})"
        )

    @staticmethod
    def _solve_shift(mat, plus, minus, rhs) -> np.ndarray:
        """Vector of logit shifts making sum(plus) - sum(minus) = rhs per row."""
        lp = _logit(mat[:, plus])
        lm = _logit(mat[:, minus]) if minus.size else None
        n = mat.shape[0]
        lo = np.full(n, -800.0)
        hi = np.full(n, 800.0)
        lam = np.zeros(n)

        def g_and_slope(lam):
            sp = _sigmoid(lp + lam[:, None])
            g = sp.sum(axis=1) - rhs
            slope = (sp * (1.0 - sp)).sum(axis=1)
            if lm is not None:
                sm = _sigmoid(lm - lam[:, None])
                g -= sm.sum(axis=1)
                slope += (sm * (1.0 - sm)).sum(axis=1)
            return g, slope

        for _ in range(100):
            g, slope = g_and_slope(lam)
            if np.all(np.abs(g) <= 1e-13):
                break
            high = g > 0.0
            hi = np.where(high, lam, hi)
            lo = np.where(high, lo, lam)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = lam - g / slope
            bad = ~np.isfinite(newton) | (newton <= lo) | (newton >= hi)
            lam = np.where(bad, 0.5 * (lo + hi), newton)
        return lam

    def num_vertices(self) -> int:
        return self._path_counts(self.sink, self._topo[::-1], self._out, self._edge_to)[self.source]

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
        concepts, weights = [], []
        for _ in range(2 * self.num_components + 2):
            remaining = float(flow[self._out[self.source]].sum())
            if remaining <= 1e-10:
                break
            path = self._widest_path(flow)
            if path is None:
                break
            bottleneck = float(flow[path].min())
            if bottleneck <= 1e-12:
                break
            row = np.zeros(self.num_components)
            row[path] = 1.0
            concepts.append(row)
            weights.append(bottleneck)
            flow[path] -= bottleneck
        if float(flow[self._out[self.source]].sum()) > 1e-8:
            raise ValueError("path stripping left residual source outflow")
        return concepts, weights

    def _widest_path(self, flow: np.ndarray):
        best = {n: 0.0 for n in self.nodes}
        pred = {n: None for n in self.nodes}
        best[self.source] = math.inf
        for n in self._topo:
            if best[n] <= 0.0:
                continue
            for e in self._out[n]:
                cand = min(best[n], float(flow[e]))
                to = self._edge_to[e]
                if cand > best[to]:
                    best[to] = cand
                    pred[to] = e
        if best[self.sink] <= 0.0:
            return None
        path, node = [], self.sink
        while node != self.source:
            e = pred[node]
            path.append(e)
            node = self._edge_from[e]
        return path[::-1]


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
        self._pinned = np.array([len(vs) == 1 for vs in value_sets])
        self._inc = np.eye(self.num_components)[self._pinned]
        self._rhs = np.array([vs[0] for vs in value_sets if len(vs) == 1])

    def project_batch(self, u_tildes: np.ndarray) -> np.ndarray:
        mat = self._interior_rows(u_tildes)
        mat[:, self._pinned] = self._rhs
        return mat

    def _peel(self, point: np.ndarray) -> tuple[list, list]:
        return _peel_greedy(point, lambda residual, mass: residual >= 0.5 * mass)

    def num_vertices(self) -> int:
        return self._vertices.shape[0]

    def vertices(self, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
        self._check_vertex_cap(cap)
        return self._vertices.copy()


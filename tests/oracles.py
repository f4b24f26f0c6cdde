"""Independent oracles used to pin expected values in the test suite.

Everything here deliberately avoids the code paths under test: plain
composite Simpson panels (no adaptivity), mpmath high-precision quadrature,
truncated Maclaurin series, dense dual-parameter sweeps, and a generic
constrained solver.  Keep it that way.  The exceptions share production
helpers:

- references their replacements must match bit for bit:
  ``iprod_weights_history``, the history-based iProd rule (production
  log-sum-exp and normalization), and the scalar ``bound_theorem*_scalar``
  calculators (production ``ln_plus``, ``z_conjugate`` and
  ``ceil_one_plus_log2``), ``comparator_stats_rowwise``, one
  comparator's two ddots for the batched ``comparator_stats``, and
  ``integrate_adaptive_batch_reference``, adaptive Simpson with separate
  integrand calls per edge set and per side (production ``QuadratureSpec``
  and ``QuadratureError``), ``newton_jacobian_dense``, the dense
  product that ``ConceptClass._jacobian`` builds from its Laplacian structure,
  and ``update_replace``, the game-state update through
  ``dataclasses.replace``, which re-runs every ``ExpertGameState`` check
  (production ``_check_simplex``), and ``cv_weight_integrand_former`` and
  ``improper_potential_integrand_former``, the out-of-place ``np.where``
  forms of the two quadrature integrands (production ``_cv_eta_of_u``),
  and the four former peak and knot builders that ``_exponent_peak`` and
  ``_peak_knots`` replace: ``cv_peak_former``, ``exponent_peak_scalar_former``,
  ``cv_peak_knots_former`` (production ``_CV_UPPER``) and
  ``interior_peaks_former`` with ``capped_knots_former``, and the former
  ``polytopes`` bodies that one equality matrix per class and the damped
  Newton projection replaced: ``dag_constraints_former``,
  ``equality_residuals_former``, ``dead_edges_former`` (on the raw edge
  list), ``num_vertices_former``, ``singular_former``, and the former
  projection, ``project_newton_former`` (dense Jacobians),
  ``project_cyclic_former`` with its own shift solver and sweep cap,
  ``project_subsets_former``, the subset class's bisection on its one
  logit shift, and ``project_batch_former``, which picks the former body
  by class (production ``_laplacian_terms``, ``_interior_rows``, logit and
  sigmoid), and ``log_terms_former``, the
  per-expert closed-form loop on numpy scalars that ``_log_terms`` runs on
  Python floats (production kernels);
- the single-rate learner that Component iProd aggregates:
  ``unconstrained_update`` (production ``clamp_interior``, logit and
  sigmoid), ``ComponentBayes`` (production ``project``) and ``mix_loss``;
  the closed-form ``observe`` is checked against this posterior;
- ``lemma4_check``, the per-rate guarantee, read from a production
  ``CombGameState`` through ``comparator_stats`` and
  ``binary_relative_entropy``;
- ``log_erfc``, a composition of the production scaled-erfc kernel.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from squint.component_iprod import comparator_stats
from squint.experts import _CV_UPPER, _check_simplex, _cv_eta_of_u
from squint.numerics import (
    _ERFCX_SERIES_CUTOFF,
    QuadratureError,
    QuadratureSpec,
    _log_erfcx,
    ceil_one_plus_log2,
    logsumexp,
)
from squint.polytopes import (
    PROJECTION_RESIDUAL,
    DagPaths,
    ExplicitVertices,
    KSubsets,
    ProjectionError,
    _logit,
    _sigmoid,
    clamp_interior,
)
from squint.regret_bounds import binary_relative_entropy, ln_plus, z_conjugate


def simpson_exp_integral(r: float, v: float, with_eta: bool = False, panels: int = 10**6) -> float:
    """Composite Simpson of [eta] exp(eta r - eta^2 v) over [0, 1/2]."""
    eta = np.linspace(0.0, 0.5, panels + 1)
    f = np.exp(eta * r - eta * eta * v)
    if with_eta:
        f = eta * f
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = 0.5 / panels
    return h / 3.0 * float(w @ f)


def maclaurin_erf(x: float, terms: int = 50) -> float:
    """erf via its Maclaurin series, 2/sqrt(pi) sum (-1)^n x^{2n+1}/(n!(2n+1))."""
    total = 0.0
    term = x  # x^{2n+1}/n! at n=0
    for n in range(terms):
        total += term / (2 * n + 1)
        term *= -x * x / (n + 1)
    return 2.0 / math.sqrt(math.pi) * total


def mp_log_exp_integral(r: float, v: float, with_eta: bool = False, dps: int = 50) -> float:
    """High-precision ln of int_0^{1/2} [eta] e^{eta r - eta^2 v} deta."""
    import mpmath as mp

    with mp.workdps(dps):
        r_, v_ = mp.mpf(r), mp.mpf(v)
        if v_ > 0:
            peak = min(max(r_ / (2 * v_), mp.mpf(0)), mp.mpf("0.5"))
        else:
            peak = mp.mpf("0.5") if r_ >= 0 else mp.mpf(0)
        shift = peak * r_ - peak * peak * v_

        def f(e):
            val = mp.e ** (e * r_ - e * e * v_ - shift)
            return e * val if with_eta else val

        pts = sorted({mp.mpf(0), peak, mp.mpf("0.5")})
        val = mp.quad(f, pts)
        return float(shift + mp.log(val))


def mp_cv_weight_integral(r: float, v: float, dps: int = 40) -> float:
    """High-precision ln(2) * int_0^{1/2} e^{eta r - eta^2 v} / ln(eta)^2 deta."""
    import mpmath as mp

    with mp.workdps(dps):
        r_, v_ = mp.mpf(r), mp.mpf(v)

        def f(e):
            return mp.e ** (e * r_ - e * e * v_) / mp.log(e) ** 2

        val = mp.log(2) * mp.quad(f, [mp.mpf("1e-40"), mp.mpf("0.25"), mp.mpf("0.5")])
        return float(val)


def dual_sweep_subset_projection(u_tilde: np.ndarray, m: int, lam_hi: float = 80.0) -> np.ndarray:
    """Entropy projection onto {u in [0,1]^K : sum u = m} by dense dual sweep.

    Scans the scalar dual shift on a dense grid and refines twice around the
    sign change of sum(u(lam)) - m; independent of any root-finder used by
    the implementation.
    """
    logits = np.log(u_tilde) - np.log1p(-u_tilde)

    def usage_sum(lams: np.ndarray) -> np.ndarray:
        z = logits[None, :] + lams[:, None]
        return 1.0 / (1.0 + np.exp(-z))

    lo, hi = -lam_hi, lam_hi
    for _ in range(3):
        lams = np.linspace(lo, hi, 20001)
        g = usage_sum(lams).sum(axis=1) - m
        idx = int(np.searchsorted(g, 0.0))
        idx = min(max(idx, 1), len(lams) - 1)
        lo, hi = lams[idx - 1], lams[idx]
    lam = 0.5 * (lo + hi)
    return 1.0 / (1.0 + np.exp(-(logits + lam)))


def slsqp_entropy_projection(
    u_tilde: np.ndarray,
    eq_lhs: np.ndarray,
    eq_rhs: np.ndarray,
) -> np.ndarray:
    """Generic-solver projection: minimize the binary relative entropy
    sum u ln(u/ut) + (1-u) ln((1-u)/(1-ut)) subject to eq_lhs @ u = eq_rhs
    and 0 <= u <= 1, via scipy SLSQP."""
    from scipy.optimize import minimize

    ut = np.clip(np.asarray(u_tilde, dtype=float), 1e-12, 1.0 - 1e-12)
    k = ut.size

    def objective(u):
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        return float(
            np.sum(u * (np.log(u) - np.log(ut)) + (1 - u) * (np.log1p(-u) - np.log1p(-ut)))
        )

    def grad(u):
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        return np.log(u) - np.log(ut) - np.log1p(-u) + np.log1p(-ut)

    cons = [
        {"type": "eq", "fun": (lambda u, row=row, rhs=rhs: float(row @ u - rhs))}
        for row, rhs in zip(eq_lhs, eq_rhs)
    ]
    x0 = np.full(k, 0.5)
    res = minimize(
        objective,
        x0,
        jac=grad,
        bounds=[(1e-9, 1 - 1e-9)] * k,
        constraints=cons,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    if not res.success:
        raise RuntimeError(f"SLSQP oracle failed: {res.message}")
    return np.asarray(res.x)


def iprod_log_products_history(history: np.ndarray, prior) -> np.ndarray:
    """(G, K) sums over the rows r_1..r_T of ``history`` of ln(1 + eta r_t).

    Re-sums the whole history (O(T) per call); ``prior`` is a
    ``DiscreteGridPrior``.  Raises if some factor 1 + eta r is not positive.
    """
    history = np.asarray(history, dtype=float)
    if history.ndim != 2:
        raise ValueError("history must be (rounds, experts)")
    x = prior.etas[None, :, None] * history[:, None, :]
    if np.any(1.0 + x <= 0.0):
        raise ValueError("product factor 1 + eta*r is not positive")
    return np.log1p(x).sum(axis=0)


def iprod_weights_history(history: np.ndarray, prior_pi: np.ndarray, prior) -> np.ndarray:
    """iProd weights pi(k) sum_g mass_g eta_g prod_t (1 + eta_g r_t^k), normalized,
    recomputed from the full regret history."""
    prior_pi = np.asarray(prior_pi, dtype=float)
    history = np.asarray(history, dtype=float).reshape(-1, prior_pi.shape[0])
    log_products = iprod_log_products_history(history, prior)
    log_terms = log_products + np.log(prior.masses * prior.etas)[:, None]
    log_w = np.log(prior_pi) + logsumexp(log_terms, axis=0)
    w = np.exp(log_w - logsumexp(log_w))
    return w / w.sum()


def update_replace(state, weights: np.ndarray, losses: np.ndarray):
    """One round of ``update``, building the next ``ExpertGameState`` with
    ``dataclasses.replace`` (so its checks run on every round)."""
    weights = np.asarray(weights, dtype=float)
    losses = np.asarray(losses, dtype=float)
    k = state.num_experts
    if weights.shape != (k,) or losses.shape != (k,):
        raise ValueError(f"expected {k}-vectors, got {weights.shape} and {losses.shape}")
    _check_simplex(weights, "weights")
    if np.any(losses < 0.0) or np.any(losses > 1.0):
        raise ValueError("losses must lie in [0, 1]")
    r = float(weights @ losses) - losses
    return replace(
        state,
        regret=state.regret + r,
        variance=state.variance + r * r,
        cum_loss=state.cum_loss + losses,
        t=state.t + 1,
    )


def log_terms_former(
    prior: np.ndarray, regret: np.ndarray, variance: np.ndarray, kernel
) -> np.ndarray:
    """ln pi(k) + kernel(R^k, V^k) per expert, zipping the arrays (numpy scalars)."""
    return np.array([math.log(p) + kernel(r, v) for p, r, v in zip(prior, regret, variance)])


def cv_weight_integrand_former(regret: np.ndarray, variance: np.ndarray):
    """The integrand of ``cv_log_integrals``, computed out of place."""
    peak = cv_peak_former(regret, variance)
    shift = peak * regret - peak * peak * variance

    def f(u: np.ndarray) -> np.ndarray:
        eta = _cv_eta_of_u(u)
        g = eta[:, None] * regret - (eta * eta)[:, None] * variance - shift[None, :]
        return np.exp(g) * eta[:, None]

    return f


def improper_potential_integrand_former(regret: np.ndarray, variance: np.ndarray):
    """The integrand of ``improper_potential_terms``, with two full ``np.where`` passes."""

    def f(eta: np.ndarray) -> np.ndarray:
        g = eta[:, None] * regret - (eta * eta)[:, None] * variance
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(
                eta[:, None] > 0.0,
                np.expm1(g) / np.where(eta[:, None] > 0.0, eta[:, None], 1.0),
                regret[None, :],
            )
        return vals

    return f


def cv_peak_former(regret: np.ndarray, variance: np.ndarray) -> np.ndarray:
    """Per-expert argmax over [0, 1/2] of eta R - eta^2 V, for V >= 0.

    Guards the division with max(2V, 1e-300), so it reads R/1e-300 (not
    R/(2V)) where 0 < 2V < 1e-300; V < 0 is taken as V == 0.
    """
    with np.errstate(divide="ignore"):
        peak = np.where(variance > 0.0, regret / np.maximum(2.0 * variance, 1e-300), math.inf)
    return np.clip(np.where(regret >= 0.0, np.minimum(peak, 0.5), 0.0), 0.0, 0.5)


def exponent_peak_scalar_former(r: float, v: float) -> float:
    """argmax over [0, 1/2] of eta*r - eta^2*v, in Python floats."""
    if v > 0.0:
        return min(max(r / (2.0 * v), 0.0), 0.5)
    if v == 0.0:
        return 0.5 if r >= 0.0 else 0.0
    # convex exponent: the max sits at one of the endpoints
    return 0.5 if 0.5 * r - 0.25 * v >= 0.0 else 0.0


def cv_peak_knots_former(regret: np.ndarray, variance: np.ndarray, peak: np.ndarray) -> list[float]:
    """Peak and 1/ln|R| knots of the CV integrals in u = -1/ln(eta), uncapped."""
    knots = []
    for r, v, p in zip(regret, variance, peak):
        if 0.0 < p < 0.5 and v > 0.0:
            u_star = -1.0 / math.log(p)
            w_eta = 1.0 / math.sqrt(2.0 * v)
            w_u = w_eta * u_star * u_star / p
            for k in (-3.0, -1.0, 0.0, 1.0, 3.0):
                cand = u_star + k * w_u
                if 0.0 < cand < _CV_UPPER:
                    knots.append(cand)
        if r < -math.e:
            # mass concentrates near eta ~ 1/|R|, i.e. u ~ 1/ln|R|
            knots.append(1.0 / math.log(-r))
    return sorted(set(knots))


def interior_peaks_former(regret: np.ndarray, variance: np.ndarray) -> list[float]:
    """Peak knots of the improper potential in eta, uncapped."""
    peaks = []
    for r, v in zip(regret, variance):
        if v > 0.0 and 0.0 < r / (2.0 * v) < 0.5:
            center = float(r / (2.0 * v))
            width = 1.0 / math.sqrt(2.0 * v)
            for k in (-3.0, -1.0, 0.0, 1.0, 3.0):
                cand = center + k * width
                if 0.0 < cand < 0.5:
                    peaks.append(cand)
    return sorted(set(peaks))


def capped_knots_former(knots: list[float], upper: float) -> list[float]:
    """More than 48 knots replaced by 48 uniform ones on (0, upper)."""
    if len(knots) > 48:
        return list(np.linspace(0.0, upper, 50)[1:-1])
    return knots


def _check_pi_mass(pi_mass: float) -> None:
    if not 0.0 < pi_mass <= 1.0:
        raise ValueError(f"prior mass must lie in (0, 1], got {pi_mass}")


def bound_theorem1_scalar(v_agg: float, pi_mass: float, a: float = 0.0, b: float = 0.0) -> float:
    """Theorem 1 on one subset, in Python floats."""
    _check_pi_mass(pi_mass)
    if v_agg < 0.0:
        raise ValueError(f"variance aggregate must be nonnegative, got {v_agg}")
    z = z_conjugate(a, b)
    vb = v_agg + b
    main = 2.0 * math.sqrt(vb * (0.5 + ln_plus(z * math.sqrt(2.0 * vb) / pi_mass)))
    tail = 5.0 * ln_plus(2.0 * math.sqrt(5.0) * z / pi_mass)
    return main + tail - a


def bound_theorem2_scalar(v_agg: float, pi_mass: float) -> float:
    """Theorem 2 on one subset, in Python floats."""
    _check_pi_mass(pi_mass)
    if v_agg < 0.0:
        raise ValueError(f"variance aggregate must be nonnegative, got {v_agg}")
    inner = ln_plus(2.0 * math.sqrt(v_agg) / (2.0 - math.sqrt(2.0))) ** 2
    main = math.sqrt(2.0 * v_agg) * (
        1.0 + math.sqrt(2.0 * ln_plus(inner / (pi_mass * math.log(2.0))))
    )
    return main - 5.0 * math.log(pi_mass) + 4.0


def bound_theorem3_scalar(v_agg: float, pi_mass: float, horizon: int) -> float:
    """Theorem 3 on one subset, in Python floats."""
    _check_pi_mass(pi_mass)
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    if v_agg < 0.0:
        raise ValueError(f"variance aggregate must be nonnegative, got {v_agg}")
    log_t = math.log(horizon + 1.0)
    tail = 5.0 * math.log(1.0 + (1.0 + 2.0 * log_t) / pi_mass)
    if v_agg == 0.0:
        return tail
    inner = max((0.5 + log_t) / pi_mass, 1.0)
    return math.sqrt(2.0 * v_agg) * (1.0 + math.sqrt(2.0 * math.log(inner))) + tail


def bound_theorem4_scalar(v_v: float, entropy: float, num_components: int, horizon: int) -> float:
    """Theorem 4 on one comparator, in Python floats."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if v_v < 0.0 or entropy < 0.0:
        raise ValueError("variance and entropy must be nonnegative")
    log_g = math.log(ceil_one_plus_log2(horizon))
    main = 4.0 / math.sqrt(3.0) * math.sqrt(v_v * (entropy + num_components * log_g))
    return main + 4.0 * entropy + num_components * max(4.0 * log_g, 1.0)


def log_erfc(x: float) -> float:
    """ln(erfc(x)) for any finite x, accurate into the deep right tail."""
    if not math.isfinite(x):
        raise ValueError(f"log_erfc requires a finite argument, got {x}")
    if x <= _ERFCX_SERIES_CUTOFF:
        return math.log(math.erfc(x))
    return _log_erfcx(x) - x * x


def unconstrained_update(u: np.ndarray, x1: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Componentwise posterior u e^{-x1} / (u e^{-x1} + (1-u) e^{-x0}).

    Computed as sigmoid(logit(u) + x0 - x1), which cannot underflow to 0/0
    however large the exponents are.
    """
    u = clamp_interior(u)
    x1 = np.asarray(x1, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x0))):
        raise ValueError("loss components must be finite")
    return _sigmoid(_logit(u) + x0 - x1)


def mix_loss(u: np.ndarray, x1: np.ndarray, x0: np.ndarray) -> float:
    """Sum over coordinates of -ln(u e^{-x1} + (1-u) e^{-x0})."""
    u = np.asarray(u, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("usage must be interior for the mix loss")
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x0))):
        raise ValueError("loss components must be finite")
    shift = np.minimum(x1, x0)
    inner = u * np.exp(shift - x1) + (1.0 - u) * np.exp(shift - x0)
    return float(np.sum(shift - np.log(inner)))


class ComponentBayes:
    """Projected componentwise Bayesian updates for sums of mix losses.

    Each round: play the hull projection of the current vector, receive a
    pair of loss components per coordinate, move to the componentwise
    posterior.  The cumulative mix loss exceeds any hull comparator's linear
    loss by at most the comparator's binary relative entropy to the prior.
    """

    def __init__(self, concept_class, prior_vec: np.ndarray):
        self.concept_class = concept_class
        self.u_tilde = clamp_interior(np.asarray(prior_vec, dtype=float))
        if self.u_tilde.shape != (concept_class.num_components,):
            raise ValueError("prior vector length must match the class dimension")
        self._played: np.ndarray | None = None

    def play(self) -> np.ndarray:
        self._played = self.concept_class.project(self.u_tilde)
        return self._played

    def update(self, x1: np.ndarray, x0: np.ndarray) -> None:
        if self._played is None:
            raise RuntimeError("update() requires a preceding play()")
        self.u_tilde = clamp_interior(unconstrained_update(self._played, x1, x0))
        self._played = None


def comparator_stats_rowwise(state, v: np.ndarray) -> tuple[float, float]:
    """One comparator's (aggregate regret, aggregate variance) from a ``CombGameState``."""
    v = np.asarray(v, dtype=float)
    w = 1.0 - v
    return (
        float(v @ state.cum_r1 + w @ state.cum_r0),
        float(v @ state.cum_sq1 + w @ state.cum_sq0),
    )


def lemma4_check(state, eta: float, v: np.ndarray) -> tuple[float, float]:
    """(eta R_v - eta^2 V_v, entropy(v) - K ln gamma(eta)) for a grid eta.

    ``state`` is a ``CombGameState``.  Callers assert lhs <= rhs; the
    right-hand side is the per-rate guarantee the aggregation inherits.
    """
    match = [j for j, e in enumerate(state.etas) if math.isclose(e, eta, rel_tol=1e-12)]
    if not match:
        raise ValueError(f"{eta} is not a grid learning rate")
    j = match[0]
    r, var = comparator_stats(state, v)
    lhs = eta * r - eta * eta * var
    rhs = binary_relative_entropy(v, state.prior_vec) - state.num_components * math.log(
        float(state.gamma[j])
    )
    return lhs, rhs


def newton_jacobian_dense(inc: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The dual Newton Jacobians A diag(d_r) A^T, one per row d_r of d, as one dense product."""
    return (inc[None, :, :] * d[:, None, :]) @ inc.T


def dag_constraints_former(cls) -> tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A ``DagPaths``' equalities as the former constraint list, and the tables built from it.

    Returns ``(cons, inc, rhs, jac_entries, jac_terms)``: ``cons`` holds one
    ``(plus, minus, rhs)`` triple of edge-index arrays per equality, the rest
    are the dense signed incidence, its right-hand sides and the Newton
    Jacobian's Laplacian tables (production ``_laplacian_terms``).
    """
    cons = [(np.array(cls._out[cls.source], dtype=int), np.array([], dtype=int), 1.0)]
    for n in cls._topo:
        if n in (cls.source, cls.sink):
            continue
        out_e, in_e = cls._out[n], cls._in[n]
        if out_e or in_e:
            cons.append((np.array(out_e, dtype=int), np.array(in_e, dtype=int), 0.0))
    c, k = len(cons), cls.num_components
    inc = np.zeros((c, k))
    rhs = np.zeros(c)
    frm, to = np.full(k, -1), np.full(k, -1)
    for i, (plus, minus, b) in enumerate(cons):
        inc[i, plus] = 1.0
        inc[i, minus] = -1.0
        rhs[i] = b
        frm[plus], to[minus] = i, i
    entries, terms = DagPaths._laplacian_terms(frm, to, c)
    return cons, inc, rhs, entries, terms


def _dag_residuals_former(cons: list, mat: np.ndarray) -> np.ndarray:
    out = np.zeros(mat.shape[0])
    for plus, minus, rhs in cons:
        val = mat[:, plus].sum(axis=1) - mat[:, minus].sum(axis=1) - rhs
        out = np.maximum(out, np.abs(val))
    return out


def equality_residuals_former(cls, mat: np.ndarray) -> np.ndarray:
    """The three former per-class ``_equality_residuals`` bodies, picked by class."""
    if isinstance(cls, KSubsets):
        return np.abs(mat.sum(axis=1) - cls.subset_size)
    if isinstance(cls, ExplicitVertices):
        verts = cls.vertices()
        pinned = np.array([np.unique(col).size == 1 for col in verts.T])
        return np.abs(mat[:, pinned] - verts[0, pinned]).max(axis=1, initial=0.0)
    return _dag_residuals_former(dag_constraints_former(cls)[0], mat)


def dead_edges_former(edges, source, sink) -> list[int]:
    """The indices of the edges ``(from, to, index)`` on no source-sink path, by reachability."""
    fwd, bwd = {source}, {sink}
    for _ in edges:
        for frm, to, _ in edges:
            if frm in fwd:
                fwd.add(to)
            if to in bwd:
                bwd.add(frm)
    return sorted(idx for frm, to, idx in edges if not (frm in fwd and to in bwd))


def num_vertices_former(cls) -> int:
    """The number of source-sink paths of a ``DagPaths``, by the former backward count."""
    count = {n: 0 for n in cls.nodes}
    count[cls.sink] = 1
    for n in reversed(cls._topo):
        if n != cls.sink:
            count[n] = sum(count[cls._edge_to[e]] for e in cls._out[n])
    return count[cls.source]


def singular_former(jac: np.ndarray) -> np.ndarray:
    """Mask of the matrices in an (n, c, c) stack that ``np.linalg.solve`` rejects."""
    singular = np.zeros(jac.shape[0], dtype=bool)
    for i, mat in enumerate(jac):
        try:
            np.linalg.solve(mat, np.zeros(mat.shape[0]))
        except np.linalg.LinAlgError:
            singular[i] = True
    return singular


def project_newton_former(cls, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The former ``DagPaths._project_newton`` on the former constraint list.

    Returns Newton's rows and the mask of rows it failed to converge.  The
    Jacobians are the dense products, which have the bits of production's
    ``_jacobian``.  When the batched solve raises, ``singular_former``
    probes every matrix and the stack is solved again with the singular
    rows frozen.
    """
    _, inc, rhs, _, _ = dag_constraints_former(cls)
    logits = _logit(mat)
    n, c = mat.shape[0], inc.shape[0]
    theta = np.zeros((n, c))
    u = mat
    diff = u @ inc.T - rhs
    res = np.abs(diff).max(axis=1)
    failed = np.zeros(n, dtype=bool)
    frozen = False
    for _ in range(80):
        if frozen:
            res[failed], diff[failed] = 0.0, 0.0
        if np.all(res <= PROJECTION_RESIDUAL):
            return u, failed
        jac = newton_jacobian_dense(inc, u * (1.0 - u))
        if frozen:
            jac[failed] = np.eye(c)
        try:
            step = np.linalg.solve(jac, diff[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            failed |= singular_former(jac)
            frozen = True
            jac[failed], diff[failed] = np.eye(c), 0.0
            step = np.linalg.solve(jac, diff[:, :, None])[:, :, 0]
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


MAX_SWEEPS_FORMER = 10**4


def _solve_shift_former(mat, plus, minus, rhs) -> np.ndarray:
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


def project_cyclic_former(cls, mat: np.ndarray) -> np.ndarray:
    """The former cyclic sweeps over the former constraint list, one logit shift per equality."""
    cons = dag_constraints_former(cls)[0]
    mat = mat.copy()
    for _ in range(MAX_SWEEPS_FORMER):
        if np.all(_dag_residuals_former(cons, mat) <= PROJECTION_RESIDUAL):
            return mat
        for plus, minus, rhs in cons:
            lam = _solve_shift_former(mat, plus, minus, rhs)
            mat[:, plus] = _sigmoid(_logit(mat[:, plus]) + lam[:, None])
            if minus.size:
                mat[:, minus] = _sigmoid(_logit(mat[:, minus]) - lam[:, None])
    raise ProjectionError("former cyclic projection missed its residual")


def project_subsets_former(mat: np.ndarray, m: int) -> np.ndarray:
    """The former ``KSubsets.project_batch`` on interior rows: bisection on the one logit shift."""
    if m == 0:
        return np.zeros_like(mat)
    if m == mat.shape[1]:
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


def project_batch_former(cls, u_tildes: np.ndarray) -> np.ndarray:
    """The former per-class ``project_batch`` bodies, picked by class.

    ``KSubsets``: ``project_subsets_former``; ``ExplicitVertices``: the
    interior rows with the pinned coordinates set; ``DagPaths``: Newton,
    then cyclic sweeps for each failed row.
    """
    mat = cls._interior_rows(u_tildes)
    if isinstance(cls, KSubsets):
        return project_subsets_former(mat, cls.subset_size)
    if isinstance(cls, ExplicitVertices):
        verts = cls.vertices()
        pinned = np.array([np.unique(col).size == 1 for col in verts.T])
        mat[:, pinned] = verts[0, pinned]
        return mat
    with np.errstate(divide="ignore"):  # the former sweeps warned at saturated coordinates
        u, failed = project_newton_former(cls, mat)
        for i in np.flatnonzero(failed):
            u[i] = project_cyclic_former(cls, mat[i : i + 1])[0]
    return u


def integrate_adaptive_batch_reference(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec,
    knots: Sequence[float] | None = None,
) -> np.ndarray:
    """Adaptive Simpson with three integrand calls up front and two per level.

    Interior edges are evaluated twice and the left and right halves are
    built separately; ``integrate_adaptive_batch`` must return the same bits
    and raise the same errors with one call per level.

    ``f`` maps an array of abscissas (n,) to values (n, m); the m components
    are integrated simultaneously over [spec.lower, spec.upper] and share the
    subdivision pattern.  ``knots`` seeds extra subdivision points (e.g. the
    known location of a sharp bump, which a coarse initial grid would
    otherwise miss entirely).

    Deterministic: identical inputs produce identical results.  Raises
    ``QuadratureError`` when max_subdivisions is exhausted before every
    interval meets its width-proportional share of the error budget.
    """
    lo, hi = spec.lower, spec.upper
    width = hi - lo
    edges = list(np.linspace(lo, hi, 9))
    if knots is not None:
        edges.extend(k for k in knots if lo < k < hi)
    edges = sorted(set(edges))
    # drop near-duplicate edges, keeping the endpoints
    cleaned = [edges[0]]
    for e in edges[1:]:
        if e - cleaned[-1] > 1e-12 * width:
            cleaned.append(e)
    cleaned[-1] = hi

    a = np.asarray(cleaned[:-1])
    b = np.asarray(cleaned[1:])
    mid = 0.5 * (a + b)
    fa = np.asarray(f(a), dtype=float)
    fb = np.asarray(f(b), dtype=float)
    fm = np.asarray(f(mid), dtype=float)
    if fa.ndim != 2:
        raise ValueError("batch integrand must return a 2-d array (points, components)")
    m_dim = fa.shape[1]
    coarse = (b - a)[:, None] / 6.0 * (fa + 4.0 * fm + fb)

    done = np.zeros(m_dim)
    n_subdiv = len(cleaned) - 1
    while a.size:
        lm = 0.5 * (a + mid)
        rm = 0.5 * (mid + b)
        flm = np.asarray(f(lm), dtype=float)
        frm = np.asarray(f(rm), dtype=float)
        s_left = (mid - a)[:, None] / 3.0 * (fa + 4.0 * flm + fm)
        s_right = (b - mid)[:, None] / 3.0 * (fm + 4.0 * frm + fb)
        fine = 0.5 * (s_left + s_right)
        err = np.abs(fine - coarse) / 15.0

        total_est = done + fine.sum(axis=0)
        budget = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total_est))
        share = ((b - a) / width)[:, None] * budget[None, :]
        ok = (err <= share).all(axis=1)

        if ok.any():
            done += (fine[ok] + (fine[ok] - coarse[ok]) / 15.0).sum(axis=0)
        keep = ~ok
        n_subdiv += int(keep.sum())
        if n_subdiv > spec.max_subdivisions and keep.any():
            raise QuadratureError(
                f"adaptive Simpson exceeded {spec.max_subdivisions} subdivisions; "
                f"worst interval error {float(err[keep].max()):.3e}"
            )
        a_k, b_k, mid_k = a[keep], b[keep], mid[keep]
        fa_k, fb_k, fm_k = fa[keep], fb[keep], fm[keep]
        a = np.concatenate([a_k, mid_k])
        b = np.concatenate([mid_k, b_k])
        mid = np.concatenate([lm[keep], rm[keep]])
        fa = np.concatenate([fa_k, fm_k])
        fb = np.concatenate([fm_k, fb_k])
        fm = np.concatenate([flm[keep], frm[keep]])
        coarse = np.concatenate([s_left[keep] * 0.5, s_right[keep] * 0.5])

    return done

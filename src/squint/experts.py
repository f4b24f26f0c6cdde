"""Prediction with expert advice: game state and weight rules.

The game state is the sufficient statistic (cumulative regret and uncentered
regret variance per expert) from which every weight rule here is computed.
Each round the learner plays a probability vector w on K experts, the
environment reveals losses in [0,1]^K, and expert k's instantaneous regret is
r^k = w . losses - losses^k.

Weight rules.  Each learning-rate prior owns its rule (``log_weights``), the
potential of its proof (``potential``) and its theorem (``bound``):

- ``ConjugatePrior``: w^k proportional to
  pi(k) int_0^{1/2} exp(eta(a+R^k) - eta^2(b+V^k)) eta deta,
  the closed-form family indexed by prior parameters (a, b); a = b = 0 is the
  uniform learning-rate prior (Theorem 1).
- ``ImproperPrior``: the eta factor of the rule cancels a 1/eta
  prior density, leaving w^k proportional to
  pi(k) int_0^{1/2} exp(eta R^k - eta^2 V^k) deta (Theorem 3).
- ``CVPrior``: near-1/eta proper prior with density
  ln(2)/(eta ln^2 eta); no closed form, adaptive quadrature (Theorem 2).
- ``DiscreteGridPrior``: discrete prior on learning-rate points (no bound).
- ``iprod_weights_grid``: replaces exp(eta R - eta^2 V) by the product
  prod_t (1 + eta r_t), read from the (grid x K) running sums of
  ln(1 + eta r_t) that ``iprod_log_factors`` supplies one round at a time.
- ``hedge_weights``: classic exponentially weighted averages baseline.

All accumulation happens in log domain with a max shift before
exponentiation, so the rules stay finite for horizons up to 1e7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from . import regret_bounds as rb
from .numerics import (
    QuadratureSpec,
    _check_simplex,
    _exponent,
    _exponent_peak,
    integrate_adaptive_batch,
    log_eta_exp_integral,
    log_exp_integral,
    logsumexp,
    normalize_log_weights,
)

__all__ = [
    "ExpertGameState",
    "ConjugatePrior",
    "CVPrior",
    "ImproperPrior",
    "DiscreteGridPrior",
    "LearningRatePrior",
    "update",
    "iprod_log_factors",
    "iprod_weights_grid",
    "hedge_weights",
    "weights_for_prior",
    "potential",
    "cv_log_integrals",
    "improper_potential_terms",
    "cv_potential_terms",
]

@dataclass(frozen=True)
class ExpertGameState:
    """Per-expert cumulative statistics after t rounds.

    ``regret[k]`` is the sum of instantaneous regrets against expert k,
    ``variance[k]`` the sum of their squares, and ``cum_loss[k]`` expert k's
    own cumulative loss (used by the Hedge baseline and by loss-based subset
    selection; the squint rules never read it).  Constructing a state checks
    it: the prior on the simplex, ``variance`` and ``cum_loss`` in [0, t] and
    ``regret`` in [-t, t], each up to a slack of 1e-9 max(1, t), with nan
    failing every check.  ``update`` checks its own arguments instead and
    builds the next state without repeating these checks, which follow from
    them.
    """

    prior: np.ndarray
    regret: np.ndarray
    variance: np.ndarray
    cum_loss: np.ndarray
    t: int = 0

    def __post_init__(self):
        for name in ("prior", "regret", "variance", "cum_loss"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        k = self.prior.shape[0]
        if any(getattr(self, n).shape != (k,) for n in ("regret", "variance", "cum_loss")):
            raise ValueError("state vectors must share the prior's length")
        _check_simplex(self.prior, "prior")
        slack = 1e-9 * max(1, self.t)
        # written as "not good" so that a nan entry fails
        if not ((self.variance >= -slack) & (self.variance <= self.t + slack)).all():
            raise ValueError("variance must lie in [0, t]")
        if not (np.abs(self.regret) <= self.t + slack).all():
            raise ValueError("cumulative regret must lie in [-t, t]")
        if not ((self.cum_loss >= -slack) & (self.cum_loss <= self.t + slack)).all():
            raise ValueError("cumulative loss must lie in [0, t]")

    @classmethod
    def _trusted(cls, prior, regret, variance, cum_loss, t, round_regret=None) -> "ExpertGameState":
        # float arrays that already satisfy __post_init__'s checks; round_regret,
        # not a field, is the regret vector of the round that led to the state
        state = object.__new__(cls)
        state.__dict__.update(prior=prior, regret=regret, variance=variance, cum_loss=cum_loss, t=t)
        state.__dict__["_round_regret"] = round_regret
        return state

    @property
    def num_experts(self) -> int:
        return self.prior.shape[0]

    @classmethod
    def from_prior(cls, prior) -> "ExpertGameState":
        prior = np.asarray(prior, dtype=float)
        z = np.zeros_like(prior)
        return cls(prior=prior, regret=z, variance=z.copy(), cum_loss=z.copy(), t=0)

    @classmethod
    def uniform(cls, num_experts: int) -> "ExpertGameState":
        if num_experts < 1:
            raise ValueError("need at least one expert")
        return cls.from_prior(np.full(num_experts, 1.0 / num_experts))


# The priors' methods look up kernels, quadrature and theorems by module-level
# name at call time, so that wrapping a name (as bench/tracer.py does) sees every call.
@dataclass(frozen=True)
class ConjugatePrior:
    """Density proportional to exp(a eta - b eta^2) on [0, 1/2]; (0, 0) is uniform."""

    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not self.b >= 0.0:  # also rejects nan
            raise ValueError(f"conjugate prior needs b >= 0, got b={self.b}")

    def log_weights(self, state: ExpertGameState) -> np.ndarray:
        regret, variance = self.a + state.regret, self.b + state.variance
        return _log_terms(state.prior, regret, variance, log_eta_exp_integral)

    def potential(self, state: ExpertGameState) -> float:
        log_z = log_exp_integral(self.a, self.b)
        regret, variance = self.a + state.regret, self.b + state.variance
        log_terms = _log_terms(state.prior, regret, variance, log_exp_integral) - log_z
        return math.expm1(logsumexp(log_terms))

    def bound(self, v_agg, pi_mass, t):
        return rb.bound_theorem1(v_agg, pi_mass, self.a, self.b)


@dataclass(frozen=True)
class CVPrior:
    """Density ln(2) / (eta ln^2 eta) on (0, 1/2]; weights need quadrature."""

    def log_weights(self, state: ExpertGameState) -> np.ndarray:
        return np.log(state.prior) + cv_log_integrals(state.regret, state.variance)

    def potential(self, state: ExpertGameState) -> float:
        return float(state.prior @ cv_potential_terms(state.regret, state.variance))

    def bound(self, v_agg, pi_mass, t):
        return rb.bound_theorem2(v_agg, pi_mass)


@dataclass(frozen=True)
class ImproperPrior:
    """The non-normalizable 1/eta density; the weight rule stays well defined."""

    def log_weights(self, state: ExpertGameState) -> np.ndarray:
        return _log_terms(state.prior, state.regret, state.variance, log_exp_integral)

    def potential(self, state: ExpertGameState) -> float:
        return float(state.prior @ improper_potential_terms(state.regret, state.variance))

    def bound(self, v_agg, pi_mass, t):
        return rb.bound_theorem3(v_agg, pi_mass, t)


@dataclass(frozen=True)
class DiscreteGridPrior:
    """Point masses on a decreasing grid of learning rates in (0, 1/2].

    ``log_mass_eta`` is ln(masses * etas), computed once at construction.
    """

    etas: np.ndarray
    masses: np.ndarray
    log_mass_eta: np.ndarray = field(init=False, repr=False, compare=False)
    bound = None  # no theorem for a grid prior yet

    def __post_init__(self):
        object.__setattr__(self, "etas", np.asarray(self.etas, dtype=float))
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float))
        if self.etas.ndim != 1 or self.etas.shape != self.masses.shape:
            raise ValueError("etas and masses must be 1-d arrays of equal length")
        if not np.all((self.etas > 0.0) & (self.etas <= 0.5)):
            raise ValueError("grid points must lie in (0, 1/2]")
        if not np.all(np.diff(self.etas) < 0.0):
            raise ValueError("grid points must be strictly decreasing")
        _check_simplex(self.masses, "grid masses")
        object.__setattr__(self, "log_mass_eta", np.log(self.masses * self.etas))

    @classmethod
    def uniform_on(cls, etas) -> "DiscreteGridPrior":
        etas = np.asarray(etas, dtype=float)
        if not etas.size:
            raise ValueError("a grid prior needs at least one learning rate")
        return cls(etas=etas, masses=np.full(etas.shape, 1.0 / etas.size))

    def log_weights(self, state: ExpertGameState) -> np.ndarray:
        log_terms = _grid_exponent(state, self.etas) + self.log_mass_eta[None, :]
        return np.log(state.prior) + logsumexp(log_terms, axis=1)

    def potential(self, state: ExpertGameState) -> float:
        log_terms = _grid_exponent(state, self.etas) + np.log(self.masses)[None, :]
        log_terms += np.log(state.prior)[:, None]
        return math.expm1(logsumexp(log_terms))


LearningRatePrior = Union[ConjugatePrior, CVPrior, ImproperPrior, DiscreteGridPrior]


def update(state: ExpertGameState, weights: np.ndarray, losses: np.ndarray) -> ExpertGameState:
    """Advance the state by one round played with ``weights`` against ``losses``.

    Checks ``weights`` (on the simplex) and ``losses`` (in [0, 1]), so every
    instantaneous regret has |r^k| <= 1 up to rounding, and returns the next
    state without re-running ``ExpertGameState``'s checks.  The round's
    regret vector r stays on it as ``_round_regret``, for iProd's log-factors.
    """
    weights = np.asarray(weights, dtype=float)
    losses = np.asarray(losses, dtype=float)
    k = state.num_experts
    if weights.shape != (k,) or losses.shape != (k,):
        raise ValueError(f"expected {k}-vectors, got {weights.shape} and {losses.shape}")
    _check_simplex(weights, "weights")
    # written as "not good" so that a nan entry fails
    if not (np.minimum.reduce(losses) >= 0.0 and np.maximum.reduce(losses) <= 1.0):
        raise ValueError("losses must lie in [0, 1]")
    r = float(weights @ losses) - losses
    regret, variance, cum_loss = state.regret + r, state.variance + r * r, state.cum_loss + losses
    return ExpertGameState._trusted(state.prior, regret, variance, cum_loss, state.t + 1, r)


def _log_terms(prior: np.ndarray, regret: np.ndarray, variance: np.ndarray, kernel) -> np.ndarray:
    """Per-expert ln pi(k) + kernel(R^k, V^k), one scalar closed form per expert."""
    # Python floats give the same bits as numpy scalars, about twice as fast
    pairs = zip(prior.tolist(), regret.tolist(), variance.tolist())
    return np.array([math.log(p) + kernel(r, v) for p, r, v in pairs])


# Substituting u = -1/ln(eta) maps (0, 1/2] to (0, 1/ln 2] and turns the
# prior density ln2/(eta ln^2 eta) deta into plain ln2 du: the transformed
# integrands vanish at u = 0 with all derivatives (eta = e^{-1/u}), so the
# quadrature never chases the slowly-decaying 1/ln^2 endpoint.
_CV_UPPER = 1.0 / math.log(2.0)
_CV_SPEC = QuadratureSpec(0.0, _CV_UPPER)


# e^700 ~ 1e304: the largest peak exponent that the linear-domain potentials
# take, which leaves their quadrature sums headroom below overflow
LINEAR_EXPONENT_LIMIT = 700.0


def _cv_eta_of_u(u: np.ndarray) -> np.ndarray:
    # exactly 0.0 at u = 0: exp(-1e300) underflows
    return np.exp(-1.0 / np.maximum(u, 1e-300))


def _peak_knots(regret, variance, peak, in_u: bool) -> list[float]:
    """Knots at each interior peak and +-1, +-3 bump widths 1/sqrt(2V), at most 48.

    ``in_u`` places them in u = -1/ln(eta) on [0, 1/ln 2] and adds
    u = 1/ln|R| where R < -e (the mass sits near eta ~ 1/|R|); otherwise
    they lie in eta on [0, 1/2].  Past 48, as in large stacked batches, a
    uniform seed of the interval suffices: bump widths stay wide for V <= t.
    """
    upper = _CV_UPPER if in_u else 0.5
    knots = []
    for r, v, p in zip(regret.tolist(), variance.tolist(), peak.tolist()):
        if 0.0 < p < 0.5:
            center, width = p, 1.0 / math.sqrt(2.0 * v)
            if in_u:
                center = -1.0 / math.log(p)
                width = width * center * center / p
            for k in (-3.0, -1.0, 0.0, 1.0, 3.0):
                cand = center + k * width
                if 0.0 < cand < upper:
                    knots.append(cand)
        if in_u and r < -math.e:
            knots.append(1.0 / math.log(-r))
    knots = sorted(set(knots))
    if len(knots) > 48:
        return list(np.linspace(0.0, upper, 50)[1:-1])
    return knots


def _eta_quadrature(regret, variance, integrand, in_u: bool, linear=None, spec=None):
    """Per-expert peak exponents and integrals over the learning rate, in one call.

    Coerces the statistics R and V, finds each expert's peak exponent
    ``shift`` = max over eta in [0, 1/2] of eta R - eta^2 V, and integrates
    ``integrand(g, eta, shift)`` with one ``integrate_adaptive_batch`` call:
    eta are the abscissas' learning rates (n,) and g the fresh (n, K) array
    of exponents eta R - eta^2 V, which the integrand may overwrite and
    return.  ``in_u`` integrates in u = -1/ln(eta) over [0, 1/ln 2] with
    ``_CV_SPEC`` (or the tolerances and budget of ``spec``), otherwise in
    eta over [0, 1/2]; ``_peak_knots`` seeds either.  ``linear`` names a
    linear-domain potential: it raises ``OverflowError`` when the largest
    peak exponent exceeds ``LINEAR_EXPONENT_LIMIT``.  Returns (shift,
    integrals).
    """
    regret = np.asarray(regret, dtype=float)
    variance = np.asarray(variance, dtype=float)
    peak = _exponent_peak(regret, variance)
    shift = _exponent(peak, regret, variance)
    if linear is not None:
        top = np.maximum.reduce(shift, initial=-math.inf)
        if top > LINEAR_EXPONENT_LIMIT:  # a nan is left to the quadrature
            raise OverflowError(
                f"the {linear} potential is evaluated in linear domain, which needs "
                f"max_k max_eta (eta R - eta^2 V) <= {LINEAR_EXPONENT_LIMIT}, got {float(top)!r}"
            )
    default = _CV_SPEC if in_u else QuadratureSpec(0.0, 0.5)
    spec = default if spec is None else replace(spec, lower=0.0, upper=default.upper)

    def f(x: np.ndarray) -> np.ndarray:
        eta = _cv_eta_of_u(x) if in_u else x
        return integrand(_exponent(eta[:, None], regret, variance), eta, shift)

    knots = _peak_knots(regret, variance, peak, in_u)
    return shift, integrate_adaptive_batch(f, spec, knots=knots)


def cv_log_integrals(
    regret: np.ndarray, variance: np.ndarray, spec: QuadratureSpec | None = None
) -> np.ndarray:
    """Per-expert ln of ln(2) int_0^{1/2} e^{eta R - eta^2 V} / ln^2(eta) deta.

    All experts share one batched adaptive quadrature (in the transformed
    variable u = -1/ln eta), each max-shifted by its own peak exponent.  Only
    the tolerances and subdivision budget of ``spec`` are used.
    """

    def f(g, eta, shift):
        g -= shift
        np.exp(g, out=g)
        g *= eta[:, None]
        return g

    shift, integrals = _eta_quadrature(regret, variance, f, in_u=True, spec=spec)
    return shift + np.log(integrals) + math.log(math.log(2.0))


def _grid_exponent(state: ExpertGameState, etas: np.ndarray) -> np.ndarray:
    """(K, G) exponents, C-ordered so logsumexp sums along the grid axis pairwise."""
    return np.outer(state.regret, etas) - np.outer(state.variance, etas * etas)


def iprod_log_factors(r: np.ndarray, prior: DiscreteGridPrior) -> np.ndarray:
    """One round's (G, K) log factors ln(1 + eta r^k), one row per grid point.

    ``r`` is the round's instantaneous regret vector; adding these rows up
    over the rounds gives the log-products that ``iprod_weights_grid``
    reads.  Requires every factor 1 + eta r to stay positive, which holds
    whenever |eta r| <= 1/2.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 1:
        raise ValueError("r must be one regret vector")
    x = prior.etas[:, None] * r[None, :]
    # for doubles 1 + x > 0 exactly when x > -1; a nan regret fails too
    if not np.minimum.reduce(x, axis=None, initial=math.inf) > -1.0:
        raise ValueError("product factor 1 + eta*r is not positive; need |eta*r| <= 1/2")
    return np.log1p(x)


def iprod_weights_grid(
    log_products: np.ndarray, prior_pi: np.ndarray, prior: DiscreteGridPrior
) -> np.ndarray:
    """Weights from products prod_t (1 + eta r_t^k) over a discrete grid.

    ``log_products`` is the (G, K) array of sums over past rounds of
    ``iprod_log_factors``: row g holds ln prod_t (1 + eta_g r_t^k).  Zeros
    (no rounds yet) give back ``prior_pi``.
    """
    log_products = np.asarray(log_products, dtype=float)
    prior_pi = np.asarray(prior_pi, dtype=float)
    _check_simplex(prior_pi, "prior")
    if log_products.shape != (prior.etas.shape[0], prior_pi.shape[0]):
        raise ValueError("log_products must be (grid points, experts)")
    log_terms = log_products + prior.log_mass_eta[:, None]
    log_w = np.log(prior_pi) + logsumexp(log_terms, axis=0)
    return normalize_log_weights(log_w)


def hedge_weights(state: ExpertGameState, eta: float) -> np.ndarray:
    """Exponential weights on cumulative losses at a fixed learning rate."""
    if not 0.0 < eta < math.inf:  # nan fails too
        raise ValueError(f"hedge learning rate must be positive and finite, got {eta}")
    with np.errstate(over="ignore"):  # a loss weighed past the float range leaves weight 0
        log_w = np.log(state.prior) - eta * state.cum_loss
    if not math.isfinite(np.maximum.reduce(log_w, axis=None)):
        raise ValueError(f"hedge learning rate eta={eta} leaves no expert a finite log-weight")
    return normalize_log_weights(log_w)


def improper_potential_terms(regret, variance) -> np.ndarray:
    """Per-expert int_0^{1/2} (e^{eta R - eta^2 V} - 1)/eta deta.

    Accepts stacked statistics of any length (e.g. many games side by side);
    the integrand takes the limit value R at eta = 0.  Linear-domain: raises
    ``OverflowError`` when max_k max_eta (eta R - eta^2 V), at most
    max R^2/(4V), exceeds ``LINEAR_EXPONENT_LIMIT`` (700).
    """
    regret = np.asarray(regret, dtype=float)

    def f(g, eta, shift):
        np.expm1(g, out=g)
        g /= np.where(eta > 0.0, eta, 1.0)[:, None]
        g[eta == 0.0] = regret
        return g

    return _eta_quadrature(regret, variance, f, in_u=False, linear="improper")[1]


def cv_potential_terms(regret, variance) -> np.ndarray:
    """Per-expert int (e^{eta R - eta^2 V} - 1) gamma(eta) deta, CV density.

    Computed in the substituted variable u = -1/ln(eta), where the density
    becomes flat: ln2 * int_0^{1/ln2} (e^{g(eta(u))} - 1) du.  Linear-domain,
    with the limit of ``improper_potential_terms``.
    """

    def f(g, eta, shift):
        return np.expm1(g, out=g)

    return math.log(2.0) * _eta_quadrature(regret, variance, f, in_u=True, linear="CV")[1]


def weights_for_prior(state: ExpertGameState, prior: LearningRatePrior) -> np.ndarray:
    """The Squint weights under ``prior``: its log-weights, normalized."""
    return normalize_log_weights(prior.log_weights(state))


def potential(state: ExpertGameState, prior: LearningRatePrior) -> float:
    """Diagnostic potential: prior-averaged exp(eta R - eta^2 V) minus one.

    Non-positive on any history whose weights were produced by the matching
    weight rule; zero on the empty history.  For the improper prior the
    constant cannot be pulled out of the divergent 1/eta integral, so the
    subtracted form (e^{g} - 1)/eta is integrated directly.

    The improper and CV potentials evaluate their exponents in linear
    domain, so they raise ``OverflowError`` when the largest exponent
    max_k max_eta (eta R^k - eta^2 V^k) exceeds ``LINEAR_EXPONENT_LIMIT``
    (700).  It is at most max_k (R^k)^2/(4 V^k) <= t/4 after t rounds, so
    the first 2800 rounds never raise.  The weight rules have no such limit.
    """
    return prior.potential(state)

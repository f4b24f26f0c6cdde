"""Combinatorial online prediction with aggregated learning rates.

One mix-loss learner (``ComponentBayes``) runs per learning-rate grid point:
it keeps an unprojected vector, entropy-projects it onto the usage polytope
each round, and applies independent per-coordinate Bayesian updates.  The
aggregate plays the exp(-L)-weighted average of the per-rate usages, where
L accumulates each learner's mix loss scaled by 1/K plus the initialization
-ln(gamma(eta) * eta).  The played vector is a convex combination of hull
points, hence itself a valid usage.

Losses arrive in [-1, +1]^K.  With usage u played and loss vector l, the
per-coordinate regret pair is r1 = u*l - l (against playing the component)
and r0 = u*l (against skipping it); slice updates use the equivalent closed
forms in (u, l) directly, avoiding the log transform of the auxiliary
losses -ln(1 + eta r).

Comparator statistics are linear in the comparator, so the state tracks the
four cumulative per-coordinate vectors (sums of r1, r0 and their squares)
from which any hull point's aggregate regret and variance follow exactly;
the algorithm itself never reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import ceil_one_plus_log2, logsumexp
from .polytopes import ConceptClass, clamp_interior, unconstrained_update
from .regret_bounds import ComparatorAggregate, binary_relative_entropy

__all__ = [
    "EtaSlice",
    "CombGameState",
    "ComponentBayes",
    "learning_rate_grid",
    "make_game",
    "play",
    "observe",
    "potential",
    "mix_loss",
    "comparator_stats",
    "comparator_aggregate",
    "lemma4_check",
]


def learning_rate_grid(t_max: int) -> np.ndarray:
    """{2^-i : i = 1..ceil(1 + log2 T)}, decreasing."""
    return 2.0 ** -np.arange(1, ceil_one_plus_log2(t_max) + 1, dtype=float)


@dataclass
class EtaSlice:
    """Per-learning-rate state: one mix-loss learner plus its mixture weight."""

    eta: float
    u_tilde: np.ndarray  # unprojected vector, kept interior
    u_proj: np.ndarray | None  # latest projection onto the hull
    neg_log_weight: float  # initialization -ln(gamma*eta) plus mix losses / K


@dataclass
class CombGameState:
    """Full state of the aggregated combinatorial learner."""

    concept_class: ConceptClass
    slices: list[EtaSlice]
    gamma: np.ndarray
    prior_vec: np.ndarray
    t: int = 0
    pending_usage: np.ndarray | None = None
    cum_r1: np.ndarray = field(default=None)
    cum_r0: np.ndarray = field(default=None)
    cum_sq1: np.ndarray = field(default=None)
    cum_sq0: np.ndarray = field(default=None)

    def __post_init__(self):
        k = self.concept_class.num_components
        for name in ("cum_r1", "cum_r0", "cum_sq1", "cum_sq0"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(k))

    @property
    def num_components(self) -> int:
        return self.concept_class.num_components

    @property
    def etas(self) -> np.ndarray:
        return np.array([s.eta for s in self.slices])


def make_game(
    concept_class: ConceptClass,
    prior_vec: np.ndarray | None = None,
    t_max: int = 1,
) -> CombGameState:
    """Initialize slices on the horizon-determined grid with uniform gamma.

    ``prior_vec`` is any interior vector in (0,1)^K (after clamping); it need
    not lie in the usage polytope, projection takes care of that.
    """
    if t_max < 1:
        raise ValueError(f"horizon must be >= 1, got {t_max}")
    k = concept_class.num_components
    if prior_vec is None:
        prior_vec = np.full(k, 0.5)
    prior_vec = clamp_interior(np.asarray(prior_vec, dtype=float))
    if prior_vec.shape != (k,):
        raise ValueError(f"prior vector must have length {k}")
    etas = learning_rate_grid(t_max)
    gamma = np.full(etas.size, 1.0 / etas.size)
    slices = [
        EtaSlice(
            eta=float(eta),
            u_tilde=prior_vec.copy(),
            u_proj=None,
            neg_log_weight=-math.log(g * eta),
        )
        for eta, g in zip(etas, gamma)
    ]
    return CombGameState(
        concept_class=concept_class, slices=slices, gamma=gamma, prior_vec=prior_vec
    )


def play(state: CombGameState) -> np.ndarray:
    """Project every slice and return the mixture usage for this round."""
    tildes = np.stack([s.u_tilde for s in state.slices])
    projected = state.concept_class.project_batch(tildes)
    log_w = np.array([-s.neg_log_weight for s in state.slices])
    w = np.exp(log_w - logsumexp(log_w))
    w = w / w.sum()
    usage = w @ projected
    for s, row in zip(state.slices, projected):
        s.u_proj = row
    state.pending_usage = usage
    return usage


def observe(state: CombGameState, losses: np.ndarray) -> CombGameState:
    """Consume this round's loss vector; updates every slice and the stats."""
    losses = np.asarray(losses, dtype=float)
    k = state.num_components
    if losses.shape != (k,):
        raise ValueError(f"expected a {k}-vector of losses")
    if np.any(np.abs(losses) > 1.0):
        raise ValueError("losses must lie in [-1, +1] componentwise")
    if state.pending_usage is None:
        raise RuntimeError("observe() requires a preceding play() in the same round")
    u = state.pending_usage
    for s in state.slices:
        denom = 1.0 + s.eta * (u - s.u_proj) * losses
        numer = 1.0 + s.eta * (u - 1.0) * losses
        if np.any(denom <= 0.0) or np.any(numer <= 0.0):
            raise AssertionError("update factor went nonpositive; loss range violated")
        s.u_tilde = clamp_interior(s.u_proj * numer / denom)
        s.neg_log_weight -= float(np.log(denom).sum()) / k
        s.u_proj = None
    r1 = u * losses - losses
    r0 = u * losses
    state.cum_r1 += r1
    state.cum_r0 += r0
    state.cum_sq1 += r1 * r1
    state.cum_sq0 += r0 * r0
    state.t += 1
    state.pending_usage = None
    return state


def potential(state: CombGameState) -> float:
    """Diagnostic mixture potential; 0 on the empty history, never above 0.

    Equals sum_eta gamma(eta) (exp(-sum_t mixloss/K) - 1), reconstructed from
    the accumulated weights as sum_eta exp(-L_eta)/eta - 1.
    """
    terms = np.array([-s.neg_log_weight - math.log(s.eta) for s in state.slices])
    return math.expm1(logsumexp(terms))


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


def comparator_stats(state: CombGameState, v: np.ndarray) -> tuple[float, float]:
    """(aggregate regret, aggregate variance) of a comparator in the hull."""
    v = np.asarray(v, dtype=float)
    if v.shape != (state.num_components,):
        raise ValueError(f"comparator must have length {state.num_components}")
    r = float(v @ state.cum_r1 + (1.0 - v) @ state.cum_r0)
    var = float(v @ state.cum_sq1 + (1.0 - v) @ state.cum_sq0)
    return r, var


def comparator_aggregate(state: CombGameState, v: np.ndarray) -> ComparatorAggregate:
    r, var = comparator_stats(state, v)
    return ComparatorAggregate(
        v=np.asarray(v, dtype=float),
        r_v=r,
        v_v=var,
        entropy=binary_relative_entropy(v, state.prior_vec),
    )


def lemma4_check(state: CombGameState, eta: float, v: np.ndarray) -> tuple[float, float]:
    """(eta R_v - eta^2 V_v, entropy(v) - K ln gamma(eta)) for a grid eta.

    Callers assert lhs <= rhs; the right-hand side is the per-rate guarantee
    the aggregation inherits.
    """
    match = [j for j, s in enumerate(state.slices) if math.isclose(s.eta, eta, rel_tol=1e-12)]
    if not match:
        raise ValueError(f"{eta} is not a grid learning rate")
    j = match[0]
    r, var = comparator_stats(state, v)
    lhs = eta * r - eta * eta * var
    rhs = binary_relative_entropy(v, state.prior_vec) - state.num_components * math.log(
        float(state.gamma[j])
    )
    return lhs, rhs


class ComponentBayes:
    """Projected componentwise Bayesian updates for sums of mix losses.

    Each round: play the hull projection of the current vector, receive a
    pair of loss components per coordinate, move to the componentwise
    posterior.  The cumulative mix loss exceeds any hull comparator's linear
    loss by at most the comparator's binary relative entropy to the prior.
    """

    def __init__(self, concept_class: ConceptClass, prior_vec: np.ndarray):
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

"""Combinatorial online prediction with aggregated learning rates.

One mix-loss learner runs per learning-rate grid point: it keeps an
unprojected vector, entropy-projects it onto the usage polytope each round,
and applies independent per-coordinate Bayesian updates.  The state holds
the G learners as rows of (grid x K) arrays.  The aggregate plays the
exp(-L)-weighted average of the per-rate usages, where L accumulates each
learner's mix loss scaled by 1/K plus the initialization -ln(gamma(eta) *
eta).  The played vector is a convex combination of hull points, hence
itself a valid usage.

Losses arrive in [-1, +1]^K.  With usage u played and loss vector l, the
per-coordinate regret pair is r1 = u*l - l (against playing the component)
and r0 = u*l (against skipping it); the per-rate updates use the equivalent
closed forms in (u, l) directly, avoiding the log transform of the auxiliary
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

from .numerics import ceil_one_plus_log2, logsumexp, normalize_log_weights
from .polytopes import ConceptClass, clamp_interior

__all__ = [
    "CombGameState",
    "learning_rate_grid",
    "make_game",
    "play",
    "observe",
    "potential",
    "comparator_stats",
]


def learning_rate_grid(t_max: int) -> np.ndarray:
    """{2^-i : i = 1..ceil(1 + log2 T)}, decreasing; ValueError where 2^-i is subnormal."""
    count = ceil_one_plus_log2(t_max)
    if count > 1022:  # 2^-1022 is the least normal float
        raise ValueError(f"t_max above 2^1021: its {count} learning rates leave the normal floats")
    return 2.0 ** -np.arange(1, count + 1, dtype=float)


@dataclass
class CombGameState:
    """Full state of the aggregated combinatorial learner.

    Row g of ``u_tilde``, ``u_proj`` and ``neg_log_weight`` belongs to the
    mix-loss learner at rate ``etas[g]``: its unprojected vector (kept
    interior), its latest projection onto the hull (None between rounds),
    and its initialization -ln(gamma*eta) plus mix losses / K.
    """

    concept_class: ConceptClass
    etas: np.ndarray
    u_tilde: np.ndarray
    neg_log_weight: np.ndarray
    gamma: np.ndarray
    prior_vec: np.ndarray
    u_proj: np.ndarray | None = None
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


def make_game(
    concept_class: ConceptClass,
    prior_vec: np.ndarray | None = None,
    t_max: int = 1,
) -> CombGameState:
    """Initialize the learners on the horizon-determined grid with uniform gamma.

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
    return CombGameState(
        concept_class=concept_class,
        etas=etas,
        u_tilde=np.tile(prior_vec, (etas.size, 1)),
        neg_log_weight=np.array([-math.log(g * eta) for eta, g in zip(etas, gamma)]),
        gamma=gamma,
        prior_vec=prior_vec,
    )


def play(state: CombGameState) -> np.ndarray:
    """Project every learner and return the mixture usage for this round."""
    state.u_proj = state.concept_class.project_batch(state.u_tilde)
    state.pending_usage = normalize_log_weights(-state.neg_log_weight) @ state.u_proj
    return state.pending_usage


def observe(state: CombGameState, losses: np.ndarray) -> CombGameState:
    """Consume this round's loss vector; updates every learner and the stats."""
    losses = np.asarray(losses, dtype=float)
    k = state.num_components
    if losses.shape != (k,):
        raise ValueError(f"expected a {k}-vector of losses")
    if np.any(np.abs(losses) > 1.0):
        raise ValueError("losses must lie in [-1, +1] componentwise")
    if state.pending_usage is None:
        raise RuntimeError("observe() requires a preceding play() in the same round")
    u = state.pending_usage
    eta = state.etas[:, None]
    denom = 1.0 + eta * (u - state.u_proj) * losses
    numer = 1.0 + eta * (u - 1.0) * losses
    if np.any(denom <= 0.0) or np.any(numer <= 0.0):
        raise ValueError("update factor went nonpositive; loss range violated")
    state.u_tilde = clamp_interior(state.u_proj * numer / denom)
    state.neg_log_weight -= np.log(denom).sum(axis=1) / k
    state.u_proj = None
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
    log_etas = np.array([math.log(eta) for eta in state.etas.tolist()])
    return math.expm1(logsumexp(-state.neg_log_weight - log_etas))


def comparator_stats(state: CombGameState, v: np.ndarray) -> tuple:
    """(aggregate regret, aggregate variance) of hull comparators.

    ``v`` is one comparator (K,), giving two floats, or a stack (N x K),
    giving two (N,) arrays.  Row j of a stack gets the same bits as that row
    alone: on a C-contiguous stack ``np.vecdot`` makes one BLAS ddot per row,
    as ``row @ cum`` does, whereas a strided or Fortran-order stack would
    take a kernel that rounds differently, hence the contiguous copy.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != state.num_components:
        raise ValueError(f"comparators must be {state.num_components}-vectors or rows of them")
    v = np.ascontiguousarray(v)
    w = 1.0 - v
    r = np.vecdot(v, state.cum_r1) + np.vecdot(w, state.cum_r0)
    var = np.vecdot(v, state.cum_sq1) + np.vecdot(w, state.cum_sq0)
    return (float(r), float(var)) if v.ndim == 1 else (r, var)

"""Exact calculators for the algorithms' regret guarantees.

Each ``bound_*`` function evaluates the right-hand side of one guarantee as a
pure formula of already-aggregated statistics, so that any run of the
matching algorithm can be machine-checked: measured aggregate regret must
never exceed the calculator's value.

Subset aggregates average per-expert statistics under the prior conditioned
on the subset; a comparator in a usage polytope is audited with its
coordinate-wise statistics and its binary relative entropy to the prior
vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import ceil_one_plus_log2, log_exp_integral

__all__ = [
    "SubsetAggregate",
    "aggregate_subset",
    "ln_plus",
    "z_conjugate",
    "bound_theorem1",
    "bound_theorem2",
    "bound_theorem3",
    "bound_theorem4",
    "binary_relative_entropy",
]


def ln_plus(x: float) -> float:
    """ln(max(x, 1)): the clipped logarithm used throughout the bounds."""
    return math.log(x) if x > 1.0 else 0.0


@dataclass(frozen=True)
class SubsetAggregate:
    """Prior-conditional averages of regret and variance over an expert subset."""

    subset: tuple[int, ...]
    pi_mass: float
    r_agg: float
    v_agg: float


def aggregate_subset(state, subset) -> SubsetAggregate:
    """Average (under the prior, conditioned on ``subset``) of R and V.

    ``state`` is an ``ExpertGameState``; ``subset`` any nonempty iterable of
    expert indices with positive total prior mass.
    """
    idx = sorted(set(int(i) for i in subset))
    if not idx:
        raise ValueError("subset must be nonempty")
    k = state.prior.shape[0]
    if idx[0] < 0 or idx[-1] >= k:
        raise ValueError(f"subset indices must lie in [0, {k})")
    mass = float(state.prior[idx].sum())
    if mass <= 0.0:
        raise ValueError("subset has zero prior mass")
    cond = state.prior[idx] / mass
    return SubsetAggregate(
        subset=tuple(idx),
        pi_mass=mass,
        r_agg=float(cond @ state.regret[idx]),
        v_agg=float(cond @ state.variance[idx]),
    )


def z_conjugate(a: float, b: float) -> float:
    """Normalizer int_0^{1/2} exp(a eta - b eta^2) deta; 1/2 when a = b = 0."""
    if a == 0.0 and b == 0.0:
        return 0.5
    return math.exp(log_exp_integral(a, b))


def _as_arrays(*stats):
    """The statistics as float arrays, and whether all of them were scalars."""
    arrays = [np.asarray(x, dtype=float) for x in stats]
    return arrays, all(x.ndim == 0 for x in arrays)


def _result(x: np.ndarray, scalar: bool):
    return float(x) if scalar else x


def _map(fn, x: np.ndarray) -> np.ndarray:
    """The scalar formula ``fn`` at each entry of ``x``.

    The bounds' logarithms go through here (or ``_map_distinct``) so that
    they stay ``math.log`` on Python floats: ``np.log`` differs from it in
    the last bit on a small fraction of inputs, and so does ``**`` from
    numpy's square.
    """
    return np.array([fn(value) for value in x.ravel().tolist()]).reshape(x.shape)


def _map_distinct(fn, x: np.ndarray) -> np.ndarray:
    """``_map`` evaluating ``fn`` once per distinct value, for terms of the prior mass."""
    values = x.ravel().tolist()
    at = {value: fn(value) for value in set(values)}
    return np.array([at[value] for value in values]).reshape(x.shape)


def _check_pi_mass(pi_mass: np.ndarray) -> None:
    if not ((pi_mass > 0.0) & (pi_mass <= 1.0)).all():
        raise ValueError(f"prior mass must lie in (0, 1], got {pi_mass}")


def _check_variance(v_agg: np.ndarray) -> None:
    if (v_agg < 0.0).any():
        raise ValueError(f"variance aggregate must be nonnegative, got {v_agg}")


def bound_theorem1(v_agg, pi_mass, a: float = 0.0, b: float = 0.0):
    """Guarantee of the conjugate-prior rule:
    2 sqrt((V+b)(1/2 + ln+(Z sqrt(2(V+b))/pi))) + 5 ln+(2 sqrt(5) Z/pi) - a.

    ``v_agg`` and ``pi_mass`` may be arrays (one entry per audited subset);
    scalars give a float.  So do the other calculators.
    """
    (v_agg, pi_mass), scalar = _as_arrays(v_agg, pi_mass)
    _check_pi_mass(pi_mass)
    _check_variance(v_agg)
    z = z_conjugate(a, b)
    vb = v_agg + b
    main = 2.0 * np.sqrt(vb * (0.5 + _map(ln_plus, z * np.sqrt(2.0 * vb) / pi_mass)))
    tail = 5.0 * _map_distinct(ln_plus, 2.0 * math.sqrt(5.0) * z / pi_mass)
    return _result(main + tail - a, scalar)


def bound_theorem2(v_agg, pi_mass):
    """Guarantee of the near-1/eta proper-prior rule:
    sqrt(2V)(1 + sqrt(2 ln+(ln+^2(2 sqrt(V)/(2-sqrt 2)) / (pi ln 2))))
    - 5 ln(pi) + 4.
    """
    (v_agg, pi_mass), scalar = _as_arrays(v_agg, pi_mass)
    _check_pi_mass(pi_mass)
    _check_variance(v_agg)
    inner = _map(lambda x: ln_plus(x) ** 2, 2.0 * np.sqrt(v_agg) / (2.0 - math.sqrt(2.0)))
    main = np.sqrt(2.0 * v_agg) * (
        1.0 + np.sqrt(2.0 * _map(ln_plus, inner / (pi_mass * math.log(2.0))))
    )
    return _result(main - 5.0 * _map_distinct(math.log, pi_mass) + 4.0, scalar)


def bound_theorem3(v_agg, pi_mass, horizon: int):
    """Guarantee of the improper-prior rule:
    sqrt(2V)(1 + sqrt(2 ln((1/2 + ln(T+1))/pi))) + 5 ln(1 + (1 + 2 ln(T+1))/pi).

    At T = 0 and pi = 1 the inner logarithm of the first term is negative;
    the term is multiplied by sqrt(V) = 0 there (no rounds, no variance), so
    V = 0 short-circuits the first term to zero.  Both logarithms depend
    only on (pi, T), so they are taken once per distinct prior mass.
    """
    (v_agg, pi_mass), scalar = _as_arrays(v_agg, pi_mass)
    _check_pi_mass(pi_mass)
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    _check_variance(v_agg)
    log_t = math.log(horizon + 1.0)
    tail = _map_distinct(lambda p: 5.0 * math.log(1.0 + (1.0 + 2.0 * log_t) / p), pi_mass)
    root = _map_distinct(
        lambda p: math.sqrt(2.0 * math.log(max((0.5 + log_t) / p, 1.0))), pi_mass
    )
    main = np.where(v_agg == 0.0, 0.0, np.sqrt(2.0 * v_agg) * (1.0 + root))
    return _result(main + tail, scalar)


def bound_theorem4(v_v, entropy, num_components: int, horizon: int):
    """Final guarantee of the learning-rate-aggregated combinatorial rule:
    (4/sqrt 3) sqrt(V (D + K ln ceil(1+log2 T))) + 4 D + K max(4 ln ceil(1+log2 T), 1).

    ``v_v`` and ``entropy`` may be arrays, one entry per comparator.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    (v_v, entropy), scalar = _as_arrays(v_v, entropy)
    if (v_v < 0.0).any() or (entropy < 0.0).any():
        raise ValueError("variance and entropy must be nonnegative")
    g = ceil_one_plus_log2(horizon)
    log_g = math.log(g)
    main = 4.0 / math.sqrt(3.0) * np.sqrt(v_v * (entropy + num_components * log_g))
    return _result(main + 4.0 * entropy + num_components * max(4.0 * log_g, 1.0), scalar)


def binary_relative_entropy(v, u):
    """Sum over coordinates of v ln(v/u) + (1-v) ln((1-v)/(1-u)).

    ``v`` may touch the boundary (0 ln 0 = 0); ``u`` should be interior.
    A boundary coordinate of ``u`` with a mismatched ``v`` yields inf.
    An (N x K) stack ``v`` gives an (N,) array, entry j the float of row j.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if v.ndim > 2 or v.shape[-1:] != u.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {u.shape}")
    if np.any((v < 0.0) | (v > 1.0)) or np.any((u < 0.0) | (u > 1.0)):
        raise ValueError("arguments must lie in [0, 1] componentwise")
    with np.errstate(divide="ignore", invalid="ignore"):  # in place, as a stack's arrays are large
        first = np.log(v)
        first -= np.log(u)
        first *= v
        first[~(v > 0.0)] = 0.0
        second = np.log1p(-v)
        second -= np.log1p(-u)
        second *= 1.0 - v
        second[~(v < 1.0)] = 0.0
    first += second
    total = np.sum(first, axis=-1)
    total = np.where(np.isnan(total), math.inf, total)
    return float(total) if v.ndim == 1 else total

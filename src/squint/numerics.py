"""Shared floating-point kernels for learning-rate integrals.

Everything downstream reduces to integrals of exp(eta*r - eta^2*v) over the
learning-rate interval [0, 1/2], possibly with an extra eta factor or a prior
density in the integrand.  This module provides:

- ``log_xi``: the closed erf-based form of
  int_0^{1/2} exp(eta*r - eta^2*v) deta for v > 0, evaluated in log domain
  without catastrophic cancellation over the whole (r, v) plane (a series
  about eta = 1/4 where both |r| and v are small),
- analytic values for the degenerate v == 0 case,
- the eta-weighted integral int_0^{1/2} eta exp(eta*x - eta^2*y) deta used by
  conjugate-prior weights,
- deterministic adaptive Simpson quadrature, batched over vector integrands.

All potentially huge quantities are handled in log domain: the integrals grow
like exp(r/2 - v/4) or exp(r^2/(4v)) and overflow float64 long before the
algorithms upstream stop being well defined.  The curvature v is a
cumulative variance, so the domain is v >= 0: the ``log_*`` functions
return a finite value for any finite r and any finite v >= 0, and raise
``ValueError`` for v < 0.

Naive evaluation of the erf-based closed form loses all precision when both
erf arguments are large with the same sign (the difference of two values that
round to +-1).  The classical fix is to switch to a second-order large-|r|
expansion, (exp(r/2 - v/4)(r + v) - r)/r^2, outside the window
r in [-12 sqrt(v), v + 12 sqrt(v)].  That expansion carries a relative error
of order 1/72 + v^2/r^2 right at the window edge (0.7% at v=1 and almost 20%
at v=100), so it is not used.  Instead the erf difference is rearranged into
complementary error functions of nonnegative arguments, with an asymptotic
scaled-erfc series for arguments beyond 25, which keeps the relative error
near 1e-13 uniformly.  The two erfc arguments differ by only sqrt(v)/2,
though, so for small |r| and v their difference cancels anyway: at r = 0
the closed form's relative error grows as v shrinks (4.6e-5 at v = 1e-24),
and at (-1.1e-16, 1.2e-32) it takes ln(0).  Where |r| <= 1 and v <= 1e-2
``log_xi`` sums a double series instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "log_xi",
    "log_exp_integral",
    "log_eta_exp_integral",
    "integrate_adaptive_batch",
    "logsumexp",
    "normalize_log_weights",
    "ceil_one_plus_log2",
]

_LN_SQRT_PI = 0.5 * math.log(math.pi)

# erfc(x) stays a normal float64 up to x ~ 26.6; beyond 25 the six-term
# asymptotic series for the scaled function erfcx(x) = e^{x^2} erfc(x) is
# accurate to ~3e-15 already, so 25 is a safe switch point.
_ERFCX_SERIES_CUTOFF = 25.0

# log_xi's series about eta = 1/4 serves |r| <= 1 and v <= 1e-2.  Against
# 40-digit quadrature its relative error there stays below 6e-16, while the
# closed form's reaches 1.2e-11 (r = 4e-3, v = 1e-8), tops 3e-14 at every
# scanned v <= 1e-3 and stays below 1e-14 at v = 1e-2.
_SERIES_MAX_R = 1.0
_SERIES_MAX_V = 1e-2
_SERIES_TERMS = 8

# Exponents below this are safe to exponentiate in float64 with headroom.
_SAFE_EXP = 600.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Interval and tolerances for adaptive Simpson integration.

    The returned integral I satisfies an estimated error bound
    err <= max(abs_tol, rel_tol * |I|).
    """

    lower: float
    upper: float
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 20000

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("integration bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        # written as "not good" so that a nan tolerance fails
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        n = self.max_subdivisions
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("max_subdivisions must be a positive integer")


def _log_erfcx(x: float) -> float:
    """ln(erfcx(x)) = ln(exp(x^2) erfc(x)) for x >= 0, cancellation-free."""
    if x <= _ERFCX_SERIES_CUTOFF:
        return math.log(math.erfc(x)) + x * x
    z = 1.0 / (x * x)
    # erfcx(x) ~ (1 - 1/(2x^2) + 3/(4x^4) - 15/(8x^6) + 105/(16x^8) - 945/(32x^10)) / (x sqrt(pi))
    s = 1.0 + z * (-0.5 + z * (0.75 + z * (-1.875 + z * (6.5625 - z * 29.53125))))
    return -math.log(x) - _LN_SQRT_PI + math.log(s)


def _log_xi_series(r: float, v: float) -> float:
    """ln xi(r, v) for |r| <= 1 and 0 < v <= 1e-2, by a series about eta = 1/4.

    With eta = (1 + s)/4, xi = (1/2) e^{r/4 - v/16} I(beta, gamma), where
    beta = (r - v/2)/4, gamma = v/16 and
        I = (1/2) int_{-1}^{1} e^{beta s - gamma s^2} ds
          = sum_{m, j >= 0} beta^{2m} (-gamma)^j / ((2m)! j! (2m + 2j + 1)).
    Here |beta| < 0.26 and gamma <= 6.25e-4, so 8 x 8 terms reach float accuracy.
    """
    beta2 = (0.25 * r - 0.125 * v) ** 2
    gamma = v / 16.0
    total, b_term = 0.0, 1.0
    for m in range(_SERIES_TERMS):
        if m:
            b_term *= beta2 / ((2 * m - 1) * (2 * m))
        g_term = b_term
        for j in range(_SERIES_TERMS):
            if j:
                g_term *= -gamma / j
            total += g_term / (2 * m + 2 * j + 1)
    return math.log(0.5) + 0.25 * r - 0.0625 * v + math.log(total)


def log_xi(r: float, v: float) -> float:
    """ln of xi(r, v) = int_0^{1/2} exp(eta*r - eta^2*v) deta, for v > 0.

    Uses the identity
        xi = sqrt(pi) e^{r^2/(4v)} (erf(a) - erf(b)) / (2 sqrt(v)),
    a = r/(2 sqrt(v)), b = (r - v)/(2 sqrt(v)), rewritten per sign pattern of
    (a, b) so no difference of near-equal quantities is ever formed.  The
    combination a^2 - b^2 is computed exactly as r/2 - v/4.  Where |r| <= 1
    and v <= 1e-2, a and b nearly coincide and ``_log_xi_series`` is used.
    """
    if not (math.isfinite(r) and math.isfinite(v)):
        raise ValueError(f"log_xi requires finite inputs, got r={r}, v={v}")
    if v <= 0.0:
        raise ValueError(f"log_xi requires v > 0, got v={v}")
    if v <= _SERIES_MAX_V and abs(r) <= _SERIES_MAX_R:
        return _log_xi_series(r, v)
    sv = math.sqrt(v)
    a = r / (2.0 * sv)
    b = (r - v) / (2.0 * sv)
    c = 0.5 * r - 0.25 * v
    base = _LN_SQRT_PI - math.log(2.0 * sv)
    if b >= 0.0:
        # erf(a) - erf(b) = erfc(b) - erfc(a), both arguments >= 0
        delta = -c + _log_erfcx(a) - _log_erfcx(b)
        return base + c + _log_erfcx(b) + math.log1p(-math.exp(delta))
    if a <= 0.0:
        # symmetric case: erfc(-a) - erfc(-b), both arguments >= 0
        delta = c + _log_erfcx(-b) - _log_erfcx(-a)
        return base + _log_erfcx(-a) + math.log1p(-math.exp(delta))
    # b < 0 < a: a plain sum, no cancellation
    return base + a * a + math.log(math.erf(a) + math.erf(-b))


def _log_flat_integral(r: float) -> float:
    """ln of int_0^{1/2} e^{eta r} deta = (e^{r/2} - 1)/r, limit 1/2 at r=0."""
    if r == 0.0:
        return math.log(0.5)
    if r > 0.0:
        # e^{r/2}(1 - e^{-r/2})/r, stable for r from 1e-300 up to overflow
        return 0.5 * r + math.log(-math.expm1(-0.5 * r)) - math.log(r)
    return math.log(math.expm1(0.5 * r) / r)


def _log_eta_flat_integral(x: float) -> float:
    """ln of int_0^{1/2} eta e^{eta x} deta = (e^{x/2}(x/2 - 1) + 1)/x^2."""
    if abs(x) < 1e-3:
        # series sum_n x^n / (n! (n+2) 2^{n+2}); 12 terms reach float accuracy
        tot, term = 0.0, 1.0
        for n in range(12):
            if n > 0:
                term *= x / n
            tot += term / ((n + 2) * 2 ** (n + 2))
        return math.log(tot)
    if x > 0.0:
        if x < 2.0 * _SAFE_EXP:
            # e^{x/2}(x/2-1)+1 == expm1(x/2)(x/2-1) + x/2 avoids cancellation
            val = math.expm1(0.5 * x) * (0.5 * x - 1.0) + 0.5 * x
            return math.log(val) - 2.0 * math.log(x)
        return 0.5 * x + math.log(0.5 * x - 1.0) - 2.0 * math.log(x)
    # x < 0: e^{x/2}(x/2 - 1) lies in (-1, 0)
    return math.log1p(math.exp(0.5 * x) * (0.5 * x - 1.0)) - 2.0 * math.log(-x)


def _exponent(eta, regret, variance):
    """eta*R - eta^2*V, broadcast: abscissas eta[:, None] against (K,) statistics give (n, K)."""
    return eta * regret - eta * eta * variance


def _exponent_peak(regret, variance):
    """Elementwise argmax over [0, 1/2] of eta*R - eta^2*V.

    Concave (V > 0): R/(2V) clipped to the interval.  Linear (V == 0): 1/2
    where R >= 0, else 0.
    """
    with np.errstate(all="ignore"):
        inner = np.clip(np.divide(regret, 2.0 * variance), 0.0, 0.5)
    return np.where(variance > 0.0, inner, 0.5 * (regret >= 0.0))


# Effectively relative-only tolerance: the shifted integrals can be as small
# as 1/r^2 for |r| huge, and the log downstream needs relative accuracy.
_REL_ONLY_ABS_TOL = 1e-280

# exp(-45) ~ 2.9e-20: mass beyond that drop of the exponent is invisible at
# the 1e-10 relative tolerance used below.
_DECAY_BUDGET = 45.0


def _shifted_log_quadrature(r: float, v: float) -> float:
    """ln int_0^{1/2} eta e^{eta r - eta^2 v} deta by max-shifted Simpson.

    The integrand is shifted by its peak exponent and the domain is clipped
    to the region where the exponent (concave or linear, v >= 0) is within
    45 of the peak; an exponential boundary layer of width 1e-6 would
    otherwise force millions of panels on the full interval.
    """
    peak = float(_exponent_peak(r, v))
    shift = _exponent(peak, r, v)

    def f(eta: np.ndarray) -> np.ndarray:
        return (eta * np.exp(_exponent(eta, r, v) - shift))[:, None]

    # distance from the peak at which the exponent has dropped by 45
    rate = abs(r - 2.0 * peak * v)
    d = math.inf
    if rate > 0.0:
        d = _DECAY_BUDGET / rate
    if v > 0.0:
        d = min(d, math.sqrt(_DECAY_BUDGET / v))
    d = min(d, 0.5)
    lo = max(0.0, peak - d)
    hi = min(0.5, peak + d)
    knots = [peak + s * k * d for s in (-1.0, 1.0) for k in (0.02, 0.07, 0.25)]

    spec = QuadratureSpec(
        lo, hi, abs_tol=_REL_ONLY_ABS_TOL, rel_tol=1e-10, max_subdivisions=200_000
    )
    val = integrate_adaptive_batch(f, spec, knots=knots)[0]
    return shift + math.log(val)


def log_exp_integral(r: float, v: float) -> float:
    """ln of int_0^{1/2} exp(eta*r - eta^2*v) deta for finite r and v >= 0.

    v > 0 uses the closed erf form, v == 0 the analytic value.
    """
    if not (math.isfinite(r) and math.isfinite(v)):
        raise ValueError(f"log_exp_integral requires finite inputs, got r={r}, v={v}")
    if v < 0.0:
        raise ValueError(f"log_exp_integral requires v >= 0, got v={v}")
    if v > 0.0:
        return log_xi(r, v)
    return _log_flat_integral(r)


# Closed-form cancellation guard: fall back to quadrature when fewer than
# ~10 significant digits survive the signed combination.
_CANCELLATION_CAP = 1e6


def _log_eta_closed(x: float, y: float) -> float | None:
    """Closed form ln((x xi + 1 - e^{x/2-y/4}) / (2y)) via signed log-sum.

    The three terms can cancel almost completely (the combination equals
    2y J, which is tiny when the integral is dominated by a thin layer);
    returns None when the estimated relative error of the float combination
    exceeds ~2e-10, signalling the caller to integrate numerically instead.
    """
    c = 0.5 * x - 0.25 * y
    terms = [(1.0, 0.0), (-1.0, c)]
    if x != 0.0:
        terms.append((math.copysign(1.0, x), log_xi(x, y) + math.log(abs(x))))
    peak = max(m for _, m in terms)
    signed = sum(s * math.exp(m - peak) for s, m in terms)
    gross = sum(math.exp(m - peak) for _, m in terms)
    if signed <= 0.0 or gross > _CANCELLATION_CAP * signed:
        return None
    return peak + math.log(signed) - math.log(2.0 * y)


def log_eta_exp_integral(x: float, y: float) -> float:
    """ln of J(x, y) = int_0^{1/2} eta exp(eta*x - eta^2*y) deta, for y >= 0.

    For y > 0 uses the closed form J = (x xi(x,y) + 1 - e^{x/2 - y/4})/(2y)
    combined in log domain, falling back to max-shifted adaptive quadrature
    whenever the combination would cancel away too many digits (tiny
    arguments, or |x| extremely large relative to y).
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"log_eta_exp_integral requires finite inputs, got x={x}, y={y}")
    if y < 0.0:
        raise ValueError(f"log_eta_exp_integral requires y >= 0, got y={y}")
    if y == 0.0:
        return _log_eta_flat_integral(x)
    val = _log_eta_closed(x, y)
    if val is not None:
        return val
    return _shifted_log_quadrature(x, y)


def integrate_adaptive_batch(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec,
    knots: Sequence[float] | None = None,
) -> np.ndarray:
    """Adaptive Simpson quadrature of a vector-valued integrand.

    ``f`` maps an array of abscissas (n,) to values (n, m); the m components
    are integrated simultaneously over [spec.lower, spec.upper] and share the
    subdivision pattern.  ``f`` must be pointwise: row i of its result
    depends on ``x[i]`` only, so the abscissas of one subdivision level can
    be batched into a single call.  Each abscissa is evaluated once, in one
    call for the initial grid and one per level.  ``knots`` seeds extra
    subdivision points (e.g. the known location of a sharp bump, which a
    coarse initial grid would otherwise miss entirely).

    A level's n open intervals are held as one block of abscissas
    ``[a | mid | b]`` (3n,) and one block of values ``[f(a) | f(mid) | f(b)]``
    (3n, m).  The 2n halves, left halves first, then have their left ends in
    ``block[:2n]`` and their right ends in ``block[n:]``, and the kept halves
    are gathered into the next level's blocks with one integer index.

    Deterministic: identical inputs produce identical results.  Raises
    ``QuadratureError`` when max_subdivisions is exhausted before every
    interval meets its width-proportional share of the error budget.
    """
    lo, hi = spec.lower, spec.upper
    width = hi - lo
    # np.linspace(lo, hi, 9) bit for bit, without a numpy call
    edges = [lo + i * (width / 8) for i in range(8)] + [hi]
    if knots is not None:
        edges.extend(k for k in knots if lo < k < hi)
    edges = sorted(set(edges))
    # drop near-duplicate edges, keeping the endpoints
    cleaned = [edges[0]]
    for e in edges[1:]:
        if e - cleaned[-1] > 1e-12 * width:
            cleaned.append(e)
    cleaned[-1] = hi

    edge_x = np.asarray(cleaned)
    n = edge_x.size - 1
    a, b = edge_x[:-1], edge_x[1:]
    mid = 0.5 * (a + b)
    vals = np.asarray(f(np.concatenate((edge_x, mid))), dtype=float)
    if vals.ndim != 2:
        raise ValueError("batch integrand must return a 2-d array (points, components)")
    fa, fm, fb = vals[:n], vals[n + 1 :], vals[1 : n + 1]
    xs, fs = np.concatenate((a, mid, b)), np.concatenate((fa, fm, fb))
    span = b - a
    coarse = span[:, None] / 6.0 * (fa + 4.0 * fm + fb)

    done = np.zeros(vals.shape[1])
    n_subdiv = n
    while True:
        # the 2n halves, left halves first: [a, mid] then [mid, b]
        lo_e, hi_e = xs[: 2 * n], xs[n:]
        f_lo, f_hi = fs[: 2 * n], fs[n:]
        x = 0.5 * (lo_e + hi_e)
        fx = np.asarray(f(x), dtype=float)
        half_w = hi_e - lo_e
        halves = half_w[:, None] / 3.0 * (f_lo + 4.0 * fx + f_hi)
        fine = 0.5 * (halves[:n] + halves[n:])
        d = (fine - coarse) / 15.0
        err = np.abs(d)

        total_est = done + fine.sum(axis=0)
        budget = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total_est))
        share = (span / width)[:, None] * budget[None, :]
        ok = (err <= share).all(axis=1)

        done += (fine + d)[ok].sum(axis=0)
        kept = np.flatnonzero(~ok)
        if not kept.size:
            return done
        n_subdiv += kept.size
        if n_subdiv > spec.max_subdivisions:
            raise QuadratureError(
                f"adaptive Simpson exceeded {spec.max_subdivisions} subdivisions; "
                f"worst interval error {float(err[kept].max()):.3e}"
            )
        # children of the kept intervals, left children first
        sel = np.concatenate((kept, kept + n))
        xs = np.concatenate((lo_e[sel], x[sel], hi_e[sel]))
        fs = np.concatenate((f_lo[sel], fx[sel], f_hi[sel]))
        span, coarse = half_w[sel], halves[sel] * 0.5
        n = sel.size


def logsumexp(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Max-shifted log(sum(exp(values))); tolerates -inf entries."""
    values = np.asarray(values, dtype=float)
    m = values.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(values - m).sum(axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return out.squeeze(axis=axis)


def normalize_log_weights(log_w: np.ndarray) -> np.ndarray:
    """The probability vector proportional to exp(log_w), max-shifted."""
    w = np.exp(log_w - logsumexp(log_w))
    return w / w.sum()


def ceil_one_plus_log2(t: int) -> int:
    """ceil(1 + log2(t)) computed exactly on integers, t >= 1."""
    if t < 1:
        raise ValueError(f"horizon must be >= 1, got {t}")
    return 1 + (int(t) - 1).bit_length()

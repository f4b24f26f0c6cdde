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
- deterministic adaptive Simpson quadrature, batched over vector integrands:
  each subdivision level is one abscissa block [a | mid | b | x] and one
  value block beside it, the integrand is called once per level and its
  fresh (len(x), m) result is copied into the value block, and the kept
  intervals' children are gathered with one ``take`` per block.

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
_LN2 = math.log(2.0)

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


_SHAPE_MESSAGE = "batch integrand must return a 2-d array (points, components)"


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
    Where a or b overflows (|r| > ~1e146 and v < 1/4), the quadratic term is
    invisible over the mass and the linear-exponent limit is exact in
    double precision: ln xi = c - ln(r - v) + ln(1 - e^{-c}) for r > 0 and
    -ln(-r) + ln(1 - e^{c}) for r < 0, with c = r/2 - v/4.
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
    if math.isinf(a) or math.isinf(b):
        # the mass sits at eta = 1/2 (r > 0) or eta = 0 (r < 0)
        if r > 0.0:
            return c - math.log(r - v) + math.log1p(-math.exp(-c))
        return -math.log(-r) + math.log1p(-math.exp(c))
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
    if 0.5 * r == 0.0:  # also r = +-5e-324, whose half underflows to 0
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
    """eta*R - eta^2*V, broadcast: abscissas eta[:, None] against (K,) statistics give (n, K).

    The difference is formed in place in the fresh product eta*R, with the
    bits of the written expression.
    """
    g = eta * regret
    g -= eta * eta * variance
    return g


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
    """ln int_0^{1/2} eta e^{eta r - eta^2 v} deta by max-shifted Simpson in a window.

    The domain is clipped to the window |eta - p| <= d about the peak p of
    the exponent (concave or linear, v >= 0), where the exponent stays within
    45 of its peak value; an exponential boundary layer of width 1e-6 would
    otherwise force millions of panels on the full interval.  The window is
    integrated in its own coordinate s = (eta - p)/d:

        J = e^{shift} d^2 int (p/d + s) e^{s (a - b s)} ds,

    with a = d (r - 2 p v) and b = d^2 v, both at most 45 in size, and 2 ln d
    added outside the integral.  So the integral stays a normal float
    however narrow the window (d ~ 45/|r|), and no abscissa carries the
    rounding of eta*r for |r| up to the float range.
    """
    peak = float(_exponent_peak(r, v))
    shift = _exponent(peak, r, v)

    # distance from the peak at which the exponent has dropped by 45
    slope = r - 2.0 * peak * v
    d = math.inf
    if slope != 0.0:
        d = _DECAY_BUDGET / abs(slope)
    if v > 0.0:
        d = min(d, math.sqrt(_DECAY_BUDGET / v))
    d = min(d, 0.5)
    a, b = d * slope, d * d * v
    p_over_d = peak / d

    def f(s: np.ndarray) -> np.ndarray:
        return ((p_over_d + s) * np.exp(s * (a - b * s)))[:, None]

    lo = max(-1.0, -p_over_d)
    hi = min(1.0, (0.5 - peak) / d)
    knots = [sign * k for sign in (-1.0, 1.0) for k in (0.02, 0.07, 0.25)]

    spec = QuadratureSpec(
        lo, hi, abs_tol=_REL_ONLY_ABS_TOL, rel_tol=1e-10, max_subdivisions=200_000
    )
    val = integrate_adaptive_batch(f, spec, knots=knots)[0]
    return shift + 2.0 * math.log(d) + math.log(val)


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
    two_y = 2.0 * y  # inf from y ~ 8.99e307 on, where ln 2 + ln y stays finite
    return peak + math.log(signed) - (math.log(two_y) if two_y < math.inf else _LN2 + math.log(y))


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
    be batched into a single call.  ``f`` is called once for the initial
    grid and once per level, each abscissa once, and must return a fresh
    (len(x), m) array, which is copied into the level's value block; any
    other shape, at any call, raises ``ValueError``.  It must not write to
    ``x``, which is a view of the level's abscissa block.  ``knots`` seeds
    extra subdivision points (e.g. the known location of a sharp bump, which
    a coarse initial grid would otherwise miss entirely).

    A level's n open intervals are held as one block of abscissas
    ``X = [a | mid | b | x]`` (5n,) and one block of values ``F`` (5n, m)
    in the same rows.  The 2n halves, left halves first, have their left
    ends in ``X[:2n]`` and their right ends in ``X[n:3n]``; their midpoints
    ``x`` are formed into ``X[3n:]`` and the integrand's values copied into
    ``F[3n:]``.  The kept intervals' children become the next level's
    ``[a | mid | b]`` through one ``take`` each from ``X`` and ``F``.  Every
    sum is formed in the order of the written Simpson rule, so the result
    does not depend on this layout.

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
    X = np.empty(5 * n)
    X[:n], X[2 * n : 3 * n] = a, b
    mid = np.add(a, b, out=X[n : 2 * n])
    mid *= 0.5
    first = np.concatenate((edge_x, mid))
    vals = np.asarray(f(first), dtype=float)
    if vals.ndim != 2 or vals.shape[0] != first.size:
        raise ValueError(_SHAPE_MESSAGE)
    m = vals.shape[1]
    F = np.empty((5 * n, m))
    F[:n], F[n : 2 * n], F[2 * n : 3 * n] = vals[:n], vals[n + 1 :], vals[1 : n + 1]
    span = b - a
    coarse = F[n : 2 * n] * 4.0
    coarse += F[:n]
    coarse += F[2 * n : 3 * n]
    coarse *= (span / 6.0)[:, None]

    rel_tol, abs_tol = spec.rel_tol, spec.abs_tol
    done = np.zeros(m)
    n_subdiv = n
    while True:
        # the 2n halves, left halves first: [a, mid] then [mid, b]
        n2, n3 = 2 * n, 3 * n
        x = np.add(X[:n2], X[n:n3], out=X[n3:])
        x *= 0.5
        fx = np.asarray(f(x), dtype=float)
        if fx.shape != (n2, m):
            raise ValueError(_SHAPE_MESSAGE)
        F[n3:] = fx
        half_w = np.subtract(X[n:n3], X[:n2])
        halves = F[n3:] * 4.0
        halves += F[:n2]
        halves += F[n:n3]
        halves *= (half_w / 3.0)[:, None]
        fine = np.add(halves[:n], halves[n:])
        fine *= 0.5
        d = np.subtract(fine, coarse, out=coarse)
        d /= 15.0
        err = np.abs(d)

        budget = np.add.reduce(fine, axis=0)
        budget += done
        np.abs(budget, out=budget)
        budget *= rel_tol
        np.maximum(budget, abs_tol, out=budget)
        share = np.multiply.outer(span / width, budget)
        ok = np.logical_and.reduce(np.less_equal(err, share), axis=1)

        fine += d
        done += np.add.reduce(fine.compress(ok, axis=0), axis=0)
        kept = np.logical_not(ok, out=ok).nonzero()[0]
        k = kept.size
        if not k:
            return done
        n_subdiv += k
        if n_subdiv > spec.max_subdivisions:
            raise QuadratureError(
                f"adaptive Simpson exceeded {spec.max_subdivisions} subdivisions; "
                f"worst interval error {float(err[kept].max()):.3e}"
            )
        # children of the kept intervals, left children first: their left
        # ends, midpoints and right ends sit at [sel | 3n + sel | n + sel]
        idx = np.add.outer((0, n, n3, n3 + n, n, n2), kept).ravel()
        sel = idx[: 2 * k]
        n = 2 * k
        X_next = np.empty(5 * n)
        F_next = np.empty((5 * n, m))
        # the indices are in range; mode "clip" writes straight into out,
        # where the default "raise" fills a buffer and copies it
        X.take(idx, out=X_next[: 3 * n], mode="clip")
        F.take(idx, axis=0, out=F_next[: 3 * n], mode="clip")
        X, F = X_next, F_next
        span = half_w.take(sel)
        coarse = halves.take(sel, axis=0)
        coarse *= 0.5


def logsumexp(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Max-shifted log(sum(exp(values))); tolerates -inf entries.

    When every maximum is finite, as on each experts round, the shifted
    exponentials, their sum and its log are formed in place by direct ufunc
    calls.  A -inf, +inf or nan maximum takes the general path, which shifts
    by 0 instead and lets an all -inf slice give -inf without a warning.
    Both paths compute the same bits.
    """
    values = np.asarray(values, dtype=float)
    m = np.maximum.reduce(values, axis=axis, keepdims=True)
    if np.logical_and.reduce(np.isfinite(m), axis=None):
        out = values - m
        np.exp(out, out=out)
        out = np.add.reduce(out, axis=axis, keepdims=True)
        np.log(out, out=out)
        out += m
    else:
        m = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(divide="ignore"):
            out = np.log(np.exp(values - m).sum(axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return out.squeeze(axis=axis)


def normalize_log_weights(log_w: np.ndarray) -> np.ndarray:
    """The probability vector proportional to exp(log_w), max-shifted.

    The bits of exp(log_w - logsumexp(log_w)) divided by their sum; a
    finite maximum takes ``logsumexp``'s in-place path inline.
    """
    log_w = np.asarray(log_w, dtype=float)
    m = np.maximum.reduce(log_w, axis=None, keepdims=True)
    if not math.isfinite(m.item()):
        w = np.exp(log_w - logsumexp(log_w))
        return w / w.sum()
    w = log_w - m
    np.exp(w, out=w)
    lse = np.add.reduce(w, axis=None, keepdims=True)
    np.log(lse, out=lse)
    lse += m
    np.subtract(log_w, lse, out=w)
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=None)
    return w


def ceil_one_plus_log2(t: int) -> int:
    """ceil(1 + log2(t)) computed exactly on integers, t >= 1."""
    if t < 1:
        raise ValueError(f"horizon must be >= 1, got {t}")
    return 1 + (int(t) - 1).bit_length()

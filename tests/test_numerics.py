import math
import warnings

import numpy as np
import pytest

import squint.numerics as numerics
from squint.numerics import (
    QuadratureError,
    QuadratureSpec,
    ceil_one_plus_log2,
    integrate_adaptive_batch,
    log_eta_exp_integral,
    log_exp_integral,
    log_xi,
    logsumexp,
    normalize_log_weights,
)

from oracles import (
    integrate_adaptive_batch_former,
    integrate_adaptive_batch_reference,
    log_erfc,
    logsumexp_former,
    maclaurin_erf,
    mp_log_exp_integral,
    normalize_log_weights_former,
    simpson_exp_integral,
)

# Frozen oracle values (computed from the oracles in oracles.py before the
# implementation existed; see the DERIVED markers below).
ERF_1_SERIES = 0.84270079294971486934  # 50-term Maclaurin at x=1
XI_0_1_SIMPSON = 0.4612810064127927  # 1e6-panel Simpson, r=0, v=1
XI_1_1_SIMPSON = 0.5922965364693263  # 1e6-panel Simpson, r=1, v=1
LOG_XI_1E6_1 = 499985.93449044203  # high-precision quadrature, r=1e6, v=1
J_POS_SIMPSON = 0.15413555989079258  # 1e6-panel Simpson of eta e^{eta - eta^2}
J_NEG_SIMPSON = 0.08049440770068703  # 1e6-panel Simpson of eta e^{-eta - eta^2}


def in_stability_window(r: float, v: float) -> bool:
    """Whether r lies in [-12 sqrt(v), v + 12 sqrt(v)] (window closed).

    Inside the window the erf-based closed form is benign even when evaluated
    naively; outside, both erf arguments exceed 6 with the same sign.
    """
    s = 12.0 * math.sqrt(v)
    return -s <= r <= v + s


def xi(r: float, v: float) -> float:
    return math.exp(log_xi(r, v))


def column(f):
    """A one-column batch integrand from a vectorized scalar one."""
    return lambda eta: f(eta)[:, None]


class TestErf:
    # the platform erf that log_xi calls on its no-cancellation branch

    def test_zero(self):
        assert math.erf(0.0) == 0.0

    def test_asymptote(self):
        for x in (6.0, 8.0, 25.0, 100.0):
            assert abs(math.erf(x) - 1.0) < 1e-14

    def test_series_oracle(self):
        assert abs(math.erf(1.0) - ERF_1_SERIES) < 1e-13
        # spot-check the oracle against a few more points
        for x in (0.25, 0.5, 2.0, 3.0):
            assert abs(math.erf(x) - maclaurin_erf(x)) < 1e-13

    def test_odd_symmetry(self):
        for x in (0.1, 1.7, 5.0):
            assert math.erf(-x) == -math.erf(x)


class TestLogErfc:
    def test_matches_direct_log(self):
        for x in (-5.0, -1.0, 0.0, 1.0, 10.0, 24.0):
            assert log_erfc(x) == pytest.approx(math.log(math.erfc(x)), rel=1e-13)

    def test_deep_tail_series(self):
        # compare against the exact relation erfc(x) = exp(-x^2) erfcx(x)
        # using mpmath at a few large arguments
        mp = pytest.importorskip("mpmath")
        for x in (25.0, 30.0, 100.0, 1e4):
            want = float(mp.log(mp.erfc(mp.mpf(x))))
            assert log_erfc(x) == pytest.approx(want, rel=1e-12)

    def test_series_range_against_mpmath(self):
        # the six-term series serves x > 25; its first omitted term is 2.7e-15 there
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for x in np.linspace(25.0, 60.0, 401)[1:]:
                want = mp.log(mp.erfc(mp.mpf(x))) + mp.mpf(x) ** 2
                assert abs(numerics._log_erfcx(float(x)) - float(want)) <= 1e-14

    def test_log_xi_just_past_the_switch(self):
        # a = r / (2 sqrt(v)) = 26, where the five-term series left 2e-13 relative
        want = mp_log_exp_integral(5.2, 0.01)
        assert abs(log_xi(5.2, 0.01) - want) <= 1e-13 * abs(want)


class TestXiStable:
    def test_simpson_oracle_values(self):
        assert abs(xi(0.0, 1.0) - XI_0_1_SIMPSON) < 1e-10
        assert abs(xi(1.0, 1.0) - XI_1_1_SIMPSON) < 1e-10

    def test_extreme_argument_log_oracle(self):
        # value itself overflows float64 (ln xi ~ 5e5); agreement is asserted
        # in log domain, |delta log| <= 1e-3 being relative error 1e-3
        assert abs(log_xi(1e6, 1.0) - LOG_XI_1E6_1) < 1e-3

    def test_window_sweep_against_quadrature(self):
        rng = np.random.default_rng(7)
        for v in (1e-3, 0.1, 1.0, 30.0, 1e3, 1e6):
            s = math.sqrt(v)
            for _ in range(8):
                r = rng.uniform(-12.0 * s, v + 12.0 * s)
                assert in_stability_window(r, v)
                want = mp_log_exp_integral(r, v)
                assert abs(log_xi(r, v) - want) <= 1e-6 * max(1.0, abs(want))

    def test_outside_window_sweep(self):
        rng = np.random.default_rng(8)
        for v in (1e-3, 0.1, 1.0, 30.0, 1e3):
            s = math.sqrt(v)
            for r in (
                -12.0 * s - rng.uniform(0.01, 5.0),
                v + 12.0 * s + rng.uniform(0.01, 5.0),
                -200.0 * s,
                v + 200.0 * s,
            ):
                assert not in_stability_window(r, v)
                want = mp_log_exp_integral(r, v)
                assert abs(log_xi(r, v) - want) <= 1e-3 * max(1.0, abs(want))

    def test_positive_everywhere(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            r = rng.uniform(-50.0, 50.0)
            v = 10.0 ** rng.uniform(-3, 3)
            assert xi(r, v) > 0.0

    def test_continuity_across_window_edge(self):
        # the evaluation must not jump at the window boundary
        for v in (1.0, 10.0, 100.0):
            edge = v + 12.0 * math.sqrt(v)
            inside = xi(edge, v)
            outside = xi(np.nextafter(edge, math.inf), v)
            assert abs(inside - outside) / inside <= 1e-3
            edge_lo = -12.0 * math.sqrt(v)
            inside = xi(edge_lo, v)
            outside = xi(np.nextafter(edge_lo, -math.inf), v)
            assert abs(inside - outside) / inside <= 1e-3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            log_xi(1.0, 0.0)
        with pytest.raises(ValueError):
            log_xi(1.0, -2.0)
        with pytest.raises(ValueError):
            log_xi(math.nan, 1.0)


class TestTinyVariance:
    """Where |r| and v are both small the erfc difference cancels; a series serves."""

    @pytest.mark.parametrize("v", [1e-32, 1e-24, 1e-16, 1e-12, 1e-8, 1e-6, 1e-4])
    def test_grid_against_oracle(self, v):
        for r in (0.0, 1e-16, -1e-16, 1e-8, -1e-8, 1e-3, -1e-3, 0.04, -0.04):
            want = mp_log_exp_integral(r, v)
            assert abs(log_exp_integral(r, v) - want) <= 1e-13 * max(1.0, abs(want)), r

    def test_first_round_of_equal_losses(self):
        # K = 6 uniform weights sum to 1 - 1.1e-16; ln xi used to take ln(0)
        w = np.full(6, 1.0 / 6.0)
        r = float(w @ np.ones(6)) - 1.0
        assert r == -1.1102230246251565e-16
        assert log_xi(r, r * r) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_series_meets_closed_form_at_the_cut(self):
        for v in (1e-12, 1e-8, 1e-4, 1e-3):
            for r in (1.0, -1.0):
                outside = log_xi(math.nextafter(r, 2.0 * r), v)
                assert abs(log_xi(r, v) - outside) <= 2e-13
        for r in np.linspace(-1.0, 1.0, 9):
            outside = log_xi(r, math.nextafter(1e-2, 1.0))
            assert abs(log_xi(r, 1e-2) - outside) <= 2e-13

    @pytest.mark.parametrize("x", [1e-300, -1e-300])
    def test_eta_integral_at_tiny_arguments(self, x):
        want = mp_log_exp_integral(x, 1e-300, with_eta=True)
        assert abs(log_eta_exp_integral(x, 1e-300) - want) <= 1e-8 * max(1.0, abs(want))


class TestEtaExpIntegral:
    def test_simpson_oracle_values(self):
        got_pos = math.exp(log_eta_exp_integral(1.0, 1.0))
        got_neg = math.exp(log_eta_exp_integral(-1.0, 1.0))
        assert got_pos == pytest.approx(J_POS_SIMPSON, rel=1e-8)
        assert got_neg == pytest.approx(J_NEG_SIMPSON, rel=1e-8)

    def test_flat_branch(self):
        assert log_eta_exp_integral(0.0, 0.0) == pytest.approx(math.log(0.125), abs=1e-15)
        want = mp_log_exp_integral(3.0, 0.0, with_eta=True)
        assert log_eta_exp_integral(3.0, 0.0) == pytest.approx(want, abs=1e-12)
        want = mp_log_exp_integral(-1e-5, 0.0, with_eta=True)
        assert log_eta_exp_integral(-1e-5, 0.0) == pytest.approx(want, abs=1e-12)

    def test_sweep_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            y = 10.0 ** rng.uniform(-6, 4)
            s = math.sqrt(y)
            r_lo, r_hi = -12.0 * s - 10.0, y + 12.0 * s + 10.0
            x = rng.uniform(r_lo, r_hi)
            want = mp_log_exp_integral(x, y, with_eta=True)
            assert abs(log_eta_exp_integral(x, y) - want) <= 1e-8 * max(1.0, abs(want))

    def test_huge_arguments_stay_finite_in_log(self):
        assert math.isfinite(log_eta_exp_integral(1e6, 1.0))
        assert math.isfinite(log_eta_exp_integral(-1e6, 1.0))
        assert math.isfinite(log_eta_exp_integral(1e7, 1e7))

    # 2y overflows from y ~ 8.99e307 on, where ln(2y) used to read inf
    @pytest.mark.parametrize("y", [9e307, 1e308, 1.7e308])
    @pytest.mark.parametrize("x", [0.3, 0.0, -0.3])
    def test_largest_curvatures_give_minus_ln_2y(self, x, y):
        # J = 1/(2y) to double precision: the next term is O(x / y^1.5)
        want = -(math.log(2.0) + math.log(y))
        assert log_eta_exp_integral(x, y) == pytest.approx(want, rel=1e-15)


def leading_order(x: float, y: float, with_eta: bool) -> float:
    """ln of the integral's leading term as |x| -> inf with y fixed.

    x -> -inf: the mass sits at eta = 0, xi ~ 1/|x| and J ~ 1/x^2.
    x -> +inf: it sits at eta = 1/2, xi ~ e^{x/2 - y/4}/(x - y) and J ~ xi/2.
    """
    if x < 0.0:
        return -(2.0 if with_eta else 1.0) * math.log(-x)
    return 0.5 * x - 0.25 * y - math.log(x - y) - (math.log(2.0) if with_eta else 0.0)


class TestExtremeArguments:
    """Finite, leading-order values where the erfc form or the fallback's eta grid cannot serve."""

    # the erfc arguments r/(2 sqrt v) overflow
    OVERFLOWING = [(-1e308, 1e-10), (1e308, 1e-300), (-1e308, 1e-300), (-1e300, 1e-300)]
    # the fallback's window has width d ~ 45/|x|, and J over it is about d^2
    NARROW_WINDOW = [(-1e200, 1.0), (-1e300, 1.0)]
    # the rounding of eta*x is above the fallback's relative tolerance
    ROUNDING = [(1e8, 1.0), (1e9, 1.0), (1e10, 1.0)]

    @pytest.mark.parametrize("x, y", OVERFLOWING)
    def test_log_exp_integral(self, x, y):
        got = log_exp_integral(x, y)
        assert math.isfinite(got)
        assert got == pytest.approx(leading_order(x, y, False), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x, y", OVERFLOWING + NARROW_WINDOW + ROUNDING)
    def test_log_eta_exp_integral(self, x, y):
        got = log_eta_exp_integral(x, y)
        assert math.isfinite(got)
        assert got == pytest.approx(leading_order(x, y, True), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x, y", ROUNDING)
    def test_rounding_cases_against_mpmath(self, x, y):
        assert numerics._log_eta_closed(x, y) is None  # they take the fallback
        want = mp_log_exp_integral(x, y, with_eta=True)
        assert log_eta_exp_integral(x, y) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("with_eta", [False, True])
    @pytest.mark.parametrize("x, y", [(-1e50, 1.0), (-1e200, 1.0)])
    def test_boundary_layer_against_mpmath(self, x, y, with_eta):
        # the integrand's mass lies within ~1/|x| of eta = 0, where mpmath works in window units
        kernel = log_eta_exp_integral if with_eta else log_exp_integral
        want = mp_log_exp_integral(x, y, with_eta=with_eta)
        assert want == pytest.approx(leading_order(x, y, with_eta), rel=1e-12, abs=0.0)
        assert kernel(x, y) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_fallback_draws_against_mpmath(self):
        # every fourth of the fallback cases that TestBatchedSimpsonMatchesReference draws
        rng = np.random.default_rng(7)
        xs = rng.uniform(-3.0, 3.0, 400) * 10.0 ** rng.uniform(-8.0, 5.0, 400)
        ys = 10.0 ** rng.uniform(-10.0, 5.0, 400)
        cases = [(x, y) for x, y in zip(xs, ys) if numerics._log_eta_closed(x, y) is None]
        for x, y in cases[::4]:
            want = mp_log_exp_integral(x, y, with_eta=True)
            assert abs(log_eta_exp_integral(x, y) - want) <= 1e-12 * max(1.0, abs(want)), (x, y)


class TestExpIntegral:
    def test_negative_curvature(self):
        # v is a cumulative variance: v < 0 lies outside the kernels' domain
        for kernel in (log_exp_integral, log_eta_exp_integral):
            with pytest.raises(ValueError, match="v >= 0|y >= 0"):
                kernel(1.0, -3.0)
            with pytest.raises(ValueError):
                kernel(1.0, -5e-324)

    def test_negative_curvature_limit(self):
        # the former quadrature limit is rejected up front; -0.0 is still v == 0
        with pytest.raises(ValueError):
            log_exp_integral(1e6, -0.5)
        for kernel in (log_exp_integral, log_eta_exp_integral):
            assert kernel(2.0, -0.0) == kernel(2.0, 0.0)

    def test_flat_limit(self):
        assert log_exp_integral(0.0, 0.0) == pytest.approx(math.log(0.5), abs=1e-15)
        assert math.exp(log_exp_integral(2.0, 0.0)) == pytest.approx(
            (math.exp(1.0) - 1.0) / 2.0, rel=1e-13
        )

    @pytest.mark.parametrize("r", [5e-324, -5e-324])
    def test_flat_limit_at_the_least_subnormal(self, r):
        # r / 2 underflows to 0, where (e^{r/2} - 1)/r used to take ln(0)
        assert log_exp_integral(r, 0.0) == pytest.approx(math.log(0.5), abs=1e-15)


class TestAdaptiveSimpson:
    def test_constant(self):
        spec = QuadratureSpec(0.0, 0.5)
        got = integrate_adaptive_batch(column(np.ones_like), spec)[0]
        assert got == pytest.approx(0.5, abs=1e-14)

    def test_linear(self):
        spec = QuadratureSpec(0.0, 0.5)
        got = integrate_adaptive_batch(column(lambda e: e), spec)[0]
        assert got == pytest.approx(0.125, abs=1e-14)

    def test_matches_simpson_oracle(self):
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-12, rel_tol=1e-12)
        got = integrate_adaptive_batch(column(lambda e: np.exp(e - e * e)), spec)[0]
        assert got == pytest.approx(simpson_exp_integral(1.0, 1.0), abs=1e-10)

    def test_narrow_bump_with_knots(self):
        center = 0.2431
        width = 5e-5

        def bump(e):
            return np.exp(-((e - center) / width) ** 2)

        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-14, rel_tol=1e-10, max_subdivisions=10**5)
        knots = [center - width, center, center + width]
        got = integrate_adaptive_batch(column(bump), spec, knots=knots)[0]
        assert got == pytest.approx(width * math.sqrt(math.pi), rel=1e-9)

    def test_budget_exhaustion_reported(self):
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=16)
        with pytest.raises(QuadratureError):
            integrate_adaptive_batch(column(lambda e: np.exp(20.0 * e - 30.0 * e * e)), spec)

    @pytest.mark.parametrize(
        "integrate", [integrate_adaptive_batch, integrate_adaptive_batch_reference]
    )
    def test_budget_below_initial_grid_all_accepted(self, integrate):
        # the 8 initial intervals exceed the budget, but Simpson is exact on x^2
        spec = QuadratureSpec(0.0, 1.0, max_subdivisions=5)
        got = integrate(column(lambda e: e * e), spec)[0]
        assert got == pytest.approx(1.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize(
        "integrate", [integrate_adaptive_batch, integrate_adaptive_batch_reference]
    )
    def test_budget_below_initial_grid_with_kept_intervals(self, integrate):
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=5)
        text = error_text(integrate, column(lambda e: np.exp(20.0 * e - 30.0 * e * e)), spec)
        assert text.startswith("adaptive Simpson exceeded 5 subdivisions; worst interval error ")

    def test_deterministic(self):
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-13, rel_tol=1e-11)
        f = column(lambda e: np.exp(3.0 * e - 7.0 * e * e))
        a = integrate_adaptive_batch(f, spec)[0]
        b = integrate_adaptive_batch(f, spec)[0]
        assert a == b

    def test_batch_matches_scalar(self):
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-13, rel_tol=1e-11)
        rs = [(-2.0, 1.0), (0.5, 3.0), (4.0, 0.5)]

        def f(eta):
            return np.exp(np.outer(eta, [r for r, _ in rs]) - np.outer(eta * eta, [v for _, v in rs]))

        got = integrate_adaptive_batch(f, spec)
        for j, (r, v) in enumerate(rs):
            # the same integrand alone, one column with its own subdivision
            alone = column(lambda e, r=r, v=v: np.exp(r * e - v * e * e))
            want = integrate_adaptive_batch(alone, spec)[0]
            assert got[j] == pytest.approx(want, rel=1e-10)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(1.0, 0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, 1.0, abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, 1.0, max_subdivisions=0)

    # a nan tolerance used to run the whole 20,000-subdivision budget before
    # raising QuadratureError; an infinite one accepted the first estimate
    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    def test_spec_rejects_nan_tolerance(self, field):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(0.0, 1.0, **{field: math.nan})

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    def test_spec_rejects_infinite_tolerance(self, field):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(0.0, 1.0, **{field: math.inf})

    def test_spec_rejects_fractional_max_subdivisions(self):
        with pytest.raises(ValueError, match="max_subdivisions"):
            QuadratureSpec(0.0, 1.0, max_subdivisions=2.5)

    def test_spec_rejects_bool_max_subdivisions(self):
        with pytest.raises(ValueError, match="max_subdivisions"):
            QuadratureSpec(0.0, 1.0, max_subdivisions=True)

    def test_spec_accepts_numpy_integer_max_subdivisions(self):
        assert QuadratureSpec(0.0, 1.0, max_subdivisions=np.int64(50)).max_subdivisions == 50


def random_exp_family(seed: int, k: int):
    """A pointwise (points, k) integrand from the exp, expm1/eta or eta*exp family."""
    rng = np.random.default_rng(seed)
    r, v = rng.uniform(-8.0, 8.0, k), rng.uniform(0.0, 12.0, k)
    family = seed % 3

    def f(x):
        g = x[:, None] * r - (x * x)[:, None] * v
        if family == 0:
            return np.exp(g)
        if family == 1:
            safe = np.where(x > 0.0, x, 1.0)[:, None]
            return np.where(x[:, None] > 0.0, np.expm1(g) / safe, r)
        return x[:, None] * np.exp(g)

    knots = list(rng.uniform(-0.1, 0.6, int(rng.integers(0, 60))))
    return f, knots


# integrand results in Fortran order, or as views that step over rows or
# columns of a larger array
LAYOUTS = {
    "fortran": np.asfortranarray,
    "row_strided": lambda y: np.repeat(y, 2, axis=0)[::2],
    "col_strided": lambda y: np.repeat(y, 3, axis=1)[:, ::3],
    "fortran_strided": lambda y: np.asfortranarray(np.repeat(y, 2, axis=0))[::2],
}


def use_reference(monkeypatch):
    monkeypatch.setattr(numerics, "integrate_adaptive_batch", integrate_adaptive_batch_reference)


def error_text(fn, *args, **kwargs):
    with pytest.raises(QuadratureError) as info:
        fn(*args, **kwargs)
    return str(info.value)


def row_order_tie_case():
    """(f, spec, knots) at which the order of the budget's row sum decides an interval."""
    # total_est is fine.sum(axis=0) over C-ordered rows, added row after
    # row; a column-contiguous fine would be summed pairwise, moving the
    # error budget by an ulp.  Pick a rel_tol at which that ulp decides
    # whether a first-level interval is accepted.
    def f(x):
        return np.column_stack((np.exp(2.0 * x - 7.0 * x * x), np.ones_like(x)))

    edges = np.arange(17) / 32.0  # the nine default edges plus dyadic knots
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    fa, fb, fm = f(a), f(b), f(mid)
    coarse = (b - a)[:, None] / 6.0 * (fa + 4.0 * fm + fb)
    s_left = (mid - a)[:, None] / 3.0 * (fa + 4.0 * f(0.5 * (a + mid)) + fm)
    s_right = (b - mid)[:, None] / 3.0 * (fm + 4.0 * f(0.5 * (mid + b)) + fb)
    fine = 0.5 * (s_left + s_right)
    err = np.abs(fine - coarse) / 15.0
    frac = ((b - a) / 0.5)[:, None]
    rows, pairwise = fine.sum(axis=0), np.asfortranarray(fine).sum(axis=0)
    assert rows[0] != pairwise[0]

    def accepted(rel, total):
        return (err <= frac * (rel * np.abs(total))[None, :]).all(axis=1)

    ties = []
    for i in range(a.size):
        rel = err[i, 0] / frac[i, 0] / abs(rows[0])
        for step in range(-6, 7):
            cand = rel + step * np.spacing(rel)
            if (accepted(cand, rows) != accepted(cand, pairwise)).any():
                ties.append(float(cand))
    assert ties
    spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-300, rel_tol=ties[0])
    knots = list(edges[1:-1])
    return f, spec, knots


class TestBatchedSimpsonMatchesReference:
    """One integrand call per level gives the two-calls-per-level bits."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_integrands(self, seed):
        f, knots = random_exp_family(seed, 1 + seed % 5)
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-13, rel_tol=1e-11)
        got = integrate_adaptive_batch(f, spec, knots=knots)
        assert np.array_equal(got, integrate_adaptive_batch_reference(f, spec, knots=knots))

    def test_every_first_level_interval_accepted(self):
        # Simpson is exact on cubics: the first level keeps no interval, so
        # the quadrature returns after the initial call and one level
        calls = []

        def cubic(x):
            calls.append(x.size)
            return np.column_stack((x**3 - 2.0 * x, 5.0 * x * x + 1.0))

        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-13, rel_tol=1e-11)
        knots = [0.013, 0.2, 0.31]
        got = integrate_adaptive_batch(cubic, spec, knots=knots)
        assert len(calls) == 2
        assert np.array_equal(got, integrate_adaptive_batch_reference(cubic, spec, knots=knots))

    # the sums give the reference's bits whatever layout f returns: Fortran
    # order, or views that step over rows or columns of a larger array
    @pytest.mark.parametrize("m", [1, 200])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_integrand_layout(self, layout, m):
        f, knots = random_exp_family(m, m)
        view = LAYOUTS[layout]

        def g(x):
            return view(f(x))

        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-13, rel_tol=1e-11)
        got = integrate_adaptive_batch(g, spec, knots=knots)
        assert np.array_equal(got, integrate_adaptive_batch_reference(g, spec, knots=knots))

    @pytest.mark.parametrize("budget", [70, 90, 150, 400])
    def test_budget_exhaustion_message(self, budget):
        f, knots = random_exp_family(3, 4)
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=budget)
        want = error_text(integrate_adaptive_batch_reference, f, spec, knots=knots)
        assert error_text(integrate_adaptive_batch, f, spec, knots=knots) == want

    def test_each_abscissa_evaluated_once(self):
        f, knots = random_exp_family(4, 3)
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-13, rel_tol=1e-11)
        seen = {"new": [], "ref": []}

        def counting(key):
            def g(x):
                seen[key].append(x.copy())
                return f(x)
            return g

        integrate_adaptive_batch(counting("new"), spec, knots=knots)
        integrate_adaptive_batch_reference(counting("ref"), spec, knots=knots)
        new = np.concatenate(seen["new"])
        ref = np.concatenate(seen["ref"])
        assert np.unique(new).size == new.size
        assert np.array_equal(np.unique(new), np.unique(ref))
        # the reference: f(a), f(b), f(mid), then f(lm) and f(rm) per level
        levels = (len(seen["ref"]) - 3) // 2
        assert levels > 1 and len(seen["ref"]) == 3 + 2 * levels
        assert len(seen["new"]) == 1 + levels

    def test_budget_ties_follow_the_row_order_sum(self):
        f, spec, knots = row_order_tie_case()
        got = integrate_adaptive_batch(f, spec, knots=knots)
        assert np.array_equal(got, integrate_adaptive_batch_reference(f, spec, knots=knots))

    def test_eta_integral_fallback(self, monkeypatch):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-3.0, 3.0, 400) * 10.0 ** rng.uniform(-8.0, 5.0, 400)
        ys = 10.0 ** rng.uniform(-10.0, 5.0, 400)
        cases = [(x, y) for x, y in zip(xs, ys) if numerics._log_eta_closed(x, y) is None]
        assert len(cases) > 100
        got = [log_eta_exp_integral(x, y) for x, y in cases]
        use_reference(monkeypatch)
        assert np.array_equal(got, [log_eta_exp_integral(x, y) for x, y in cases])

    def test_convex_exponent(self):
        # exp(eta r - eta^2 v) with v < 0, shifted by its larger endpoint exponent:
        # boundary layers at both ends, seeded with knots near each
        rng = np.random.default_rng(8)
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-280, rel_tol=1e-10, max_subdivisions=200_000)
        for r, v in zip(rng.uniform(-300.0, 300.0, 150), -(10.0 ** rng.uniform(-6.0, 3.0, 150))):
            shift = max(0.0, 0.5 * r - 0.25 * v)

            def f(eta, r=r, v=v, shift=shift):
                return np.exp(eta * r - eta * eta * v - shift)[:, None]

            near = [k / max(abs(r), abs(v), 2.0) for k in (1.0, 3.0, 10.0, 45.0)]
            knots = near + [0.5 - k for k in near]
            got = integrate_adaptive_batch(f, spec, knots=knots)
            assert np.array_equal(got, integrate_adaptive_batch_reference(f, spec, knots=knots))


def recorded(integrate, f, spec, knots=None):
    """``integrate``'s result or ``QuadratureError`` text, and a copy of each abscissa array f got."""
    seen = []

    def g(x):
        seen.append(x.copy())
        return f(x)

    try:
        return integrate(g, spec, knots=knots), seen
    except QuadratureError as exc:
        return str(exc), seen


def assert_matches_former(f, spec, knots=None):
    """The five-block level loop gives the former body's bits or error text, call by call.

    Returns the former body's result, or its ``QuadratureError`` text.
    """
    got, got_x = recorded(integrate_adaptive_batch, f, spec, knots)
    want, want_x = recorded(integrate_adaptive_batch_former, f, spec, knots)
    if isinstance(want, str):
        assert got == want
    else:
        assert same_bits(got, want)
    assert len(got_x) == len(want_x)
    assert all(same_bits(x, y) for x, y in zip(got_x, want_x))
    return want


def cubic(x):
    """Two cubic columns: Simpson is exact, so every first-level interval is accepted."""
    return np.column_stack((x**3 - 2.0 * x, 5.0 * x * x + 1.0))


SHAPE_ERROR = "batch integrand must return a 2-d array (points, components)"

# integrand results of another shape than (len(x), m)
BAD = {
    "one_column": lambda y: y[:, :1],
    "extra_column": lambda y: np.column_stack((y, y[:, 0])),
    "short": lambda y: y[:-1],
    "flat": lambda y: y[:, 0],
}


class TestLevelLoopMatchesFormerBody:
    """One gather per level gives the former three-block body's bits (tests/oracles.py)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_integrands(self, seed):
        f, knots = random_exp_family(seed, 1 + seed % 5)
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-13, rel_tol=1e-11)
        assert_matches_former(f, spec, knots)

    def test_every_first_level_interval_accepted(self):
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-13, rel_tol=1e-11)
        assert_matches_former(cubic, spec, [0.013, 0.2, 0.31])

    @pytest.mark.parametrize("m", [1, 200])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_integrand_layout(self, layout, m):
        f, knots = random_exp_family(m, m)
        view = LAYOUTS[layout]
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-13, rel_tol=1e-11)
        assert_matches_former(lambda x: view(f(x)), spec, knots)

    @pytest.mark.parametrize("budget", [5, 70, 90, 150, 400])
    def test_budget_exhaustion_message(self, budget):
        f, knots = random_exp_family(3, 4)
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=budget)
        assert assert_matches_former(f, spec, knots).startswith(
            f"adaptive Simpson exceeded {budget} subdivisions; worst interval error "
        )

    def test_budget_below_initial_grid_all_accepted(self):
        spec = QuadratureSpec(0.0, 1.0, max_subdivisions=5)
        assert_matches_former(column(lambda e: e * e), spec)

    def test_budget_ties_follow_the_row_order_sum(self):
        assert_matches_former(*row_order_tie_case())

    def test_convex_exponent(self):
        rng = np.random.default_rng(8)
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-280, rel_tol=1e-10, max_subdivisions=200_000)
        for r, v in zip(rng.uniform(-300.0, 300.0, 30), -(10.0 ** rng.uniform(-6.0, 3.0, 30))):
            shift = max(0.0, 0.5 * r - 0.25 * v)

            def f(eta, r=r, v=v, shift=shift):
                return np.exp(eta * r - eta * eta * v - shift)[:, None]

            near = [k / max(abs(r), abs(v), 2.0) for k in (1.0, 3.0, 10.0, 45.0)]
            assert_matches_former(f, spec, near + [0.5 - k for k in near])

    def test_eta_integral_fallback(self, monkeypatch):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-3.0, 3.0, 400) * 10.0 ** rng.uniform(-8.0, 5.0, 400)
        ys = 10.0 ** rng.uniform(-10.0, 5.0, 400)
        cases = [(x, y) for x, y in zip(xs, ys) if numerics._log_eta_closed(x, y) is None]
        calls = []

        def both(f, spec, knots=None):
            calls.append(spec)
            return assert_matches_former(f, spec, knots)

        monkeypatch.setattr(numerics, "integrate_adaptive_batch", both)
        for x, y in cases:
            log_eta_exp_integral(x, y)
        assert len(calls) == len(cases) > 100


class TestIntegrandShapeChecked:
    """Every call's result must be (len(x), m); another shape raises at that call."""

    @staticmethod
    def broken_on(call, bad, base):
        calls = []

        def f(x):
            calls.append(x.size)
            y = base(x)
            return bad(y) if len(calls) == call else y

        return f, calls

    # the first call fixes m, so only a wrong row count or a 1-d result
    # fails there
    @pytest.mark.parametrize(
        "call, bad", [(1, "short"), (1, "flat")] + [(c, b) for c in (2, 3) for b in BAD]
    )
    def test_interval_keeping_integrand(self, call, bad):
        g, knots = random_exp_family(3, 4)
        f, calls = self.broken_on(call, BAD[bad], g)
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-13, rel_tol=1e-11)
        with pytest.raises(ValueError) as info:
            integrate_adaptive_batch(f, spec, knots=knots)
        assert str(info.value) == SHAPE_ERROR and len(calls) == call

    @pytest.mark.parametrize("bad", list(BAD))
    def test_cubic_second_call(self, bad):
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-13, rel_tol=1e-11)
        f, calls = self.broken_on(2, BAD[bad], cubic)
        with pytest.raises(ValueError) as info:
            integrate_adaptive_batch(f, spec, knots=[0.013, 0.2, 0.31])
        assert str(info.value) == SHAPE_ERROR and len(calls) == 2

    def test_former_body_broadcast_a_one_column_level(self):
        # the former body checked only the first call: on a cubic whose two
        # columns agree, a (2n, 1) second result was broadcast into both
        # columns and accepted without a word
        def twin(x):
            return np.column_stack((x**3 - 2.0 * x, x**3 - 2.0 * x))

        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-13, rel_tol=1e-11)
        f, calls = self.broken_on(2, BAD["one_column"], twin)
        assert integrate_adaptive_batch_former(f, spec).shape == (2,) and len(calls) == 2
        f, calls = self.broken_on(2, BAD["one_column"], twin)
        with pytest.raises(ValueError) as info:
            integrate_adaptive_batch(f, spec)
        assert str(info.value) == SHAPE_ERROR


class TestHelpers:
    def test_logsumexp_basic(self):
        vals = np.array([0.0, math.log(2.0), math.log(3.0)])
        assert logsumexp(vals) == pytest.approx(math.log(6.0), abs=1e-14)

    def test_logsumexp_shifted(self):
        vals = np.array([1000.0, 1000.0 + math.log(2.0)])
        assert logsumexp(vals) == pytest.approx(1000.0 + math.log(3.0), abs=1e-12)

    def test_logsumexp_all_neg_inf(self):
        assert logsumexp(np.array([-math.inf, -math.inf])) == -math.inf
        vals = np.array([[-math.inf, 0.0], [-math.inf, -math.inf]])
        assert logsumexp(vals, axis=0).tolist() == [-math.inf, 0.0]
        assert logsumexp(vals, axis=1).tolist() == [0.0, -math.inf]

    def test_logsumexp_axis(self):
        vals = np.log(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(logsumexp(vals, axis=1), np.log([3.0, 7.0]), atol=1e-14)

    def test_ceil_one_plus_log2(self):
        assert ceil_one_plus_log2(1) == 1
        assert ceil_one_plus_log2(8) == 4
        for t in (2, 3, 5, 100, 1023, 1024, 1025):
            assert ceil_one_plus_log2(t) == math.ceil(1.0 + math.log2(t)) or t in (1,)
        with pytest.raises(ValueError):
            ceil_one_plus_log2(0)


def normalizer_inputs() -> list[np.ndarray]:
    """Random (G, K) stacks and vectors, -inf rows, columns and arrays, +-0.0, inf and nan."""
    rng = np.random.default_rng(24)
    stacks = [rng.normal(0.0, 30.0, shape) for shape in [(12, 20), (3, 7), (1, 5), (5, 1)]]
    stacks.append(rng.normal(0.0, 2.0, (64, 256)))  # thousands of sums in [1, 64]
    stacks += [rng.normal(-700.0, 5.0, (4, 6)), rng.normal(0.0, 1e-300, (4, 6))]
    for rows, cols in [(np.s_[1], np.s_[:]), (np.s_[:], np.s_[2]), (np.s_[:], np.s_[:])]:
        stack = rng.normal(0.0, 3.0, (4, 6))
        stack[rows, cols] = -math.inf
        stacks.append(stack)
    mixed = rng.normal(0.0, 3.0, (4, 6))
    mixed[0, 1], mixed[2, 3], mixed[3, 0] = -math.inf, math.inf, math.nan
    zeros = np.array([[0.0, -0.0, -0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, -0.0]])
    stacks += [mixed, zeros, -zeros]
    vectors = [rng.normal(0.0, 30.0, n) for n in (1, 2, 20, 101)]
    vectors += [np.array([-math.inf, 0.5, -math.inf]), np.array([-math.inf, -math.inf])]
    vectors += [np.array([0.0, -0.0]), np.array([-0.0]), np.array([1e308, 1e308, -1e308])]
    vectors += [np.array([math.inf, 1.0]), np.array([math.nan, 1.0])]
    # a nan with a payload: the general path spreads it to every entry, the finite one would not
    payload_nan = np.array([0x7FF8000000012345, 0xFFF8000000000042], dtype=np.uint64).view(float)
    vectors += [np.array([payload_nan[0], -2.0]), np.array([-math.inf, payload_nan[1], 0.0])]
    return stacks + vectors


def same_bits(got, want) -> bool:
    """Same type, shape and bytes: -0.0 and nan payloads count."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return np.float64(got).tobytes() == np.float64(want).tobytes()
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestNormalizersMatchFormerBodies:
    """The in-place finite paths give the bits of the former bodies (tests/oracles.py)."""

    def test_inputs_reach_both_paths(self):
        finite = [np.isfinite(v.max()) for v in normalizer_inputs()]
        assert any(finite) and not all(finite)

    @pytest.mark.parametrize("index", range(len(normalizer_inputs())))
    def test_logsumexp(self, index):
        values = normalizer_inputs()[index]
        with np.errstate(all="ignore"):
            for axis in [None, *range(values.ndim)]:
                assert same_bits(logsumexp(values, axis=axis), logsumexp_former(values, axis=axis))

    @pytest.mark.parametrize("index", range(len(normalizer_inputs())))
    def test_normalize_log_weights(self, index):
        values = normalizer_inputs()[index]
        with np.errstate(all="ignore"):
            assert same_bits(normalize_log_weights(values), normalize_log_weights_former(values))

    def test_neg_inf_paths_warn_nothing(self):
        inputs = [v for v in normalizer_inputs() if np.isneginf(v).any() and not np.isnan(v).any()]
        assert len(inputs) >= 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values in inputs:
                for axis in [None, *range(values.ndim)]:
                    logsumexp(values, axis=axis)
                if np.isfinite(values.max()):
                    normalize_log_weights(values)

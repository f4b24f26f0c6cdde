import math
import warnings

import numpy as np
import pytest

import squint.experts as experts
import squint.regret_bounds as rb
from squint.experts import (
    ConjugatePrior,
    CVPrior,
    DiscreteGridPrior,
    ExpertGameState,
    ImproperPrior,
    cv_log_integrals,
    cv_potential_terms,
    hedge_weights,
    improper_potential_terms,
    iprod_log_factors,
    iprod_weights_grid,
    potential,
    update,
    weights_for_prior,
)
from squint.component_iprod import learning_rate_grid
from squint.numerics import (
    QuadratureError,
    QuadratureSpec,
    _ERFCX_SERIES_CUTOFF,
    _SERIES_MAX_R,
    _SERIES_MAX_V,
    _exponent,
    _exponent_peak,
    _log_eta_closed,
    log_eta_exp_integral,
    log_exp_integral,
    normalize_log_weights,
)

from oracles import (
    capped_knots_former,
    check_simplex_former,
    cv_peak_former,
    cv_peak_knots_former,
    cv_weight_integrand_former,
    exponent_peak_scalar_former,
    improper_potential_integrand_former,
    integrate_adaptive_batch_reference,
    interior_peaks_former,
    iprod_log_products_history,
    iprod_weights_history,
    log_terms_former,
    mp_cv_weight_integral,
    simpson_exp_integral,
    update_replace,
)
from test_numerics import assert_matches_former

# Frozen from the 1e6-panel Simpson oracle (eta-weighted, r=+-1, v=1):
CONJ_W_POS = 0.6569304060901634
CONJ_W_NEG = 0.3430695939098366
# Frozen from the high-precision CV-prior oracle at R=(2,0), V=(2,2):
CV_W_FIRST = 0.671168256025807999


def play_rounds(state, losses_seq, rule):
    """Run a loss sequence, producing weights with ``rule`` each round."""
    for losses in losses_seq:
        w = rule(state)
        state = update(state, w, losses)
    return state


class TestState:
    def test_uniform_construction(self):
        s = ExpertGameState.uniform(4)
        np.testing.assert_allclose(s.prior, 0.25)
        assert s.t == 0

    def test_rejects_bad_prior(self):
        with pytest.raises(ValueError):
            ExpertGameState.from_prior([0.5, 0.6])
        with pytest.raises(ValueError):
            ExpertGameState.from_prior([-0.5, 1.5])

    def test_rejects_nan_statistics(self):
        # written as "not good", the range checks fail on nan
        nan_pair = [math.nan, 0.0]
        for regret, variance in ((nan_pair, nan_pair), (nan_pair, [0.0, 0.0]), ([0.0, 0.0], nan_pair)):
            with pytest.raises(ValueError, match="must lie in"):
                ExpertGameState(
                    prior=np.array([0.5, 0.5]),
                    regret=np.array(regret),
                    variance=np.array(variance),
                    cum_loss=np.zeros(2),
                    t=1,
                )

    def test_rejects_cum_loss_outside_zero_t(self):
        zeros = dict(prior=[0.5, 0.5], regret=[0.0, 0.0], variance=[0.0, 0.0])
        bad = [([math.nan, -3.0], 0), ([math.nan, 0.0], 1), ([-0.5, 0.0], 1), ([0.0, 2.5], 2)]
        for cum_loss, t in bad:
            with pytest.raises(ValueError, match="cumulative loss must lie in"):
                ExpertGameState(**zeros, cum_loss=cum_loss, t=t)
        # the same slack as the other checks
        ExpertGameState(**zeros, cum_loss=[-1e-10, 2 + 1e-9], t=2)

    def test_invariant_bounds_enforced(self):
        with pytest.raises(ValueError):
            ExpertGameState(
                prior=np.array([0.5, 0.5]),
                regret=np.array([5.0, 0.0]),
                variance=np.array([0.0, 0.0]),
                cum_loss=np.zeros(2),
                t=1,
            )


class TestUpdate:
    def test_equal_losses_are_neutral(self):
        s = ExpertGameState.uniform(3)
        s2 = update(s, np.full(3, 1 / 3), np.full(3, 0.7))
        np.testing.assert_array_equal(s2.regret, 0.0)
        np.testing.assert_array_equal(s2.variance, 0.0)
        assert s2.t == 1

    def test_two_expert_arithmetic(self):
        s = ExpertGameState.uniform(2)
        s2 = update(s, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(s2.regret, [-0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(s2.variance, [0.25, 0.25], atol=1e-15)

    def test_weighted_regret_identity(self):
        rng = np.random.default_rng(3)
        s = ExpertGameState.from_prior([0.2, 0.3, 0.5])
        for _ in range(50):
            w = rng.dirichlet([1.0, 1.0, 1.0])
            w = w / w.sum()
            losses = rng.uniform(0.0, 1.0, 3)
            r = float(w @ losses) - losses
            assert abs(float(w @ r)) <= 1e-12
            s = update(s, w, losses)

    def test_rejects_bad_inputs(self):
        s = ExpertGameState.uniform(2)
        with pytest.raises(ValueError):
            update(s, np.array([0.5, 0.5]), np.array([1.5, 0.0]))
        with pytest.raises(ValueError):
            update(s, np.array([1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            update(s, np.array([0.7, 0.7]), np.array([0.5, 0.5]))

    def test_rejects_nan_weights(self):
        # nan fails "p >= 0" and "|sum - 1| <= tol" alike
        s = ExpertGameState.uniform(2)
        for w in ([math.nan, 1.0], [math.nan, math.nan]):
            with pytest.raises(ValueError, match="nan"):
                update(s, np.array(w), np.array([0.5, 0.5]))

    def test_rejects_nan_losses(self):
        s = update(ExpertGameState.uniform(2), np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        before = [a.copy() for a in (s.regret, s.variance, s.cum_loss)]
        for losses in ([math.nan, 0.5], [math.nan, math.nan]):
            with pytest.raises(ValueError, match="losses"):
                update(s, np.array([0.5, 0.5]), np.array(losses))
        for a, b in zip((s.regret, s.variance, s.cum_loss), before):
            assert a.tobytes() == b.tobytes()
        assert s.t == 1

    # the next state is built without re-running ExpertGameState's checks;
    # it must equal the replace() reference bit for bit and still pass them
    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_matches_replace_reference(self, k):
        rng = np.random.default_rng(k)
        rounds = 500
        grid = DiscreteGridPrior.uniform_on(learning_rate_grid(rounds))
        log_products = np.zeros((grid.etas.size, k))
        rules = {
            "conjugate": lambda s: weights_for_prior(s, ConjugatePrior()),
            "improper": lambda s: weights_for_prior(s, ImproperPrior()),
            "cv": lambda s: weights_for_prior(s, CVPrior()),
            "grid": lambda s: weights_for_prior(s, grid),
            "hedge": lambda s: hedge_weights(s, 0.5),
            "iprod": lambda s: iprod_weights_grid(log_products, s.prior, grid),
        }
        for name, rule in rules.items():
            log_products[:] = 0.0
            s = ref = ExpertGameState.from_prior(rng.dirichlet(np.ones(k)))
            losses_seq = rng.random((rounds, k))
            # half the rounds on {0, 1}: instantaneous regrets reach |r| = 1
            losses_seq[::2] = np.round(losses_seq[::2])
            for losses in losses_seq:
                w = rule(s)
                s, ref = update(s, w, losses), update_replace(ref, w, losses)
                for field in ("regret", "variance", "cum_loss"):
                    assert getattr(s, field).tobytes() == getattr(ref, field).tobytes(), name
                assert s.t == ref.t and s.prior is ref.prior
                ExpertGameState(
                    prior=s.prior, regret=s.regret, variance=s.variance, cum_loss=s.cum_loss, t=s.t
                )
                r = float(w @ losses) - losses
                assert s._round_regret.tobytes() == r.tobytes()
                if name == "iprod":
                    log_products += iprod_log_factors(r, grid)


class TestConjugateWeights:
    def test_fresh_state_returns_prior(self):
        s = ExpertGameState.from_prior([0.1, 0.2, 0.7])
        np.testing.assert_allclose(weights_for_prior(s, ConjugatePrior()), s.prior, atol=1e-14)

    def test_matches_simpson_oracle(self):
        s = ExpertGameState(
            prior=np.array([0.5, 0.5]),
            regret=np.array([1.0, -1.0]),
            variance=np.array([1.0, 1.0]),
            cum_loss=np.zeros(2),
            t=2,
        )
        w = weights_for_prior(s, ConjugatePrior())
        np.testing.assert_allclose(w, [CONJ_W_POS, CONJ_W_NEG], rtol=1e-8)
        # unnormalized route against the oracle directly
        from squint.numerics import log_eta_exp_integral

        for r in (1.0, -1.0):
            want = simpson_exp_integral(r, 1.0, with_eta=True)
            assert math.exp(log_eta_exp_integral(r, 1.0)) == pytest.approx(want, rel=1e-8)

    def test_prior_rejects_negative_curvature(self):
        # Theorem 1 needs b >= 0, and the kernels take only curvature >= 0
        for b in (-1.0, -5e-324, math.nan):
            with pytest.raises(ValueError, match="b >= 0"):
                ConjugatePrior(a=0.0, b=b)
        assert ConjugatePrior(a=-1.0, b=-0.0).b == 0.0

    def test_simplex_output(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = rng.integers(2, 8)
            t = 100
            r = rng.uniform(-20, 20, k)
            v = rng.uniform(np.abs(r) ** 2 / t, t, k)
            s = ExpertGameState(
                prior=np.full(k, 1.0 / k),
                regret=r,
                variance=v,
                cum_loss=np.zeros(k),
                t=t,
            )
            for w in (
                weights_for_prior(s, ConjugatePrior()),
                weights_for_prior(s, ConjugatePrior(a=1.0, b=2.0)),
                weights_for_prior(s, ImproperPrior()),
            ):
                assert np.all(w >= 0.0)
                assert abs(w.sum() - 1.0) <= 1e-12


class TestImproperWeights:
    def test_fresh_state_returns_prior(self):
        s = ExpertGameState.from_prior([0.4, 0.6])
        np.testing.assert_allclose(weights_for_prior(s, ImproperPrior()), s.prior, atol=1e-14)

    def test_zero_variance_expert_analytic(self):
        # an expert with R = V = 0 keeps unnormalized weight pi(k)/2
        from squint.numerics import log_exp_integral

        assert math.exp(log_exp_integral(0.0, 0.0)) == pytest.approx(0.5, rel=1e-14)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(12)
        r = rng.uniform(-5, 5, 3)
        v = rng.uniform(1, 10, 3)
        s = ExpertGameState(
            prior=np.full(3, 1 / 3), regret=r, variance=v, cum_loss=np.zeros(3), t=30
        )
        w = weights_for_prior(s, ImproperPrior())
        raw = np.array([simpson_exp_integral(ri, vi) for ri, vi in zip(r, v)])
        want = raw / raw.sum()
        np.testing.assert_allclose(w, want, rtol=1e-6)


class TestCVWeights:
    def test_fresh_state_returns_prior(self):
        s = ExpertGameState.from_prior([0.3, 0.7])
        np.testing.assert_allclose(weights_for_prior(s, CVPrior()), s.prior, atol=1e-10)

    def test_single_expert(self):
        s = ExpertGameState.uniform(1)
        s = ExpertGameState(
            prior=s.prior,
            regret=np.array([3.0]),
            variance=np.array([4.0]),
            cum_loss=np.zeros(1),
            t=10,
        )
        np.testing.assert_allclose(weights_for_prior(s, CVPrior()), [1.0], atol=1e-14)

    def test_matches_refined_oracle(self):
        s = ExpertGameState(
            prior=np.array([0.5, 0.5]),
            regret=np.array([2.0, 0.0]),
            variance=np.array([2.0, 2.0]),
            cum_loss=np.zeros(2),
            t=4,
        )
        w = weights_for_prior(s, CVPrior())
        assert w[0] == pytest.approx(CV_W_FIRST, rel=1e-6)
        raw = np.array([mp_cv_weight_integral(2.0, 2.0), mp_cv_weight_integral(0.0, 2.0)])
        np.testing.assert_allclose(w, raw / raw.sum(), rtol=1e-6)

    def test_quadrature_failure_propagates(self, monkeypatch):
        from squint.numerics import QuadratureError

        s = ExpertGameState(
            prior=np.array([0.5, 0.5]),
            regret=np.array([20.0, -10.0]),
            variance=np.array([25.0, 25.0]),
            cum_loss=np.zeros(2),
            t=40,
        )
        starved = QuadratureSpec(
            0.0, experts._CV_UPPER, abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=4
        )
        monkeypatch.setattr(experts, "_CV_SPEC", starved)
        with pytest.raises(QuadratureError):
            weights_for_prior(s, CVPrior())


def random_statistics(seed: int, k: int):
    """(R, V) with R < -e (the 1/ln|R| knots), V = 0 and interior peaks."""
    rng = np.random.default_rng(seed)
    regret = rng.uniform(-60.0, 40.0, k)
    variance = rng.uniform(0.0, 80.0, k)
    variance[:: 4] = 0.0
    return regret, variance


class TestQuadratureMatchesReference:
    """Production integrands through the batched Simpson give the reference's bits."""

    @pytest.mark.parametrize("k", [3, 12, 64])
    @pytest.mark.parametrize(
        "terms", [cv_log_integrals, cv_potential_terms, improper_potential_terms]
    )
    def test_terms(self, monkeypatch, terms, k):
        regret, variance = random_statistics(k, k)
        got = terms(regret, variance)
        monkeypatch.setattr(experts, "integrate_adaptive_batch", integrate_adaptive_batch_reference)
        assert np.array_equal(got, terms(regret, variance))

    # the five-block level loop gives the former body's bits, error text and
    # abscissa arrays, through each production integrand
    @pytest.mark.parametrize("k", [3, 12, 64])
    @pytest.mark.parametrize(
        "terms", [cv_log_integrals, cv_potential_terms, improper_potential_terms]
    )
    def test_terms_match_former_body(self, monkeypatch, terms, k):
        regret, variance = random_statistics(k, k)
        want = terms(regret, variance)
        calls = []

        def both(f, spec, knots=None):
            calls.append(spec)
            return assert_matches_former(f, spec, knots)

        monkeypatch.setattr(experts, "integrate_adaptive_batch", both)
        assert np.array_equal(terms(regret, variance), want) and len(calls) == 1

    @pytest.mark.parametrize("budget", [60, 120, 300])
    def test_budget_exhaustion_matches_former_body(self, monkeypatch, budget):
        regret, variance = random_statistics(12, 12)
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=budget)

        def both(f, spec, knots=None):
            raise QuadratureError(assert_matches_former(f, spec, knots))

        monkeypatch.setattr(experts, "integrate_adaptive_batch", both)
        with pytest.raises(QuadratureError, match=f"exceeded {budget} subdivisions"):
            cv_log_integrals(regret, variance, spec)

    # the in-place integrands give their former expressions' bits, on draws
    # that reach the eta = 0 edge and the 48-knot cap
    @pytest.mark.parametrize("k", [3, 12, 64])
    @pytest.mark.parametrize(
        "terms, former",
        [
            (cv_log_integrals, cv_weight_integrand_former),
            (improper_potential_terms, improper_potential_integrand_former),
        ],
    )
    def test_integrand_matches_former_expression(self, monkeypatch, terms, former, k):
        regret, variance = random_statistics(k, k)
        same = []

        def both(f, spec, knots=None):
            got = integrate_adaptive_batch_reference(f, spec, knots=knots)
            want = integrate_adaptive_batch_reference(former(regret, variance), spec, knots=knots)
            same.append(np.array_equal(got, want))
            return got

        monkeypatch.setattr(experts, "integrate_adaptive_batch", both)
        terms(regret, variance)
        assert same == [True]

    def test_draws_reach_every_knot_path(self):
        for k in (3, 12, 64):
            regret, variance = random_statistics(k, k)
            assert (regret < -math.e).any() and (variance == 0.0).any()
        # on the K = 64 draw the former builders give more than 48 knots ...
        peak = _exponent_peak(regret, variance)
        assert len(cv_peak_knots_former(regret, variance, peak)) > 48
        assert len(interior_peaks_former(regret, variance)) > 48
        # ... and the shared builder the 48 uniform ones
        for upper, in_u in [(experts._CV_UPPER, True), (0.5, False)]:
            uniform = list(np.linspace(0.0, upper, 50)[1:-1])
            assert experts._peak_knots(regret, variance, peak, upper, in_u) == uniform

    @pytest.mark.parametrize("budget", [60, 120, 300])
    def test_budget_exhaustion_message(self, monkeypatch, budget):
        regret, variance = random_statistics(12, 12)
        spec = QuadratureSpec(0.0, 0.5, abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=budget)
        messages = []
        for quad in (experts.integrate_adaptive_batch, integrate_adaptive_batch_reference):
            monkeypatch.setattr(experts, "integrate_adaptive_batch", quad)
            with pytest.raises(QuadratureError) as info:
                cv_log_integrals(regret, variance, spec)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def hand_grid():
    """(R, V) with V == +-0.0, R == +-0.0, R < -e, subnormals, peaks at 0 and 1/2."""
    r = [-100.0, -10.0, -math.e - 1e-9, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.3, 1.0, 3.0, 50.0]
    v = [-0.0, 0.0, 1e-310, 0.1, 1.0, 3.0, 100.0]
    regret, variance = np.meshgrid(r, v)
    return regret.ravel(), variance.ravel()


STATISTICS = [random_statistics(k, k) for k in (3, 12, 64)] + [hand_grid()]


class TestPeakAndKnots:
    """One peak and one knot builder give the former four builders' values."""

    def test_hand_grid_reaches_every_case(self):
        regret, variance = hand_grid()
        peak = _exponent_peak(regret, variance)
        assert (variance == 0.0).any() and (regret < -math.e).any()
        assert (peak == 0.0).any() and (peak == 0.5).any() and ((0.0 < peak) & (peak < 0.5)).any()
        with np.errstate(all="ignore"):
            assert len(cv_peak_knots_former(regret, variance, peak)) <= 48
            assert len(interior_peaks_former(regret, variance)) <= 48

    @pytest.mark.parametrize("stats", STATISTICS)
    def test_peak_matches_former_scalar_peak(self, stats):
        regret, variance = stats
        pairs = list(zip(regret.tolist(), variance.tolist()))
        want = np.array([exponent_peak_scalar_former(r, v) for r, v in pairs])
        got = _exponent_peak(regret, variance)
        scalar = np.array([float(_exponent_peak(r, v)) for r, v in pairs])
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(scalar, want) and np.array_equal(np.signbit(scalar), np.signbit(want))

    @pytest.mark.parametrize("stats", STATISTICS)
    def test_peak_matches_former_cv_peak(self, stats):
        # the former CV peak divided by max(2V, 1e-300) and took V < 0 as V == 0;
        # the shared peak follows the scalar one, the exact argmax, there (and
        # keeps its -0.0 where R/(2V) underflows from a negative R, which the
        # shift's value does not see)
        regret, variance = stats
        got, want = _exponent_peak(regret, variance), cv_peak_former(regret, variance)
        same = (variance == 0.0) | (2.0 * variance >= 1e-300)
        assert np.array_equal(got[same], want[same])
        assert (got[~same] != want[~same]).any() == (~same).any()

    @pytest.mark.parametrize("stats", STATISTICS)
    def test_knots_match_former_builders(self, stats):
        regret, variance = stats
        peak = _exponent_peak(regret, variance)
        with np.errstate(all="ignore"):
            cv_knots = capped_knots_former(
                cv_peak_knots_former(regret, variance, peak), experts._CV_UPPER
            )
            eta_knots = capped_knots_former(interior_peaks_former(regret, variance), 0.5)
        assert experts._peak_knots(regret, variance, peak, experts._CV_UPPER, True) == cv_knots
        assert experts._peak_knots(regret, variance, peak, 0.5, False) == eta_knots

    def test_shift_matches_former_expression(self):
        for regret, variance in STATISTICS:
            peak = _exponent_peak(regret, variance)
            want = peak * regret - peak * peak * variance
            assert np.array_equal(_exponent(peak, regret, variance), want)

    @pytest.mark.parametrize("num_etas", [3, 8, 33])
    def test_grid_exponent_matches_former_expressions(self, num_etas):
        regret, variance = random_statistics(num_etas, 12)
        s = ExpertGameState._trusted(np.full(12, 1.0 / 12), regret, variance, np.zeros(12), 100)
        etas = 2.0 ** -np.arange(1, num_etas + 1)
        got = experts._grid_exponent(s, etas)
        assert np.array_equal(got, np.outer(regret, etas) - np.outer(variance, etas**2))
        assert got.flags.c_contiguous and got.shape == (12, num_etas)


def kernel_grid():
    """(R, V) reaching every path of both closed-form kernels."""
    pairs = [
        (3.0, 1.0),  # log_xi with b >= 0
        (-1.0, 1.0),  # a <= 0
        (0.5, 3.0),  # b < 0 < a
        (80.0, 2.0),  # erfcx arguments above 25, b >= 0
        (-80.0, 2.0),  # ... and a <= 0
        (1e-3, 1e-6),  # log_xi's series; the eta-weighted closed form cancels
        (-1.1102230246251565e-16, 1.232595164407831e-32),
        (0.0, 0.0),  # v == 0 with r = +-0.0, and the flat forms off r = 0
        (-0.0, 0.0),
        (2.0, 0.0),
        (-2.0, 0.0),
        (1e6, 1.0),  # the eta-weighted closed form cancels: quadrature
        (-1e6, 1.0),
    ]
    return tuple(np.array(c) for c in zip(*pairs))


class TestLogTermsMatchFormer:
    """``_log_terms`` on Python floats gives the numpy-scalar loop's bits."""

    def test_grid_reaches_every_path(self):
        regret, variance = kernel_grid()
        closed = [(r, v) for r, v in zip(regret.tolist(), variance.tolist()) if v > 0.0]
        series = [(r, v) for r, v in closed if abs(r) <= _SERIES_MAX_R and v <= _SERIES_MAX_V]
        erf = [(r, v) for r, v in closed if (r, v) not in series]
        ab = [(r / (2 * math.sqrt(v)), (r - v) / (2 * math.sqrt(v))) for r, v in erf]
        assert any(b >= 0.0 for a, b in ab) and any(a <= 0.0 for a, b in ab)
        assert any(b < 0.0 < a for a, b in ab)
        assert any(b > _ERFCX_SERIES_CUTOFF for a, b in ab)
        assert any(-a > _ERFCX_SERIES_CUTOFF for a, b in ab)
        assert series and any(_log_eta_closed(r, v) is None for r, v in closed)
        zero = (regret == 0.0) & (variance == 0.0)
        assert np.signbit(regret[zero]).any() and not np.signbit(regret[zero]).all()

    @pytest.mark.parametrize("kernel", [log_exp_integral, log_eta_exp_integral])
    @pytest.mark.parametrize(
        "stats", [random_statistics(k, k) for k in (3, 12, 64)] + [kernel_grid()]
    )
    def test_bytes_match_former_loop(self, kernel, stats):
        regret, variance = stats
        prior = np.random.default_rng(regret.size).dirichlet(np.ones(regret.size))
        got = experts._log_terms(prior, regret, variance, kernel)
        want = log_terms_former(prior, regret, variance, kernel)
        assert got.tobytes() == want.tobytes()


class TestGridWeights:
    def test_uniform_on_empty_grid_raises(self):
        for etas in ([], np.zeros((1, 0))):
            with pytest.raises(ValueError, match="at least one learning rate"):
                DiscreteGridPrior.uniform_on(etas)

    def test_fresh_state_returns_prior(self):
        s = ExpertGameState.from_prior([0.25, 0.75])
        grid = DiscreteGridPrior.uniform_on([0.5, 0.25, 0.125])
        np.testing.assert_allclose(weights_for_prior(s, grid), s.prior, atol=1e-14)

    def test_single_point_closed_form(self):
        eta = 0.3
        s = ExpertGameState(
            prior=np.array([0.5, 0.5]),
            regret=np.array([1.0, 0.0]),
            variance=np.array([0.0, 0.0]),
            cum_loss=np.zeros(2),
            t=1,
        )
        grid = DiscreteGridPrior(etas=np.array([eta]), masses=np.array([1.0]))
        w = weights_for_prior(s, grid)
        want = np.array([math.exp(eta), 1.0])
        np.testing.assert_allclose(w, want / want.sum(), rtol=1e-12)

    def test_dense_grid_approximates_conjugate(self):
        n = 10**4
        centers = (np.arange(n) + 0.5) * (0.5 / n)
        grid = DiscreteGridPrior.uniform_on(centers[::-1])
        rng = np.random.default_rng(21)
        r = rng.uniform(-4, 4, 5)
        v = rng.uniform(0.5, 8, 5)
        s = ExpertGameState(
            prior=np.full(5, 0.2), regret=r, variance=v, cum_loss=np.zeros(5), t=20
        )
        np.testing.assert_allclose(
            weights_for_prior(s, grid), weights_for_prior(s, ConjugatePrior()), atol=1e-3
        )

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            DiscreteGridPrior(etas=np.array([0.25, 0.5]), masses=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            DiscreteGridPrior(etas=np.array([0.6]), masses=np.array([1.0]))

    def test_log_mass_eta_is_cached_log(self):
        rng = np.random.default_rng(8)
        for prior in (
            DiscreteGridPrior.uniform_on(learning_rate_grid(1100)),
            DiscreteGridPrior(etas=np.array([0.5, 0.1, 1e-3]), masses=rng.dirichlet(np.ones(3))),
        ):
            assert prior.log_mass_eta.tobytes() == np.log(prior.masses * prior.etas).tobytes()

    def test_grid_rejects_nan(self):
        with pytest.raises(ValueError):
            DiscreteGridPrior(etas=np.array([math.nan, 0.25]), masses=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            DiscreteGridPrior(etas=np.array([0.5, 0.25]), masses=np.array([math.nan, 1.0]))


class TestIprodWeights:
    def test_empty_history_returns_prior(self):
        grid = DiscreteGridPrior.uniform_on([0.5, 0.25])
        pi = np.array([0.3, 0.7])
        np.testing.assert_allclose(
            iprod_weights_grid(np.zeros((2, 2)), pi, grid), pi, atol=1e-14
        )

    def test_single_round_single_eta(self):
        eta = 0.5
        grid = DiscreteGridPrior(etas=np.array([eta]), masses=np.array([1.0]))
        pi = np.array([0.4, 0.6])
        r1 = np.array([0.6, -0.2])
        w = iprod_weights_grid(iprod_log_factors(r1, grid), pi, grid)
        want = pi * (1.0 + eta * r1)
        np.testing.assert_allclose(w, want / want.sum(), rtol=1e-12)

    def test_dominates_grid_potential(self):
        # per-factor bound e^{x - x^2} <= 1 + x makes the product potential
        # at least the exponential one on any history with eta*r >= -1/2
        rng = np.random.default_rng(33)
        grid = DiscreteGridPrior.uniform_on(2.0 ** -np.arange(1, 6))
        pi = np.full(4, 0.25)
        for _ in range(10):
            hist = rng.uniform(-1.0, 1.0, size=(30, 4))
            log_products = np.log1p(grid.etas[None, :, None] * hist[:, None, :]).sum(axis=0)
            iprod_pot = float(pi @ (grid.masses @ (np.exp(log_products) - 1.0)))
            s = ExpertGameState(
                prior=pi,
                regret=hist.sum(axis=0),
                variance=(hist**2).sum(axis=0),
                cum_loss=np.zeros(4),
                t=30,
            )
            squint_pot = potential(s, DiscreteGridPrior.uniform_on(grid.etas))
            assert iprod_pot >= squint_pot - 1e-12

    def test_rejects_nonpositive_factor(self):
        grid = DiscreteGridPrior(etas=np.array([0.5]), masses=np.array([1.0]))
        with pytest.raises(ValueError):
            iprod_log_factors(np.array([-2.5, 0.0]), grid)

    def test_rejects_nan_regret(self):
        grid = DiscreteGridPrior.uniform_on([0.5, 0.25])
        with pytest.raises(ValueError, match="not positive"):
            iprod_log_factors(np.array([math.nan, 0.0]), grid)

    def test_rejects_wrong_shape(self):
        grid = DiscreteGridPrior.uniform_on([0.5, 0.25])
        pi = np.array([0.5, 0.5])
        for shape in [(0, 2), (1, 2), (2, 3), (2,)]:
            with pytest.raises(ValueError):
                iprod_weights_grid(np.zeros(shape), pi, grid)

    # T = 0, T = 1, G > T > 1, and a long run past the grid size
    @pytest.mark.parametrize("rounds", [0, 1, 5, 1100])
    def test_running_sums_match_history_oracle(self, rounds):
        rng = np.random.default_rng(rounds)
        grid = DiscreteGridPrior.uniform_on(learning_rate_grid(1100))
        assert grid.etas.size > 5
        k = 20
        pi = rng.dirichlet(np.ones(k))
        history = rng.uniform(-1.0, 1.0, size=(rounds, k))
        log_products = np.zeros((grid.etas.size, k))
        for r in history:
            log_products += iprod_log_factors(r, grid)
        assert np.array_equal(log_products, iprod_log_products_history(history, grid))
        assert np.array_equal(
            iprod_weights_grid(log_products, pi, grid), iprod_weights_history(history, pi, grid)
        )


class TestHedgeWeights:
    def test_fresh_state_returns_prior(self):
        s = ExpertGameState.from_prior([0.2, 0.8])
        np.testing.assert_allclose(hedge_weights(s, 1.0), s.prior, atol=1e-14)

    def test_equal_losses_shift_invariance(self):
        s = ExpertGameState.uniform(3)
        s = update(s, np.full(3, 1 / 3), np.full(3, 1.0))
        np.testing.assert_allclose(hedge_weights(s, 0.7), 1 / 3, atol=1e-14)

    def test_two_expert_closed_form(self):
        s = ExpertGameState.uniform(2)
        s = update(s, np.array([0.5, 0.5]), np.array([0.0, 1.0]))
        w = hedge_weights(s, 1.0)
        want = np.array([1.0, math.exp(-1.0)])
        np.testing.assert_allclose(w, want / want.sum(), rtol=1e-12)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            hedge_weights(ExpertGameState.uniform(2), 0.0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_rejects_nan_or_infinite_rate(self, eta):
        with pytest.raises(ValueError, match="positive and finite"):
            hedge_weights(ExpertGameState.uniform(2), eta)

    @staticmethod
    def _played(losses):
        s = ExpertGameState.uniform(3)
        for loss in losses:
            s = update(s, np.full(3, 1 / 3), np.array(loss, dtype=float))
        return s

    def test_overflow_that_leaves_a_weight_keeps_the_bits_without_warning(self):
        s = self._played([[0, 1, 1], [0, 1, 1], [0, 0, 1]])
        assert s.cum_loss.tolist() == [0.0, 2.0, 3.0]
        with np.errstate(over="ignore"):
            want = normalize_log_weights(np.log(s.prior) - 1e308 * s.cum_loss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = hedge_weights(s, 1e308)
        assert w.tobytes() == want.tobytes() and w.tolist() == [1.0, 0.0, 0.0]

    def test_overflow_of_every_weight_names_the_learning_rate(self):
        s = self._played([[1, 1, 1], [1, 1, 1], [0, 1, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^hedge learning rate eta=1e\+308 "):
                hedge_weights(s, 1e308)


class TestPriorTheorems:
    def test_each_prior_bounds_with_its_theorem(self):
        v, pi_mass, t = np.array([0.0, 3.5, 40.0]), np.array([0.5, 0.1, 1e-3]), 50
        pairs = [
            (ConjugatePrior(a=0.5, b=2.0), rb.bound_theorem1(v, pi_mass, 0.5, 2.0)),
            (CVPrior(), rb.bound_theorem2(v, pi_mass)),
            (ImproperPrior(), rb.bound_theorem3(v, pi_mass, t)),
        ]
        for prior, want in pairs:
            assert prior.bound(v, pi_mass, t).tobytes() == want.tobytes()
        assert DiscreteGridPrior.uniform_on([0.5, 0.25]).bound is None


class TestPotential:
    PRIORS = [
        ConjugatePrior(),
        ConjugatePrior(a=0.5, b=1.0),
        ImproperPrior(),
        CVPrior(),
        DiscreteGridPrior.uniform_on(2.0 ** -np.arange(1, 9)),
    ]

    @pytest.mark.parametrize("prior", PRIORS, ids=[type(p).__name__ + str(i) for i, p in enumerate(PRIORS)])
    def test_empty_history_is_zero(self, prior):
        s = ExpertGameState.uniform(3)
        assert abs(potential(s, prior)) <= 1e-12

    @pytest.mark.parametrize("prior", PRIORS, ids=[type(p).__name__ + str(i) for i, p in enumerate(PRIORS)])
    def test_nonpositive_and_decreasing_on_played_history(self, prior):
        rng = np.random.default_rng(40)
        s = ExpertGameState.uniform(3)
        prev = 0.0
        for t in range(40):
            w = weights_for_prior(s, prior)
            losses = rng.uniform(0.0, 1.0, 3)
            s = update(s, w, losses)
            if t % 5 == 0:
                phi = potential(s, prior)
                assert phi <= 1e-9
                assert phi <= prev + 1e-9
                prev = phi


class TestTimelessnessAndAnytime:
    def test_zero_loss_rounds_do_not_move_weights(self):
        rng = np.random.default_rng(55)
        losses_seq = [rng.uniform(0, 1, 4) for _ in range(30)]
        rule = lambda s: weights_for_prior(s, ImproperPrior())

        base = ExpertGameState.uniform(4)
        padded = ExpertGameState.uniform(4)
        for i, losses in enumerate(losses_seq):
            wb = rule(base)
            wp = rule(padded)
            np.testing.assert_allclose(wb, wp, atol=1e-12)
            base = update(base, wb, losses)
            padded = update(padded, wp, losses)
            if i % 3 == 0:
                padded = update(padded, rule(padded), np.zeros(4))

    def test_weights_depend_only_on_statistics(self):
        a = ExpertGameState(
            prior=np.array([0.5, 0.5]),
            regret=np.array([1.0, -1.0]),
            variance=np.array([2.0, 1.0]),
            cum_loss=np.array([3.0, 4.0]),
            t=10,
        )
        b = ExpertGameState(
            prior=a.prior,
            regret=a.regret,
            variance=a.variance,
            cum_loss=np.array([9.0, 1.0]),
            t=400,
        )
        np.testing.assert_array_equal(
            weights_for_prior(a, ImproperPrior()), weights_for_prior(b, ImproperPrior())
        )
        np.testing.assert_array_equal(
            weights_for_prior(a, ConjugatePrior()), weights_for_prior(b, ConjugatePrior())
        )


# entries at the edges of each check: nan, signed zeros, the least subnormal
# below 0, the next double above 1, and the infinities
EDGE_VALUES = [math.nan, -0.0, 0.0, -5e-324, 1.0, 1.0 + 2.0**-52, math.inf, -math.inf]


def outcome(fn, *args):
    """None when ``fn`` returns, else the type and message of what it raised."""
    try:
        fn(*args)
    except Exception as err:  # noqa: BLE001 - the type is the point
        return type(err), str(err)
    return None


class TestChecksKeepTheirSemantics:
    """The one-reduction checks raise what the former comparison masks raised."""

    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_check_simplex(self, value):
        for p in ([value], [value, 0.5, 0.5], [0.5, value, 0.5], [1.0 - value, value]):
            p = np.array(p)
            got = outcome(experts._check_simplex, p, "weights")
            assert got == outcome(check_simplex_former, p, "weights")

    def test_check_simplex_on_empty_vector(self):
        want = (ValueError, "prior must sum to 1 within 1e-12, got np.float64(0.0)")
        assert outcome(experts._check_simplex, np.array([]), "prior") == want
        assert outcome(check_simplex_former, np.array([]), "prior") == want

    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_update_loss_check(self, value):
        state, w = ExpertGameState.uniform(2), np.array([0.5, 0.5])
        for losses in ([value, 0.5], [0.5, value], [value, value]):
            losses = np.array(losses)
            former_ok = ((losses >= 0.0) & (losses <= 1.0)).all()
            want = None if former_ok else (ValueError, "losses must lie in [0, 1]")
            assert outcome(update, state, w, losses) == want

    def test_update_loss_check_on_empty_vector(self):
        want = (ValueError, "expected 2-vectors, got (2,) and (0,)")
        assert outcome(update, ExpertGameState.uniform(2), np.array([0.5, 0.5]), np.array([])) == want

    @pytest.mark.parametrize("value", EDGE_VALUES + [-2.0, -2.0 + 2.0**-52, -4.0])
    def test_iprod_factor_check(self, value):
        grid = DiscreteGridPrior.uniform_on([0.5, 0.25])
        for r in ([value, 0.0], [0.0, value]):
            r = np.array(r)
            former_ok = (1.0 + grid.etas[:, None] * r[None, :] > 0.0).all()
            want = None if former_ok else (
                ValueError, "product factor 1 + eta*r is not positive; need |eta*r| <= 1/2"
            )
            assert outcome(iprod_log_factors, r, grid) == want

    def test_iprod_factor_edge_of_minus_one(self):
        grid = DiscreteGridPrior.uniform_on([0.5])
        with pytest.raises(ValueError, match="not positive"):
            iprod_log_factors(np.array([-2.0]), grid)  # eta r = -1 exactly
        x = iprod_log_factors(np.array([-2.0 + 2.0**-52]), grid)  # eta r = -1 + 2^-53
        assert x.tolist() == [[math.log(2.0**-53)]]
        assert iprod_log_factors(np.array([]), grid).shape == (1, 0)


class TestLinearDomainLimit:
    """The linear-domain potentials raise past the peak exponent 700."""

    @pytest.mark.parametrize("terms", [improper_potential_terms, cv_potential_terms])
    def test_raises_naming_the_limit(self, terms):
        # peak at eta = 1/2: 1000 - 250 = 750
        with pytest.raises(OverflowError, match=r"<= 700\.0, got 750\.0"):
            terms(np.array([1.0, 2000.0]), np.array([1.0, 1000.0]))

    @pytest.mark.parametrize("terms", [improper_potential_terms, cv_potential_terms])
    def test_limit_itself_is_evaluated(self, terms):
        # the peak exponent at eta = 1/2 is 1400 - 700 = 700 exactly, which the limit admits
        assert np.isfinite(terms(np.array([2800.0]), np.array([2800.0]))).all()
        assert terms(np.array([]), np.array([])).shape == (0,)

    def test_potential_of_a_state_past_the_limit(self):
        state = ExpertGameState(
            prior=np.array([0.5, 0.5]),
            regret=np.array([2000.0, -2000.0]),
            variance=np.array([1000.0, 3000.0]),
            cum_loss=np.array([0.0, 3000.0]),
            t=3000,
        )
        for prior in (ImproperPrior(), CVPrior()):
            with pytest.raises(OverflowError, match="linear domain"):
                potential(state, prior)

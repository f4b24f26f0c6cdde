import math

import numpy as np
import pytest

from squint.component_iprod import learning_rate_grid
from squint.experts import ExpertGameState, cv_potential_terms
from squint.numerics import log_exp_integral
from squint.regret_bounds import (
    aggregate_subset,
    binary_relative_entropy,
    bound_theorem1,
    bound_theorem2,
    bound_theorem3,
    bound_theorem4,
    ln_plus,
    z_conjugate,
)

from oracles import (
    bound_theorem1_scalar,
    bound_theorem2_scalar,
    bound_theorem3_scalar,
    bound_theorem4_scalar,
)

# Frozen independent arithmetic-oracle values (mpmath, 50 digits):
THM1_V100_PI01 = 59.16493573737543957
THM2_V1000_PI005 = 224.31908701184350337
THM3_V500_PI02_T1E4 = 142.67375886337228597
THM4_V200_E3_K10_T1024 = 277.55528030663657397


def _state(prior, regret, variance, t):
    prior = np.asarray(prior, dtype=float)
    return ExpertGameState(
        prior=prior,
        regret=np.asarray(regret, dtype=float),
        variance=np.asarray(variance, dtype=float),
        cum_loss=np.zeros_like(prior),
        t=t,
    )


class TestAggregateSubset:
    def test_singleton(self):
        s = _state([0.25, 0.75], [1.0, -2.0], [3.0, 4.0], 10)
        agg = aggregate_subset(s, [0])
        assert agg.pi_mass == 0.25
        assert agg.r_agg == 1.0
        assert agg.v_agg == 3.0

    def test_uniform_full_subset_is_plain_average(self):
        s = _state([0.5, 0.5], [1.0, 3.0], [2.0, 6.0], 10)
        agg = aggregate_subset(s, [0, 1])
        assert agg.r_agg == pytest.approx(2.0)
        assert agg.v_agg == pytest.approx(4.0)
        assert agg.pi_mass == pytest.approx(1.0)

    def test_weighted_mean(self):
        s = _state([0.25, 0.75], [4.0, 0.0], [0.0, 0.0], 10)
        agg = aggregate_subset(s, [0, 1])
        assert agg.r_agg == pytest.approx(1.0)

    def test_rejects_empty_or_bad(self):
        s = _state([0.5, 0.5], [0.0, 0.0], [0.0, 0.0], 0)
        with pytest.raises(ValueError):
            aggregate_subset(s, [])
        with pytest.raises(ValueError):
            aggregate_subset(s, [2])


class TestTheorem1:
    def test_default_normalizer(self):
        assert z_conjugate(0.0, 0.0) == 0.5
        # general case against the closed integral
        assert z_conjugate(2.0, 0.0) == pytest.approx((math.exp(1.0) - 1.0) / 2.0, rel=1e-12)

    def test_zero_variance_full_mass(self):
        want = 5.0 * math.log(math.sqrt(5.0))
        assert bound_theorem1(0.0, 1.0) == pytest.approx(want, rel=1e-14)

    def test_arithmetic_oracle(self):
        assert bound_theorem1(100.0, 0.1) == pytest.approx(THM1_V100_PI01, rel=1e-13)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            bound_theorem1(1.0, 0.0)
        with pytest.raises(ValueError):
            bound_theorem1(1.0, 1.5)

    # Theorem 1 must stay at or above the R that its proof inverts; played runs
    # never come within 12 of it, so this is the only check of its constants
    def test_stays_above_the_conjugate_r_star(self):
        v, p = np.meshgrid([0.0, *np.logspace(-8, 7, 61)], np.logspace(-12, 0, 49))
        r, bound = conjugate_r_star(v, p), bound_theorem1(v.ravel(), p.ravel()).reshape(v.shape)
        failing = (bound < r).nonzero()
        assert list(zip(v[failing], p[failing], r[failing], bound[failing])) == []

    def test_conjugate_r_star_values(self):
        r = conjugate_r_star([0.0, 10.0, 100.0, 1000.0], 0.1)
        assert r.tolist() == pytest.approx([7.2299, 11.1968, 36.5761, 134.0494], abs=1e-4)

    @pytest.mark.parametrize("a", [0.0, 1.0, -1.0, 5.0, -5.0, 20.0, -20.0])
    @pytest.mark.parametrize("b", [0.0, 0.5, 5.0, 50.0])
    def test_stays_above_the_conjugate_r_star_at_a_b(self, a, b):
        v, p = np.meshgrid([0.0, *np.logspace(-6, 6, 25)], np.logspace(-12, 0, 13))
        r = conjugate_r_star(v, p, a, b)
        bound = bound_theorem1(v.ravel(), p.ravel(), a, b).reshape(v.shape)
        failing = (bound < r).nonzero()
        assert list(zip(v[failing], p[failing], r[failing], bound[failing])) == []


def r_star(log_mean, pi_mass):
    """The root in R of log_mean(R) = ln(1/pi), elementwise, from above, to 1e-9 (relative above 1).

    ``log_mean`` maps an array of R to ln E[e^{eta R - eta^2 V}] under a
    normalised learning-rate prior, which increases in R.  Proper priors give
    pi(S) E[e^{eta R_S - eta^2 V_S}] <= 1, so R_S <= R*.  The bracket grows
    in both directions, then one bisection serves every entry.
    """
    target = -np.log(pi_mass)
    lo, hi = np.full(target.shape, -1.0), np.full(target.shape, 1.0)
    while (up := log_mean(hi) < target).any():
        lo, hi = np.where(up, hi, lo), np.where(up, 2.0 * hi, hi)
    while (down := log_mean(lo) >= target).any():
        lo, hi = np.where(down, 2.0 * lo, lo), np.where(down, lo, hi)
    while (hi - lo > 1e-9 * np.maximum(np.abs(hi), 1.0)).any():
        mid = 0.5 * (lo + hi)
        below = log_mean(mid) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return hi


def conjugate_r_star(v, pi_mass, a: float = 0.0, b: float = 0.0):
    """R* of the conjugate prior with parameters (a, b), at arrays of (V, pi).

    ln E[e^{eta R - eta^2 V}] = ln Z(a + R, b + V) - ln Z(a, b), Z from
    ``log_exp_integral``.
    """
    v, pi_mass = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(pi_mass, dtype=float))
    log_z = log_exp_integral(a, b)

    def log_mean(r):
        pairs = zip(r.tolist(), v.ravel().tolist())
        return np.array([log_exp_integral(a + x, b + y) - log_z for x, y in pairs])

    return r_star(log_mean, pi_mass.ravel()).reshape(v.shape)


class TestTheorem2:
    def test_zero_variance(self):
        assert bound_theorem2(0.0, 0.3) == pytest.approx(-5.0 * math.log(0.3) + 4.0, rel=1e-14)

    def test_full_mass_zero_variance(self):
        assert bound_theorem2(0.0, 1.0) == pytest.approx(4.0, rel=1e-14)

    def test_arithmetic_oracle(self):
        assert bound_theorem2(1000.0, 0.05) == pytest.approx(THM2_V1000_PI005, rel=1e-13)

    # the CV density is normalised on (0, 1/2], so 1 + cv_potential_terms is
    # E[e^{eta R - eta^2 V}]; one quadrature batch per V serves all 13 masses
    def test_stays_above_the_cv_r_star(self):
        p = np.logspace(-12, 0, 13)
        for v in [0.0, *np.logspace(-6, 6, 25)]:
            v_col = np.full(p.shape, v)
            r = r_star(lambda x: np.log1p(cv_potential_terms(x, v_col)), p)
            bound = bound_theorem2(v_col, p)
            assert list(zip(p[bound < r], r[bound < r], bound[bound < r])) == [], v


class TestTheorem3:
    def test_horizon_zero_full_mass(self):
        assert bound_theorem3(0.0, 1.0, 0) == pytest.approx(5.0 * math.log(2.0), rel=1e-14)

    def test_zero_variance_leaves_additive_term(self):
        for t in (0, 5, 100):
            want = 5.0 * math.log(1.0 + (1.0 + 2.0 * math.log(t + 1.0)) / 0.4)
            assert bound_theorem3(0.0, 0.4, t) == pytest.approx(want, rel=1e-14)

    def test_arithmetic_oracle(self):
        assert bound_theorem3(500.0, 0.2, 10**4) == pytest.approx(
            THM3_V500_PI02_T1E4, rel=1e-13
        )

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            bound_theorem3(1.0, 0.5, -1)


class TestTheorem4:
    def test_horizon_one(self):
        # ceil(1 + log2 1) = 1, ln 1 = 0
        got = bound_theorem4(4.0, 2.0, 3, 1)
        want = 4.0 / math.sqrt(3.0) * math.sqrt(4.0 * 2.0) + 8.0 + 3.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_zero_variance_zero_entropy(self):
        for t in (2, 64, 1000):
            g = math.ceil(1.0 + math.log2(t))
            assert bound_theorem4(0.0, 0.0, 7, t) == pytest.approx(
                7.0 * max(4.0 * math.log(g), 1.0), rel=1e-14
            )

    def test_arithmetic_oracle(self):
        assert bound_theorem4(200.0, 3.0, 10, 2**10) == pytest.approx(
            THM4_V200_E3_K10_T1024, rel=1e-13
        )

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            bound_theorem4(1.0, 1.0, 1, 0)

    # lemma 4 with gamma = 1/G on the grid eta = 2^-i, i = 1..G, inverted:
    # R <= R* = min_eta eta V + (D + K ln G)/eta (oracles.lemma4_check)
    @pytest.mark.parametrize("k", [1, 2, 5, 60])
    @pytest.mark.parametrize("t", [1, 2, 3, 10, 10**3, 10**6])
    def test_stays_above_the_per_rate_r_star(self, k, t):
        # |r| <= 1 per coordinate and round, so V <= K T; past it the bound
        # can fall below R* (K = T = 1, V = 3.16: R* = 1.58, bound 1.0)
        etas = learning_rate_grid(t)
        v, d = np.meshgrid([0.0, *(k * t * np.logspace(-6, 0, 27))], [0.0, *np.logspace(-3, 3, 13)])
        v, d = v.ravel(), d.ravel()
        r = np.min(np.outer(v, etas) + np.outer(d + k * math.log(etas.size), 1.0 / etas), axis=1)
        bound = bound_theorem4(v, d, k, t)
        assert list(zip(v[bound < r], d[bound < r], r[bound < r], bound[bound < r])) == []


# (V, pi) grid: V = 0, tiny and large V, pi = 1 and mixed masses, every pair
_V = np.array([0.0, 1e-12, 0.3, 1.0, 2.5, 17.0, 123.456, 999.0, 1e4])
_PI = np.array([1.0, 0.75, 0.5, 1.0 / 3.0, 0.1, 0.013, 1e-6])
_RNG = np.random.default_rng(8)
STATS = {
    "grid": tuple(x.ravel() for x in np.meshgrid(_V, _PI)),
    # enough draws that a last-bit difference of np.log or np.square would show
    "random": (10.0 ** _RNG.uniform(-3.0, 4.0, 10**5), _RNG.uniform(1e-4, 1.0, 10**5)),
}


class TestArrayForm:
    """The array calculators equal the scalar ones element by element, bit for bit."""

    def _assert_matches(self, got, oracle, *columns):
        want = [oracle(*args) for args in zip(*(c.tolist() for c in columns))]
        assert isinstance(got, np.ndarray) and got.shape == columns[0].shape
        assert got.tolist() == want

    @pytest.mark.parametrize("data", list(STATS))
    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.5, 2.0), (-1.0, 0.25)])
    def test_theorem1(self, data, a, b):
        v, pi = STATS[data]
        got = bound_theorem1(v, pi, a, b)
        self._assert_matches(got, lambda v, p: bound_theorem1_scalar(v, p, a, b), v, pi)

    @pytest.mark.parametrize("data", list(STATS))
    def test_theorem2(self, data):
        v, pi = STATS[data]
        self._assert_matches(bound_theorem2(v, pi), bound_theorem2_scalar, v, pi)

    @pytest.mark.parametrize("data", list(STATS))
    @pytest.mark.parametrize("t", [0, 1, 7, 200, 10**6])
    def test_theorem3(self, data, t):
        v, pi = STATS[data]
        got = bound_theorem3(v, pi, t)
        self._assert_matches(got, lambda v, p: bound_theorem3_scalar(v, p, t), v, pi)

    @pytest.mark.parametrize("data", list(STATS))
    @pytest.mark.parametrize("t", [1, 2, 200, 2**10, 10**6])
    def test_theorem4(self, data, t):
        v, pi = STATS[data]
        entropy = 50.0 * pi  # mixed entropies, every seventh one exactly 0
        entropy[::7] = 0.0
        for k in (1, 60):
            got = bound_theorem4(v, entropy, k, t)
            self._assert_matches(got, lambda v, e: bound_theorem4_scalar(v, e, k, t), v, entropy)

    def test_scalars_give_floats(self):
        assert type(bound_theorem1(2.0, 0.5)) is float
        assert type(bound_theorem2(2.0, 0.5)) is float
        assert type(bound_theorem3(2.0, 0.5, 10)) is float
        assert type(bound_theorem4(2.0, 1.0, 3, 10)) is float
        assert bound_theorem3(2.0, 0.5, 10) == bound_theorem3_scalar(2.0, 0.5, 10)

    def test_scalar_mass_broadcasts(self):
        v = STATS["grid"][0]
        got = bound_theorem3(v, 0.25, 50)
        assert got.tolist() == [bound_theorem3_scalar(x, 0.25, 50) for x in v.tolist()]

    def test_checks_every_entry(self):
        v = np.array([1.0, 2.0, 3.0])
        for pi in ([0.5, 0.0, 0.5], [0.5, 1.5, 0.5], [0.5, math.nan, 0.5]):
            for bound in (bound_theorem1, bound_theorem2):
                with pytest.raises(ValueError, match="prior mass"):
                    bound(v, np.array(pi))
            with pytest.raises(ValueError, match="prior mass"):
                bound_theorem3(v, np.array(pi), 10)
        for bound in (bound_theorem1, bound_theorem2):
            with pytest.raises(ValueError, match="nonnegative"):
                bound(np.array([1.0, -1e-9]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            bound_theorem3(np.array([1.0, -1e-9]), np.array([0.5, 0.5]), 10)
        with pytest.raises(ValueError, match="nonnegative"):
            bound_theorem4(np.array([1.0, 2.0]), np.array([0.0, -1.0]), 3, 10)
        with pytest.raises(ValueError, match="horizon"):
            bound_theorem4(v, np.zeros(3), 3, 0)


class TestBinaryRelativeEntropy:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(0.05, 0.95, 6)
        assert binary_relative_entropy(u, u) == 0.0

    def test_direct_value(self):
        assert binary_relative_entropy([1.0], [0.5]) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_matches_scalar_summation_oracle(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(0.0, 1.0, 5)
        u = rng.uniform(0.01, 0.99, 5)
        want = 0.0
        for vk, uk in zip(v, u):
            if vk > 0:
                want += vk * math.log(vk / uk)
            if vk < 1:
                want += (1 - vk) * math.log((1 - vk) / (1 - uk))
        assert binary_relative_entropy(v, u) == pytest.approx(want, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            v = rng.uniform(0.0, 1.0, 4)
            u = rng.uniform(0.01, 0.99, 4)
            assert binary_relative_entropy(v, u) >= -1e-12

    def test_boundary_mismatch_is_infinite(self):
        assert binary_relative_entropy([1.0], [1.0]) == 0.0
        assert math.isinf(binary_relative_entropy([0.5], [1.0]))
        assert math.isinf(binary_relative_entropy([1.0], [0.0]))

    @pytest.mark.parametrize("k", [1, 6, 60, 300])
    def test_stack_rows_match_single_rows(self, k):
        # row j of a stack has the bits of row j alone (pairwise sums start past 8 terms)
        rng = np.random.default_rng(k)
        u = rng.uniform(0.01, 0.99, k)
        edge = u.copy()
        edge[::2] = rng.choice([0.0, 1.0], edge[::2].shape)  # a boundary u
        for prior in (u, edge):
            v = np.vstack(
                (
                    rng.integers(0, 2, (5, k)).astype(float),  # vertex rows
                    rng.uniform(0.0, 1.0, (5, k)),  # interior rows
                    np.where(rng.uniform(size=(5, k)) < 0.5, 0.0, rng.uniform(size=(5, k))),
                )
            )
            got = binary_relative_entropy(v, prior)
            want = np.array([binary_relative_entropy(row, prior) for row in v])
            assert got.shape == (15,)
            assert got.tobytes() == want.tobytes()
        assert np.isinf(binary_relative_entropy(v, edge)).any()

    def test_empty_stack(self):
        got = binary_relative_entropy(np.zeros((0, 4)), np.full(4, 0.5))
        assert got.shape == (0,) and got.dtype == float

    @pytest.mark.parametrize(
        "v, u",
        [(np.zeros((2, 3, 4)), np.full(4, 0.5)), (np.zeros((2, 4)), np.full((2, 4), 0.5))],
        ids=["3d_v", "2d_u"],
    )
    def test_rejects_other_shapes(self, v, u):
        with pytest.raises(ValueError, match="shape mismatch"):
            binary_relative_entropy(v, u)

    def test_monotonicity_of_bounds(self):
        # all calculators nondecreasing in V, nonincreasing in prior mass
        vs = np.linspace(0.0, 500.0, 40)
        for lo, hi in zip(vs[:-1], vs[1:]):
            assert bound_theorem1(hi, 0.3) >= bound_theorem1(lo, 0.3) - 1e-12
            assert bound_theorem2(hi, 0.3) >= bound_theorem2(lo, 0.3) - 1e-12
            assert bound_theorem3(hi, 0.3, 100) >= bound_theorem3(lo, 0.3, 100) - 1e-12
            assert bound_theorem4(hi, 2.0, 5, 64) >= bound_theorem4(lo, 2.0, 5, 64) - 1e-12
        masses = np.linspace(0.05, 1.0, 30)
        for lo, hi in zip(masses[:-1], masses[1:]):
            assert bound_theorem1(50.0, lo) >= bound_theorem1(50.0, hi) - 1e-12
            assert bound_theorem2(50.0, lo) >= bound_theorem2(50.0, hi) - 1e-12
            assert bound_theorem3(50.0, lo, 100) >= bound_theorem3(50.0, hi, 100) - 1e-12

    def test_ln_plus(self):
        assert ln_plus(0.5) == 0.0
        assert ln_plus(1.0) == 0.0
        assert ln_plus(math.e) == pytest.approx(1.0, rel=1e-15)

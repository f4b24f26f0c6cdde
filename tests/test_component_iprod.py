import dataclasses
import math

import numpy as np
import pytest

from squint.component_iprod import (
    comparator_stats,
    learning_rate_grid,
    make_game,
    observe,
    play,
    potential,
)
from squint.experts import DiscreteGridPrior, iprod_log_factors, iprod_weights_grid
from squint.polytopes import ExplicitVertices, KSubsets
from squint.regret_bounds import binary_relative_entropy, bound_theorem4

from oracles import (
    ComponentBayes,
    comparator_stats_rowwise,
    lemma4_check,
    mix_loss,
    unconstrained_update,
)
from test_polytopes import diamond, six_node_dag


class TestGrid:
    def test_horizon_eight(self):
        np.testing.assert_allclose(learning_rate_grid(8), [0.5, 0.25, 0.125, 0.0625])

    def test_horizon_one(self):
        np.testing.assert_allclose(learning_rate_grid(1), [0.5])

    def test_sizes_match_ceil_log(self):
        for t in (1, 2, 3, 7, 8, 9, 100, 2**16):
            want = 1 if t == 1 else math.ceil(1.0 + math.log2(t))
            assert learning_rate_grid(t).size == want

    def test_rates_stay_normal_floats(self):
        etas = learning_rate_grid(2**1021)
        assert etas.size == 1022 and etas[-1] == 2.0**-1022
        for t in (2**1021 + 1, 2**1060, 2**1100):
            with pytest.raises(ValueError, match="learning rates"):
                learning_rate_grid(t)

    def test_initialization(self):
        game = make_game(KSubsets(3, 1), t_max=8)
        assert len(game.u_tilde) == 4
        np.testing.assert_allclose(game.gamma, 0.25)
        assert game.neg_log_weight[0] == pytest.approx(math.log(8.0), rel=1e-14)
        with pytest.raises(ValueError):
            make_game(KSubsets(3, 1), t_max=0)


class TestPlayObserve:
    def test_first_play_is_projected_prior(self):
        cls = KSubsets(4, 2)
        game = make_game(cls, t_max=16)
        u = play(game)
        np.testing.assert_allclose(u, cls.project(game.prior_vec), atol=1e-9)

    def test_single_point_grid_plays_its_slice(self):
        cls = KSubsets(3, 1)
        game = make_game(cls, t_max=1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = play(game)
            np.testing.assert_allclose(u, game.u_proj[0], atol=1e-12)
            observe(game, rng.uniform(-1, 1, 3))

    def test_equal_weights_average(self):
        cls = KSubsets(2, 1)
        game = make_game(cls, t_max=2)
        game.u_tilde[0] = np.array([0.8, 0.2])
        game.u_tilde[1] = np.array([0.4, 0.6])
        game.neg_log_weight[0] = math.log(2.0)
        game.neg_log_weight[1] = math.log(2.0)
        u = play(game)
        want = 0.5 * (cls.project(game.u_tilde[0]) + cls.project(game.u_tilde[1]))
        np.testing.assert_allclose(u, want, atol=1e-9)

    def test_zero_losses_change_nothing(self):
        game = make_game(KSubsets(4, 2), t_max=8)
        play(game)
        before_t = game.u_tilde.copy()
        before_l = game.neg_log_weight.copy()
        observe(game, np.zeros(4))
        for j, (bt, bl) in enumerate(zip(before_t, before_l)):
            np.testing.assert_allclose(game.u_tilde[j], bt, atol=1e-12)
            assert game.neg_log_weight[j] == pytest.approx(bl, abs=1e-15)
        np.testing.assert_array_equal(game.cum_r1, 0.0)
        np.testing.assert_array_equal(game.cum_sq0, 0.0)

    def test_regret_pair_definition(self):
        game = make_game(ExplicitVertices([[0.0], [1.0]]), t_max=1)
        game.u_tilde[0] = np.array([1.0 - 1e-12])
        u = play(game)
        assert u[0] == pytest.approx(1.0, abs=1e-9)
        observe(game, np.array([1.0]))
        assert game.cum_r1[0] == pytest.approx(u[0] - 1.0, abs=1e-12)
        assert game.cum_r0[0] == pytest.approx(u[0], abs=1e-12)

    def test_closed_form_matches_posterior_on_transformed_losses(self):
        rng = np.random.default_rng(3)
        cls = KSubsets(5, 2)
        game = make_game(cls, t_max=32)
        for _ in range(10):
            u = play(game)
            losses = rng.uniform(-1, 1, 5)
            snapshot = [(eta, game.u_proj[j].copy()) for j, eta in enumerate(game.etas)]
            observe(game, losses)
            r1 = u * losses - losses
            r0 = u * losses
            for j, (eta, u_proj) in enumerate(snapshot):
                x1 = -np.log1p(eta * r1)
                x0 = -np.log1p(eta * r0)
                want = unconstrained_update(u_proj, x1, x0)
                np.testing.assert_allclose(game.u_tilde[j], want, atol=1e-12)

    def test_nonpositive_factor_raises_and_changes_nothing(self):
        game = make_game(KSubsets(3, 1), t_max=8)
        play(game)
        # a usage outside [0, 1]: 1 + eta (u - 1) l = 1 - 0.5 * 4 < 0 at eta = 1/2
        game.pending_usage = np.full(3, 5.0)
        before = {f.name: getattr(game, f.name) for f in dataclasses.fields(game)}
        arrays = {n: v.copy() for n, v in before.items() if isinstance(v, np.ndarray)}
        with pytest.raises(ValueError, match="update factor went nonpositive"):
            observe(game, np.full(3, -1.0))
        for name, value in before.items():
            assert getattr(game, name) is value, name  # no field rebound
        for name, value in arrays.items():
            np.testing.assert_array_equal(getattr(game, name), value, err_msg=name)  # nor changed

    def test_rejects_bad_usage_protocol(self):
        game = make_game(KSubsets(3, 1), t_max=4)
        with pytest.raises(RuntimeError):
            observe(game, np.zeros(3))
        play(game)
        with pytest.raises(ValueError):
            observe(game, np.array([2.0, 0.0, 0.0]))

    # nan passes "> 1" and "<= 0" alike; it used to poison u_tilde and neg_log_weight
    def test_nan_loss_or_usage_raises(self):
        game = make_game(KSubsets(3, 1), t_max=4)
        play(game)
        with pytest.raises(ValueError, match="losses must lie"):
            observe(game, np.array([math.nan, 0.0, 0.0]))
        game.pending_usage = np.array([math.nan, 0.5, 0.5])
        with pytest.raises(ValueError, match="update factor went nonpositive"):
            observe(game, np.full(3, 0.5))

    def test_nan_prior_vec_raises(self):
        # clamp_interior keeps nan, which used to give a nan row of u_tilde
        with pytest.raises(ValueError, match="vector of numbers"):
            make_game(KSubsets(3, 1), prior_vec=[math.nan, 0.5, 0.5], t_max=4)


class TestMixLoss:
    def test_zero_losses(self):
        assert mix_loss(np.array([0.3, 0.6]), np.zeros(2), np.zeros(2)) == 0.0

    def test_constant_losses(self):
        c = 0.37
        got = mix_loss(np.full(4, 0.5), np.full(4, c), np.full(4, c))
        assert got == pytest.approx(4.0 * c, rel=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(0.05, 0.95, 6)
        x1 = rng.uniform(-2, 2, 6)
        x0 = rng.uniform(-2, 2, 6)
        want = sum(
            -math.log(uk * math.exp(-a) + (1 - uk) * math.exp(-b))
            for uk, a, b in zip(u, x1, x0)
        )
        assert mix_loss(u, x1, x0) == pytest.approx(want, rel=1e-12)


class TestPotential:
    def test_empty_history_zero(self):
        for cls in (KSubsets(4, 2), diamond()):
            assert abs(potential(make_game(cls, t_max=16))) <= 1e-12

    def test_zero_loss_round_keeps_zero(self):
        game = make_game(KSubsets(2, 1), t_max=1)
        play(game)
        observe(game, np.zeros(2))
        assert abs(potential(game)) <= 1e-12

    @pytest.mark.parametrize("cls_factory", [lambda: KSubsets(5, 2), diamond, six_node_dag])
    def test_nonpositive_on_played_histories(self, cls_factory):
        cls = cls_factory()
        rng = np.random.default_rng(7)
        game = make_game(cls, t_max=64)
        for _ in range(64):
            play(game)
            observe(game, rng.uniform(-1, 1, cls.num_components))
            assert potential(game) <= 1e-9


class TestComparators:
    def test_stats_match_direct_definition(self):
        cls = six_node_dag()
        rng = np.random.default_rng(11)
        game = make_game(cls, t_max=50)
        verts = cls.vertices()
        v = verts[rng.integers(len(verts))]
        direct_r = 0.0
        for _ in range(50):
            u = play(game)
            losses = rng.uniform(-1, 1, cls.num_components)
            direct_r += float((u - v) @ losses)
            observe(game, losses)
        r, var = comparator_stats(game, v)
        assert r == pytest.approx(direct_r, abs=1e-9)
        assert 0.0 <= var <= cls.num_components * game.t

    @pytest.mark.parametrize("cls_factory", [lambda: KSubsets(6, 3), six_node_dag])
    def test_batched_stats_equal_rowwise_oracle(self, cls_factory):
        cls = cls_factory()
        k = cls.num_components
        rng = np.random.default_rng(23)
        game = make_game(cls, t_max=64)
        for _ in range(64):
            play(game)
            observe(game, rng.uniform(-1, 1, k))
        verts = cls.vertices()
        hull_points = rng.dirichlet(np.ones(len(verts)), size=40) @ verts
        stack = np.vstack([verts, hull_points])
        want_r, want_var = np.array([comparator_stats_rowwise(game, v) for v in stack]).T
        wide = np.zeros((len(stack), 2 * k))
        wide[:, ::2] = stack
        # C order, Fortran order and a column-strided view: every form must
        # give the row-wise bits exactly, with no tolerance
        for form in (stack, np.asfortranarray(stack), wide[:, ::2]):
            r, var = comparator_stats(game, form)
            assert r.shape == var.shape == (len(stack),)
            assert (r == want_r).all() and (var == want_var).all()
        for v, want in zip(stack, zip(want_r.tolist(), want_var.tolist())):
            assert comparator_stats(game, v) == want

    def test_stack_shapes(self):
        game = make_game(KSubsets(4, 2), t_max=4)
        play(game)
        observe(game, np.full(4, 0.5))
        for bad in (np.zeros((2, 3, 4)), np.zeros((3, 5)), np.zeros(5), np.zeros(())):
            with pytest.raises(ValueError):
                comparator_stats(game, bad)
        r, var = comparator_stats(game, np.zeros((0, 4)))
        assert r.shape == var.shape == (0,)
        assert all(type(x) is float for x in comparator_stats(game, np.ones(4)))

    def test_lemma4_trivial_start(self):
        game = make_game(KSubsets(4, 2), t_max=8)
        v = game.concept_class.vertices()[0]
        lhs, rhs = lemma4_check(game, 0.5, v)
        assert lhs == 0.0
        assert rhs >= 0.0

    def test_lemma4_all_rates_and_vertices(self):
        cls = KSubsets(5, 2)
        rng = np.random.default_rng(13)
        game = make_game(cls, t_max=128)
        for _ in range(128):
            play(game)
            observe(game, rng.uniform(-1, 1, 5))
        for eta in game.etas:
            for v in cls.vertices():
                lhs, rhs = lemma4_check(game, float(eta), v)
                assert lhs <= rhs + 1e-8

    def test_lemma4_rejects_off_grid_rate(self):
        game = make_game(KSubsets(3, 1), t_max=8)
        with pytest.raises(ValueError):
            lemma4_check(game, 0.3, game.concept_class.vertices()[0])

    def test_final_bound_holds_for_vertices(self):
        cls = KSubsets(5, 2)
        rng = np.random.default_rng(17)
        t_max = 128
        game = make_game(cls, t_max=t_max)
        for _ in range(t_max):
            play(game)
            observe(game, rng.uniform(-1, 1, 5))
        for v in cls.vertices():
            r, var = comparator_stats(game, v)
            entropy = binary_relative_entropy(v, game.prior_vec)
            bound = bound_theorem4(var, entropy, cls.num_components, t_max)
            assert r <= bound + 1e-9


class TestComponentBayes:
    @pytest.mark.parametrize("cls_factory", [lambda: KSubsets(6, 3), diamond])
    def test_mix_loss_regret_bounded_by_entropy(self, cls_factory):
        cls = cls_factory()
        rng = np.random.default_rng(19)
        learner = ComponentBayes(cls, np.full(cls.num_components, 0.5))
        cum_mix = 0.0
        cum_linear = np.zeros(cls.num_components * 2)
        xs = []
        for _ in range(60):
            u = learner.play()
            x1 = rng.uniform(-1, 1, cls.num_components)
            x0 = rng.uniform(-1, 1, cls.num_components)
            cum_mix += mix_loss(u, x1, x0)
            xs.append((x1, x0))
            learner.update(x1, x0)
        prior = np.full(cls.num_components, 0.5)
        for v in cls.vertices():
            linear = sum(float(v @ x1 + (1.0 - v) @ x0) for x1, x0 in xs)
            assert cum_mix - linear <= binary_relative_entropy(v, prior) + 1e-8

    def test_update_requires_play(self):
        learner = ComponentBayes(KSubsets(2, 1), np.array([0.5, 0.5]))
        with pytest.raises(RuntimeError):
            learner.update(np.zeros(2), np.zeros(2))


class TestTwoExpertReduction:
    def test_aggregate_matches_product_weights(self):
        # one component with concepts {0, 1} driven by the difference of two
        # expert losses reproduces the product-form two-expert weights
        rng = np.random.default_rng(23)
        t_max = 100
        pi1 = 0.35
        game = make_game(ExplicitVertices([[0.0], [1.0]]), prior_vec=np.array([pi1]), t_max=t_max)
        grid = DiscreteGridPrior.uniform_on(learning_rate_grid(t_max))
        log_products = np.zeros((grid.etas.size, 2))
        for _ in range(t_max):
            u = play(game)[0]
            w = iprod_weights_grid(log_products, np.array([pi1, 1.0 - pi1]), grid)
            assert abs(u - w[0]) <= 1e-10
            l1, l2 = rng.uniform(0, 1, 2)
            observe(game, np.array([l1 - l2]))
            r1 = (w[0] * l1 + w[1] * l2) - l1
            r2 = (w[0] * l1 + w[1] * l2) - l2
            log_products += iprod_log_factors(np.array([r1, r2]), grid)

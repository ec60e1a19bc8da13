"""Grid distribution and REINFORCE update: probabilities against a
straight-line reference, scores against both a reference and finite
differences of log P, window/baseline semantics, clamping, signs."""

from collections import deque

import numpy as np
import pytest

from fedmatch.tuner import (
    GridError,
    HyperAxis,
    HyperDist,
    HyperGrid,
    default_grid,
    grid_probs,
    initial_dist,
    mu_raw,
    reinforce_update,
    reward,
    sample,
    score,
)

import oracles


def three_point_grid():
    return HyperGrid(axes=(HyperAxis("x", (0.1, 0.2, 0.3)),))


class TestAxesAndGrid:
    def test_coords_are_zero_mean_in_half_unit_box(self):
        ax = HyperAxis("learning_rate", (0.005, 0.01, 0.02, 0.05, 0.1, 0.2))
        assert np.allclose(ax.coords, [-0.5, -0.3, -0.1, 0.1, 0.3, 0.5])
        assert np.isclose(ax.coords.mean(), 0.0)

    def test_single_value_axis_sits_at_zero(self):
        ax = HyperAxis("c", (42.0,))
        assert np.array_equal(ax.coords, [0.0])

    def test_values_must_increase(self):
        with pytest.raises(GridError):
            HyperAxis("x", (0.2, 0.1))
        with pytest.raises(GridError):
            HyperAxis("x", (0.1, 0.1))

    def test_integer_axis_requires_integral_values(self):
        with pytest.raises(GridError):
            HyperAxis("iters", (10.0, 20.5), integer=True)

    def test_omitted_integer_flag_is_inferred_from_the_values(self):
        assert HyperAxis("iters", (10.0, 20.0)).integer is True
        assert HyperAxis("lr", (0.5, 1.0)).integer is False
        assert HyperAxis("iters", (10.0, 20.0), integer=False).integer is False

    def test_default_grid_shapes(self):
        g = default_grid("mnist")
        assert g.shape == (6, 6) and g.size == 36
        g2 = default_grid("kws")
        assert g2.shape == (6, 4)
        assert [a.name for a in g2.axes] == ["learning_rate", "sgd_iterations"]

    def test_points_enumerate_cartesian_product_row_major(self):
        g = HyperGrid(axes=(HyperAxis("a", (1.0, 2.0)), HyperAxis("b", (1.0, 2.0, 3.0))))
        pts = g.points
        assert pts.shape == (6, 2)
        # first axis varies slowest
        assert np.allclose(pts[:3, 0], -0.5) and np.allclose(pts[3:, 0], 0.5)
        assert np.allclose(pts[:3, 1], [-0.5, 0.0, 0.5])

    def test_points_and_coords_are_cached_read_only(self):
        # sample/score read these on every call; a caller that wrote
        # into them would move the grid for every later call.
        g = default_grid("kws")
        assert g.points is g.points
        assert g.axes[0].coords is g.axes[0].coords
        for arr in (g.points, g.axes[0].coords):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_raw_values_and_locate_roundtrip(self):
        # a flat index locates one value on each axis, and both its point
        # and its raw values are read from those
        g = default_grid("mnist")
        for idx in (0, 7, 35):
            per_axis = np.unravel_index(idx, g.shape)
            assert np.ravel_multi_index(per_axis, g.shape) == idx
            assert list(g.points[idx]) == [a.coords[j] for a, j in zip(g.axes, per_axis)]
            assert g.raw_values(idx) == {a.name: a.values[j]
                                         for a, j in zip(g.axes, per_axis)}
        raw = g.raw_values(0)
        assert raw == {"learning_rate": 0.005, "sgd_iterations": 10}
        assert isinstance(raw["sgd_iterations"], int)


class TestGridProbabilities:
    def test_frozen_three_point_example(self):
        # coords (-0.5, 0, 0.5), mu = 0, precision 4:
        # weights exp(-0.5*4*0.25) = e^{-1/2} at the ends, 1 in the middle
        # -> p = (0.2741, 0.4519, 0.2741)
        g = three_point_grid()
        dist = HyperDist(mu=np.zeros(1), log_precision=np.log(np.array([4.0])))
        p = grid_probs(g, dist)
        assert np.allclose(p, [0.27406862, 0.45186276, 0.27406862], atol=1e-7)
        assert np.isclose(p.sum(), 1.0, atol=1e-12)

    def test_matches_loop_reference_on_2d_grid(self):
        g = default_grid("mnist")
        dist = HyperDist(mu=np.array([0.13, -0.22]),
                         log_precision=np.array([1.1, -0.4]))
        p = grid_probs(g, dist)
        ref = oracles.grid_probs_ref(g.points, dist.mu, dist.precision)
        assert np.allclose(p, ref, atol=1e-12)

    def test_probabilities_follow_distance_to_mean(self):
        g = default_grid("mnist")
        dist = HyperDist(mu=np.array([0.5, 0.5]), log_precision=np.array([3.0, 3.0]))
        p = grid_probs(g, dist)
        assert p.argmax() == g.size - 1  # the corner nearest the mean

    def test_very_sharp_distribution_degenerates_gracefully(self):
        g = three_point_grid()
        dist = HyperDist(mu=np.array([0.5]), log_precision=np.array([60.0]))
        p = grid_probs(g, dist)
        assert np.isclose(p.sum(), 1.0)
        assert p[2] > 0.999999


class TestSampling:
    def test_sample_is_reproducible_per_seed(self):
        g = default_grid("mnist")
        dist = initial_dist(g)
        draws1 = [sample(g, dist, np.random.default_rng(5)) for _ in range(10)]
        draws2 = [sample(g, dist, np.random.default_rng(5)) for _ in range(10)]
        assert draws1 == draws2

    def test_sample_frequencies_track_probabilities(self):
        g = three_point_grid()
        dist = HyperDist(mu=np.array([0.0]), log_precision=np.array([np.log(4.0)]))
        rng = np.random.default_rng(123)
        n = 20000
        counts = np.zeros(3)
        for _ in range(n):
            counts[sample(g, dist, rng)] += 1
        assert np.allclose(counts / n, grid_probs(g, dist), atol=0.01)


class TestScore:
    def test_frozen_symmetric_two_point_example(self):
        # symmetric two-point grid, mu = 0: expected gradient cancels, so
        # score_mu(h=+0.5) = A * 0.5 = 2.0 for A = 4
        g = HyperGrid(axes=(HyperAxis("x", (0.0, 1.0)),))
        dist = HyperDist(mu=np.zeros(1), log_precision=np.log(np.array([4.0])))
        s = score(g, dist, 1)
        assert np.isclose(s[0, 0], 2.0, atol=1e-12)

    def test_matches_loop_reference(self):
        g = default_grid("mnist")
        dist = HyperDist(mu=np.array([0.2, -0.1]),
                         log_precision=np.array([2.0, 0.5]))
        got = score(g, dist, 17)
        want = oracles.score_ref(g.points, dist.mu, dist.precision, g.points[17])
        assert np.allclose(got, want, atol=1e-12)

    def test_score_is_gradient_of_log_prob(self):
        """Central differences of log P(h | psi) in every psi coordinate."""
        g = default_grid("mnist")
        mu = np.array([0.11, -0.31])
        lp = np.array([1.3, 0.2])
        h_idx = 21
        s = score(g, HyperDist(mu=mu, log_precision=lp), h_idx)
        eps = 1e-6
        for row, vec in ((0, mu), (1, lp)):
            for d in range(2):
                keep = vec[d]
                vec[d] = keep + eps
                up = np.log(grid_probs(g, HyperDist(mu=mu.copy(), log_precision=lp.copy()))[h_idx])
                vec[d] = keep - eps
                down = np.log(grid_probs(g, HyperDist(mu=mu.copy(), log_precision=lp.copy()))[h_idx])
                vec[d] = keep
                assert np.isclose(s[row, d], (up - down) / (2 * eps), atol=1e-6)

    def test_expected_score_is_zero(self):
        g = default_grid("kws")
        dist = HyperDist(mu=np.array([0.3, -0.4]), log_precision=np.array([2.2, 1.0]))
        p = grid_probs(g, dist)
        total = np.zeros((2, 2))
        for i in range(g.size):
            total += p[i] * score(g, dist, i)
        assert np.allclose(total, 0.0, atol=1e-12)


class TestReward:
    def test_relative_improvement(self):
        assert np.isclose(reward(2.0, 1.5), 0.25)
        assert np.isclose(reward(1.0, 1.1), -0.1)
        assert reward(3.0, 3.0) == 0.0

    def test_degenerate_losses_rejected(self):
        with pytest.raises(ValueError):
            reward(0.0, 1.0)
        with pytest.raises(ValueError):
            reward(-1.0, 0.5)
        with pytest.raises(ValueError):
            reward(float("nan"), 0.5)


class TestWindowAndUpdate:
    def test_window_capacity_is_z_plus_one(self):
        # a deque of capacity Z+1 bases the step on the last Z+1 pairs only
        g = three_point_grid()
        dist = initial_dist(g)
        pairs = [(float(r), score(g, dist, r % 3)) for r in range(10)]
        w = deque(pairs, maxlen=4)
        assert [r for r, _ in w] == [6.0, 7.0, 8.0, 9.0]
        new = reinforce_update(dist, w, eta=0.01)
        last = reinforce_update(dist, pairs[-4:], eta=0.01)
        every = reinforce_update(dist, pairs, eta=0.01)
        assert np.array_equal(new.mu, last.mu)
        assert np.array_equal(new.log_precision, last.log_precision)
        assert not np.array_equal(new.mu, every.mu)

    def test_first_update_with_single_entry_is_identity(self):
        g = default_grid("mnist")
        dist = initial_dist(g)
        new = reinforce_update(dist, [(0.7, score(g, dist, 3))], eta=0.1)
        assert np.array_equal(new.mu, dist.mu)
        assert np.array_equal(new.log_precision, dist.log_precision)

    def test_update_matches_hand_computed_step(self):
        g = three_point_grid()
        dist = HyperDist(mu=np.zeros(1), log_precision=np.log(np.array([4.0])))
        s1 = score(g, dist, 0)
        s2 = score(g, dist, 2)
        new = reinforce_update(dist, [(0.0, s1), (1.0, s2)], eta=0.1)
        rbar = 0.5
        expect = dist.mu + 0.1 * ((0.0 - rbar) * s1[0] + (1.0 - rbar) * s2[0])
        assert np.allclose(new.mu, np.clip(expect, -0.5, 0.5), atol=1e-15)
        # rewarding the right-hand cell pulls the mean right
        assert new.mu[0] > dist.mu[0]

    def test_mu_clamps_to_grid_hull(self):
        g = three_point_grid()
        dist = HyperDist(mu=np.array([0.45]), log_precision=np.array([0.0]))
        w = [(0.0, score(g, dist, 0)),
             (50.0, score(g, dist, 2))]  # huge reward far right
        new = reinforce_update(dist, w, eta=5.0)
        assert new.mu[0] == 0.5

    def test_freeze_precision_keeps_log_precision(self):
        g = three_point_grid()
        dist = initial_dist(g)
        w = [(0.1, score(g, dist, 0)), (0.9, score(g, dist, 2))]
        new = reinforce_update(dist, w, eta=0.2, freeze_precision=True)
        assert np.array_equal(new.log_precision, dist.log_precision)
        assert not np.array_equal(new.mu, dist.mu)

    def test_descent_sign_flips_the_step(self):
        g = three_point_grid()
        dist = initial_dist(g)
        w = [(0.1, score(g, dist, 0)), (0.9, score(g, dist, 2))]
        up = reinforce_update(dist, w, eta=0.2, sign=1.0)
        down = reinforce_update(dist, w, eta=0.2, sign=-1.0)
        assert np.allclose(up.mu - dist.mu, -(down.mu - dist.mu), atol=1e-15)

    def test_initial_dist_std(self):
        g = default_grid("mnist")
        dist = initial_dist(g, std=0.2)
        assert np.allclose(1 / np.sqrt(dist.precision), 0.2)
        assert np.array_equal(dist.mu, np.zeros(2))


class TestRawReadout:
    def test_mu_raw_interpolates_between_grid_values(self):
        g = default_grid("mnist")
        # mu exactly on the grid coordinate of lr = 0.05 (rank 3 of 6)
        dist = HyperDist(mu=np.array([0.1, 0.0]), log_precision=np.zeros(2))
        raw = mu_raw(g, dist)
        assert np.isclose(raw["learning_rate"], 0.05)
        # halfway between ranks 2 and 3 of the iteration axis: 30 -> 50
        dist2 = HyperDist(mu=np.array([0.1, 0.0]), log_precision=np.zeros(2))
        assert np.isclose(mu_raw(g, dist2)["sgd_iterations"], 40.0)

    def test_mu_raw_clamps_at_axis_ends(self):
        g = three_point_grid()
        dist = HyperDist(mu=np.array([0.5]), log_precision=np.zeros(1))
        assert np.isclose(mu_raw(g, dist)["x"], 0.3)

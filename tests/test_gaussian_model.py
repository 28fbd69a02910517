"""Source model: validation, grids, and exactness of the partial moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from strategiq import (
    Quantizer,
    cell_moments,
    conditional_density,
    make_source,
    make_theta_grid,
    partial_moments,
)


class TestMakeSource:
    def test_unit_independent(self):
        src = make_source(1.0, 1.0, 0.0)
        assert src.sigma_theta == 1.0
        assert not src.degenerate

    def test_full_correlation_is_degenerate_but_accepted(self):
        src = make_source(1.0, 1.0, 1.0)
        assert src.degenerate

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            make_source(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            make_source(1.0, 0.0, 0.0)

    def test_correlation_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_source(1.0, 1.0, 1.5)

    def test_sigma_theta_scales_with_r(self):
        src = make_source(2.0, 3.0, 0.1)
        assert src.sigma_theta == pytest.approx(6.0)


class TestMakeThetaGrid:
    def test_single_node_uniform(self, unit_source):
        grid = make_theta_grid(unit_source, 1, "uniform-truncated")
        np.testing.assert_allclose(grid.nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(grid.weights, [1.0])

    def test_two_node_gauss_hermite(self, unit_source):
        # degree-2 Hermite roots +-1/sqrt(2), rescaled by sqrt(2)*sigma_theta
        grid = make_theta_grid(unit_source, 2, "gauss-hermite")
        np.testing.assert_allclose(grid.nodes, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(grid.weights, [0.5, 0.5], atol=1e-14)

    def test_uniform_33_sums_and_symmetry(self, unit_source):
        grid = make_theta_grid(unit_source, 33, "uniform-truncated")
        assert abs(grid.weights.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(grid.weights, grid.weights[::-1], atol=1e-15)
        np.testing.assert_allclose(grid.nodes, -grid.nodes[::-1], atol=1e-12)

    def test_second_moment_converges(self, unit_source):
        grid = make_theta_grid(unit_source, 17, "gauss-hermite")
        assert abs(grid.second_moment() - 1.0) < 0.01

    def test_unknown_scheme_rejected(self, unit_source):
        with pytest.raises(ValueError):
            make_theta_grid(unit_source, 5, "chebyshev")

    def test_scaled_source_grid_matches_marginal(self):
        src = make_source(2.0, 1.5, 0.3)
        grid = make_theta_grid(src, 17, "gauss-hermite")
        assert grid.second_moment() == pytest.approx(src.sigma_theta**2, rel=1e-12)

    def test_grid_invariants_enforced(self):
        from strategiq import ThetaGrid

        with pytest.raises(ValueError):
            ThetaGrid(nodes=np.array([0.0, 0.0]), weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            ThetaGrid(nodes=np.array([0.0, 1.0]), weights=np.array([0.6, 0.5]))
        with pytest.raises(ValueError):
            ThetaGrid(nodes=np.array([0.0, 1.0]), weights=np.array([1.1, -0.1]))


class TestPartialMoments:
    def test_full_line(self, unit_source):
        pm = partial_moments(unit_source, 0.0, -math.inf, math.inf)
        assert pm.mass == pytest.approx(1.0, abs=1e-15)
        assert pm.first == pytest.approx(0.0, abs=1e-15)

    def test_half_line(self, unit_source):
        # half-normal mean: E[X 1{X >= 0}] = 1/sqrt(2*pi)
        pm = partial_moments(unit_source, 0.0, 0.0, math.inf)
        assert pm.mass == pytest.approx(0.5, abs=1e-15)
        assert pm.first == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-14)

    def test_empty_interval(self, unit_source):
        pm = partial_moments(unit_source, 0.0, 1.0, 1.0)
        assert pm.mass == 0.0
        assert pm.first == 0.0

    def test_bad_intervals_rejected(self, unit_source):
        with pytest.raises(ValueError):
            partial_moments(unit_source, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            partial_moments(unit_source, 0.0, math.nan, 1.0)

    def test_matches_adaptive_quadrature(self, rng):
        src = make_source(1.3, 0.8, 0.4)
        for _ in range(100):
            theta_j = float(rng.normal(scale=src.sigma_theta))
            a, b = np.sort(rng.normal(scale=2.0, size=2))
            pm = partial_moments(src, theta_j, a, b)
            mass_q, _ = quad(lambda x: conditional_density(src, theta_j, x), a, b)
            first_q, _ = quad(lambda x: x * conditional_density(src, theta_j, x), a, b)
            assert pm.mass == pytest.approx(mass_q, abs=1e-9)
            assert pm.first == pytest.approx(first_q, abs=1e-9)

    def test_partition_sums(self, rng):
        # any partition: masses sum to 1, first moments to the conditional mean
        src = make_source(1.0, 2.0, -0.6)
        for theta_j in (-1.5, 0.0, 2.0):
            mu_c, _ = src.conditional_params(theta_j)
            cuts = np.sort(rng.normal(size=7))
            edges = np.concatenate(([-math.inf], cuts, [math.inf]))
            moments = [
                partial_moments(src, theta_j, a, b) for a, b in zip(edges[:-1], edges[1:])
            ]
            assert sum(pm.mass for pm in moments) == pytest.approx(1.0, abs=1e-10)
            assert sum(pm.first for pm in moments) == pytest.approx(mu_c, abs=1e-10)


class TestConditionalDensity:
    def test_standard_normal_at_zero(self, unit_source):
        assert conditional_density(unit_source, 0.0, 0.0) == pytest.approx(0.398942, abs=1e-6)

    def test_far_tail(self, unit_source):
        assert conditional_density(unit_source, 0.0, 10.0) < 1e-20

    def test_correlated_case(self):
        # X | theta=2 ~ N(rho*(sigma_x/sigma_theta)*2, 1-rho^2) = N(1, 0.75)
        src = make_source(1.0, 1.0, 0.5)
        expected = math.exp(-0.0) / math.sqrt(2.0 * math.pi * 0.75)
        assert conditional_density(src, 2.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.460659, abs=1e-6)

    def test_degenerate_rejected(self):
        src = make_source(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            conditional_density(src, 0.0, 0.0)


class TestCellMoments:
    def test_matches_scalar_op(self, rng):
        src = make_source(0.9, 1.4, 0.25)
        grid = make_theta_grid(src, 5, "gauss-hermite")
        interior = np.sort(rng.normal(size=(5, 3)), axis=1)
        boundaries = np.hstack(
            [np.full((5, 1), -math.inf), interior, np.full((5, 1), math.inf)]
        )
        mass, first, _ = cell_moments(src, grid, boundaries)
        for j in range(5):
            for m in range(4):
                pm = partial_moments(src, grid.nodes[j], boundaries[j, m], boundaries[j, m + 1])
                assert mass[j, m] == pytest.approx(pm.mass, abs=1e-14)
                assert first[j, m] == pytest.approx(pm.first, abs=1e-14)

    def test_second_moment_against_quadrature(self, rng):
        src = make_source(1.0, 1.0, 0.3)
        grid = make_theta_grid(src, 3, "gauss-hermite")
        interior = np.sort(rng.normal(size=(3, 2)), axis=1)
        boundaries = np.hstack(
            [np.full((3, 1), -math.inf), interior, np.full((3, 1), math.inf)]
        )
        _, _, second = cell_moments(src, grid, boundaries)
        for j in range(3):
            for m in range(3):
                a, b = boundaries[j, m], boundaries[j, m + 1]
                ref, _ = quad(
                    lambda x: x * x * conditional_density(src, grid.nodes[j], x),
                    max(a, -40.0),
                    min(b, 40.0),
                )
                assert second[j, m] == pytest.approx(ref, abs=1e-9)

    def test_cells_sum_to_total_moments(self, unit_source, grid17):
        q = Quantizer(M=4, boundaries=np.tile([-math.inf, -0.5, 0.3, 1.1, math.inf], (17, 1)))
        mass, first, second = cell_moments(unit_source, grid17, q.boundaries)
        np.testing.assert_allclose(mass.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(first.sum(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(second.sum(axis=1), 1.0, atol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_cells_sum_to_whole_line_moments_randomly(self, data):
        # over any monotone row the cells partition the line, so they sum to
        # mass 1, mean mu and second moment mu^2 + sigma^2 of X | theta_j
        src = make_source(
            data.draw(st.floats(0.1, 10.0), label="sigma_x"),
            data.draw(st.floats(0.05, 20.0), label="r"),
            data.draw(st.floats(-0.99, 0.99), label="rho"),
        )
        grid = make_theta_grid(src, data.draw(st.integers(1, 9), label="n_nodes"), "gauss-hermite")
        M = data.draw(st.integers(1, 6), label="M")
        edge = st.one_of(
            st.floats(-8.0, 8.0).map(lambda v: v * src.sigma_x),
            st.sampled_from([-math.inf, 0.0, math.inf]),  # coincident and infinite edges
        )
        rows = [
            [-math.inf, *sorted(data.draw(st.lists(edge, min_size=M - 1, max_size=M - 1))), math.inf]
            for _ in range(grid.n_nodes)
        ]
        mass, first, second = cell_moments(src, grid, np.array(rows))
        # a few roundings per cell of terms no larger than (|mu| + sigma)^k
        tol = 16.0 * np.finfo(float).eps * M
        for j in range(grid.n_nodes):
            mu, sigma = src.conditional_params(grid.nodes[j])
            scale = abs(mu) + sigma
            assert abs(mass[j].sum() - 1.0) <= tol
            assert abs(first[j].sum() - mu) <= tol * scale
            assert abs(second[j].sum() - (mu * mu + sigma * sigma)) <= tol * scale * scale

"""Source model: validation, grids, and exactness of the partial moments."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.stats import norm

from strategiq import (
    BestResponses,
    Quantizer,
    SourceSpec,
    ThetaGrid,
    brute_force_design,
    design,
    evaluate,
    gaussian_model,
    lloyd_max,
    make_oracle_grid,
    make_source,
    make_theta_grid,
    monte_carlo_distortions,
    multistart,
    random_monotone_quantizer,
)
from strategiq.gaussian_model import interval_moments
from strategiq.quantizer_core import _grid_terms, _moment_pass


def _one_cell(src, theta_j, a, b):
    """(mass, first) of X | theta=theta_j over [a, b], from interval_moments."""
    mu_c, sigma_c = src.conditional_params(theta_j)
    mass, first, _ = interval_moments(mu_c, sigma_c, np.array([a, b]))
    return float(mass[0]), float(first[0])


def _cell_moments(src, grid, boundaries):
    """(mass, first, second) of every (theta node, cell), from interval_moments."""
    return interval_moments(*src.conditional_params(grid.nodes), boundaries)


def _density(src, grid, points):
    """Conditional density at points[j, c] given theta_j, as the moment pass returns it."""
    return _moment_pass(points, _grid_terms(src, grid, grid.n_nodes), 0.0)[4]


def _conditional_pdf(src, theta_j):
    mu_c, sigma_c = src.conditional_params(theta_j)
    return norm(mu_c, sigma_c).pdf


class TestMakeSource:
    def test_unit_independent(self):
        src = make_source(1.0, 1.0, 0.0)
        assert src.sigma_theta == 1.0
        grid = make_theta_grid(src, 3)
        mass, _, _ = _cell_moments(src, grid, np.tile([-math.inf, 0.0, math.inf], (3, 1)))
        assert mass.sum() == pytest.approx(3.0, rel=1e-15)

    def test_full_correlation_is_degenerate_but_accepted(self):
        # |rho| = 1 is a valid source, but X | theta is a point mass: no cell moments
        boundaries = np.tile([-math.inf, 0.0, math.inf], (3, 1))
        for rho in (1.0, -1.0):
            src = make_source(1.0, 1.0, rho)
            grid = make_theta_grid(src, 3)
            with pytest.raises(ValueError, match="nondegenerate"):
                evaluate(Quantizer(M=2, boundaries=boundaries), src, grid, 0.0)
        src = make_source(1.0, 1.0, math.nextafter(1.0, 0.0))
        mass, _, _ = _cell_moments(src, make_theta_grid(src, 3), boundaries)
        assert np.all(np.isfinite(mass))

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            make_source(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            make_source(1.0, 0.0, 0.0)

    def test_correlation_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_source(1.0, 1.0, 1.5)

    @pytest.mark.parametrize("args, message", [
        ((math.nan, 1.0, 0.0), "source parameters must be finite"),
        ((1.0, math.inf, 0.0), "source parameters must be finite"),
        ((-1.0, 1.0, 0.0), "sigma_x must be positive, got -1.0"),
        ((1.0, -2.0, 0.0), "r must be positive, got -2.0"),
        ((1.0, 1.0, -1.5), "rho must lie in [-1, 1], got -1.5"),
    ], ids=repr)
    def test_a_source_built_directly_checks_itself(self, args, message):
        # SourceSpec checks itself, so make_source and a direct build fail alike
        for build in (SourceSpec, make_source):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(*args)

    def test_a_source_built_directly_stores_floats(self):
        src = SourceSpec(2, 1, 0)
        assert all(type(v) is float for v in (src.sigma_x, src.r, src.rho))
        assert src == make_source(2.0, 1.0, 0.0)

    def test_sigma_theta_scales_with_r(self):
        src = make_source(2.0, 3.0, 0.1)
        assert src.sigma_theta == pytest.approx(6.0)

    @pytest.mark.parametrize("rho", [0.0, 0.6, -0.9, 1.0])
    def test_conditional_params_of_nodes_match_scalar_calls(self, rho):
        src = make_source(1.3, 0.8, rho)
        nodes = make_theta_grid(src, 17, "gauss-hermite").nodes
        mu, sigma = src.conditional_params(nodes)
        scalar = [src.conditional_params(float(t)) for t in nodes]
        assert mu.tobytes() == np.array([m for m, _ in scalar]).tobytes()
        assert all(s == sigma for _, s in scalar)


class TestMakeThetaGrid:
    def test_single_node_gauss_hermite(self, unit_source):
        grid = make_theta_grid(unit_source, 1)
        np.testing.assert_allclose(grid.nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(grid.weights, [1.0])

    def test_two_node_gauss_hermite(self, unit_source):
        # degree-2 Hermite roots +-1/sqrt(2), rescaled by sqrt(2)*sigma_theta
        grid = make_theta_grid(unit_source, 2, "gauss-hermite")
        np.testing.assert_allclose(grid.nodes, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(grid.weights, [0.5, 0.5], atol=1e-14)

    def test_gauss_hermite_33_sums_and_symmetry(self, unit_source):
        grid = make_theta_grid(unit_source, 33, "gauss-hermite")
        assert abs(grid.weights.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(grid.weights, grid.weights[::-1], atol=1e-15)
        np.testing.assert_allclose(grid.nodes, -grid.nodes[::-1], atol=1e-12)

    def test_second_moment_converges(self, unit_source):
        grid = make_theta_grid(unit_source, 17, "gauss-hermite")
        assert abs(grid.second_moment() - 1.0) < 0.01

    def test_zero_nodes_rejected(self, unit_source):
        with pytest.raises(ValueError, match="n_nodes must be >= 1"):
            make_theta_grid(unit_source, 0)

    def test_node_count_limit(self, unit_source):
        # numpy's hermgauss returns weights that overflow to 0 or NaN from 371
        # nodes on; the limit is named instead of an unrelated weight error
        grid = make_theta_grid(unit_source, 370)
        assert np.all(np.isfinite(grid.weights)) and abs(grid.weights.sum() - 1.0) <= 1e-12
        for n in (371, 400):
            with pytest.raises(ValueError, match="^n_nodes must be <= 370, got "):
                make_theta_grid(unit_source, n)

    def test_repeated_grids_are_equal_and_own_their_arrays(self, unit_source):
        # the Hermite rule is computed once per node count; grids copy it
        a, b = make_theta_grid(unit_source, 17), make_theta_grid(unit_source, 17)
        x, w = np.polynomial.hermite.hermgauss(17)
        for grid in (a, b):
            np.testing.assert_array_equal(grid.nodes, math.sqrt(2.0) * x)
            np.testing.assert_array_equal(grid.weights, w / w.sum())
        cached = gaussian_model._hermite_rule(17)
        assert not any(c.flags.writeable for c in cached)
        for array in (a.nodes, a.weights):
            others = (*cached, b.nodes, b.weights)
            assert not any(np.shares_memory(array, other) for other in others)
        # an integral float is the same count, and reads the same cached rule
        np.testing.assert_array_equal(make_theta_grid(unit_source, 17.0).nodes, a.nodes)

    def test_unknown_scheme_rejected(self, unit_source):
        for scheme in ("chebyshev", "uniform-truncated"):
            with pytest.raises(ValueError):
                make_theta_grid(unit_source, 5, scheme)

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
        with pytest.raises(ValueError, match="1-D"):
            ThetaGrid(nodes=np.array([[0.0, 1.0]]), weights=np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="at least one node"):
            ThetaGrid(nodes=np.array([]), weights=np.array([]))

    def test_nan_weights_rejected(self):
        # the Monte Carlo oracle samples the weights without a check of its own
        from strategiq import ThetaGrid

        with pytest.raises(ValueError, match="sum to 1"):
            ThetaGrid(nodes=np.array([0.0, 1.0]), weights=np.array([np.nan, np.nan]))
        with pytest.raises(ValueError, match="sum to 1"):
            ThetaGrid(nodes=np.array([0.0, 1.0]), weights=np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("nodes", [[np.nan], [0.0, np.nan, 1.0], [-np.inf, 0.0, 1.0], [0.0, 1.0, np.inf]])
    def test_non_finite_nodes_rejected(self, nodes):
        weights = np.full(len(nodes), 1.0 / len(nodes))
        with pytest.raises(ValueError, match="finite"):
            ThetaGrid(nodes=np.array(nodes), weights=weights)


def _quantizer(M):
    """Quantizer(M, ...) of 3 two-cell rows: M is checked before the rows' shape."""
    return Quantizer(M=M, boundaries=np.tile([-math.inf, 0.0, math.inf], (3, 1)))


# each count, whichever function takes it, follows the one rule of Quantizer's M:
# an integer (an integral float too), no bool, no fraction, and at least 1
_COUNT_CALLS = {
    "Quantizer": ("M", lambda s, n: _quantizer(n)),
    "make_theta_grid": ("n_nodes", lambda s, n: make_theta_grid(s, n)),
    "lloyd_max": ("M", lambda s, n: lloyd_max(s, n)),
    "multistart": ("M", lambda s, n: multistart(s, make_theta_grid(s, 3), n, 1.0)),
    # design takes M from its start, so the start's constructor checks it
    "design": ("M", lambda s, n: design(s, make_theta_grid(s, 3), 1.0, _quantizer(n))),
    "brute_force_design": ("M", lambda s, n: brute_force_design(
        s, make_theta_grid(s, 1), n, 1.0, make_oracle_grid(s, 3))),
    "make_oracle_grid": ("n_points", lambda s, n: make_oracle_grid(s, n)),
    "random_monotone_quantizer": ("M", lambda s, n: random_monotone_quantizer(
        s, make_theta_grid(s, 3), n, np.random.default_rng(0))),
    "monte_carlo_distortions": ("n_samples", lambda s, n: monte_carlo_distortions(
        _quantizer(2), BestResponses(np.zeros(2), np.zeros(2), np.ones(2)), s,
        make_theta_grid(s, 3), 1.0, n, 0)),
}


@pytest.mark.parametrize("call", sorted(_COUNT_CALLS))
@pytest.mark.parametrize("value", [2.5, True, "3", math.nan, 0, -1])
def test_counts_are_integers(unit_source, call, value):
    name, run = _COUNT_CALLS[call]
    expected = f"must be >= 1, got {value}$" if value in (0, -1) else "must be an integer, got "
    with pytest.raises(ValueError, match=f"^{name} {expected}"):
        run(unit_source, value)


class TestPhi:
    @pytest.mark.parametrize("fn", ["ndtr", "ndtri"])
    def test_bitwise_scipy(self, fn, rng):
        special_values = [-np.inf, np.inf, np.nan, 0.0, -0.0, 40.0, -40.0, 1.0]
        x = np.concatenate((special_values, rng.random(50), rng.normal(size=50)))
        ours, scipys = getattr(gaussian_model, fn), getattr(special, fn)
        assert ours(x).tobytes() == scipys(x).tobytes()
        assert all(np.array(ours(v)).tobytes() == np.array(scipys(v)).tobytes() for v in special_values)


class TestPartialMoments:
    def test_full_line(self, unit_source):
        mass, first = _one_cell(unit_source, 0.0, -math.inf, math.inf)
        assert mass == pytest.approx(1.0, abs=1e-15)
        assert first == pytest.approx(0.0, abs=1e-15)

    def test_half_line(self, unit_source):
        # half-normal mean: E[X 1{X >= 0}] = 1/sqrt(2*pi)
        mass, first = _one_cell(unit_source, 0.0, 0.0, math.inf)
        assert mass == pytest.approx(0.5, abs=1e-15)
        assert first == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-14)

    def test_empty_interval(self, unit_source):
        assert _one_cell(unit_source, 0.0, 1.0, 1.0) == (0.0, 0.0)

    def test_matches_adaptive_quadrature(self, rng):
        src = make_source(1.3, 0.8, 0.4)
        for _ in range(100):
            theta_j = float(rng.normal(scale=src.sigma_theta))
            a, b = np.sort(rng.normal(scale=2.0, size=2))
            mass, first = _one_cell(src, theta_j, a, b)
            pdf = _conditional_pdf(src, theta_j)
            assert mass == pytest.approx(quad(pdf, a, b)[0], abs=1e-9)
            assert first == pytest.approx(quad(lambda x: x * pdf(x), a, b)[0], abs=1e-9)

    def test_partition_sums(self, rng):
        # any partition: masses sum to 1, first moments to the conditional mean
        src = make_source(1.0, 2.0, -0.6)
        for theta_j in (-1.5, 0.0, 2.0):
            mu_c, sigma_c = src.conditional_params(theta_j)
            cuts = np.sort(rng.normal(size=7))
            edges = np.concatenate(([-math.inf], cuts, [math.inf]))
            mass, first, _ = interval_moments(mu_c, sigma_c, edges)
            assert mass.sum() == pytest.approx(1.0, abs=1e-10)
            assert first.sum() == pytest.approx(mu_c, abs=1e-10)


class TestConditionalDensity:
    # the conditional density the descent's gradient takes from the moment pass
    def test_standard_normal_at_zero(self, unit_source):
        grid = make_theta_grid(unit_source, 1)
        density = _density(unit_source, grid, np.array([[0.0]]))
        assert density[0, 0] == pytest.approx(0.398942, abs=1e-6)

    def test_far_tail(self, unit_source):
        grid = make_theta_grid(unit_source, 1)
        assert _density(unit_source, grid, np.array([[10.0]]))[0, 0] < 1e-20

    def test_correlated_case(self):
        # X | theta=2 ~ N(rho*(sigma_x/sigma_theta)*2, 1-rho^2) = N(1, 0.75)
        src = make_source(1.0, 1.0, 0.5)
        mu_c, sigma_c = src.conditional_params(2.0)
        assert mu_c == pytest.approx(1.0, rel=1e-15)
        assert sigma_c**2 == pytest.approx(0.75, rel=1e-15)
        grid = ThetaGrid(nodes=np.array([2.0]), weights=np.array([1.0]))
        expected = 1.0 / math.sqrt(2.0 * math.pi * 0.75)
        assert _density(src, grid, np.array([[1.0]]))[0, 0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.460659, abs=1e-6)


class TestCellMoments:
    def test_matches_scalar_op(self, rng):
        # the (J, M) batch agrees with one interval_moments call per cell
        src = make_source(0.9, 1.4, 0.25)
        grid = make_theta_grid(src, 5, "gauss-hermite")
        interior = np.sort(rng.normal(size=(5, 3)), axis=1)
        boundaries = np.hstack(
            [np.full((5, 1), -math.inf), interior, np.full((5, 1), math.inf)]
        )
        mass, first, _ = _cell_moments(src, grid, boundaries)
        for j in range(5):
            for m in range(4):
                mass_jm, first_jm = _one_cell(
                    src, grid.nodes[j], boundaries[j, m], boundaries[j, m + 1]
                )
                assert mass[j, m] == pytest.approx(mass_jm, abs=1e-14)
                assert first[j, m] == pytest.approx(first_jm, abs=1e-14)

    def test_second_moment_against_quadrature(self, rng):
        # mass, first and second moment of every cell against adaptive quadrature
        src = make_source(0.9, 1.4, 0.25)
        grid = make_theta_grid(src, 5, "gauss-hermite")
        interior = np.sort(rng.normal(size=(5, 3)), axis=1)
        boundaries = np.hstack(
            [np.full((5, 1), -math.inf), interior, np.full((5, 1), math.inf)]
        )
        moments = _cell_moments(src, grid, boundaries)
        for j in range(5):
            pdf = _conditional_pdf(src, grid.nodes[j])
            for m in range(4):
                a, b = max(boundaries[j, m], -40.0), min(boundaries[j, m + 1], 40.0)
                for k, moment in enumerate(moments):
                    ref, _ = quad(lambda x: x**k * pdf(x), a, b)
                    assert moment[j, m] == pytest.approx(ref, abs=1e-9)

    def test_cells_sum_to_total_moments(self, unit_source, grid17):
        q = Quantizer(M=4, boundaries=np.tile([-math.inf, -0.5, 0.3, 1.1, math.inf], (17, 1)))
        mass, first, second = _cell_moments(unit_source, grid17, q.boundaries)
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
        mass, first, second = _cell_moments(src, grid, np.array(rows))
        # a few roundings per cell of terms no larger than (|mu| + sigma)^k
        tol = 16.0 * np.finfo(float).eps * M
        for j in range(grid.n_nodes):
            mu, sigma = src.conditional_params(grid.nodes[j])
            scale = abs(mu) + sigma
            assert abs(mass[j].sum() - 1.0) <= tol
            assert abs(first[j].sum() - mu) <= tol * scale
            assert abs(second[j].sum() - (mu * mu + sigma * sigma)) <= tol * scale * scale

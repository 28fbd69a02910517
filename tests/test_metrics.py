"""KL similarity, Lloyd-Max anchors, and the privacy-dominated limit identity."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from strategiq import (
    Quantizer,
    linear_distortions,
    lloyd_max,
    lloyd_max_quantizer,
    make_source,
    make_theta_grid,
    max_kl,
    multistart,
    optimal_alpha,
    random_monotone_quantizer,
)
from strategiq.metrics import _lloyd_max_row, _marginal_message_probs

INF = math.inf


def _kl(q, source, a, b):
    """D_KL between rows a and b of a quantizer with one row per node."""
    return max_kl(q, source, make_theta_grid(source, q.n_theta)).pairwise[a, b]


class TestKlSimilarity:
    def test_identical_rows_zero(self, unit_source):
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.3, INF], (2, 1)))
        assert _kl(q, unit_source, 0, 1) == 0.0

    def test_shifted_split_value(self, unit_source):
        # oracle: direct formula with the error-function CDF
        q = Quantizer(M=2, boundaries=np.array([[-INF, 0.0, INF], [-INF, 0.5, INF]]))
        pa = np.array([0.5, 0.5])
        pb = np.array([float(ndtr(0.5)), 1.0 - float(ndtr(0.5))])
        expected = float(np.sum(pa * np.log(pa / pb)))
        got = _kl(q, unit_source, 0, 1)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0792819, abs=1e-7)

    def test_absolute_continuity_failure_is_inf(self, unit_source):
        # row 1 collapses the first cell that row 0 still uses
        q = Quantizer(M=2, boundaries=np.array([[-INF, 0.0, INF], [-INF, -INF, INF]]))
        assert _kl(q, unit_source, 0, 1) == INF
        assert _kl(q, unit_source, 1, 0) < INF  # zero-mass cells contribute 0

    def test_nonnegative_on_random_pairs(self, unit_source, rng):
        for _ in range(50):
            interior = np.sort(rng.uniform(-2, 2, size=(2, 3)), axis=1)
            q = Quantizer(M=4, boundaries=np.hstack([
                np.full((2, 1), -INF), interior, np.full((2, 1), INF)]))
            assert _kl(q, unit_source, 0, 1) >= 0.0
            assert _kl(q, unit_source, 1, 0) >= 0.0

    def test_mirror_rows_get_mirrored_masses(self, unit_source, rng):
        for _ in range(50):
            interior = np.sort(rng.normal(scale=3.0, size=5))
            row = np.concatenate(([-INF], interior, [INF]))
            q = Quantizer(M=6, boundaries=np.array([row, -row[::-1]]))
            probs = _marginal_message_probs(q, unit_source)
            assert probs[0].tobytes() == probs[1][::-1].tobytes()

    def test_far_upper_tail_cell_has_mass(self, unit_source):
        # Phi(10) - Phi(9) rounds to 0; the mass is about 1.1e-19
        q = Quantizer(M=3, boundaries=np.array([[-INF, 9.0, 10.0, INF]]))
        mass = _marginal_message_probs(q, unit_source)[0, 1]
        assert mass == pytest.approx(ndtr(-9.0) - ndtr(-10.0), rel=1e-12)
        assert mass > 0.0


def _reference_max_kl(q, source):
    """max_kl's rules pair by pair: inf where p_a > 0 = p_b, 0 on the diagonal."""
    probs = _marginal_message_probs(q, source)
    n = probs.shape[0]
    pairwise = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            pa, pb = probs[a], probs[b]
            active = pa > 0.0
            if np.any(active & (pb <= 0.0)):
                pairwise[a, b] = math.inf
            else:
                pairwise[a, b] = np.sum(pa[active] * np.log(pa[active] / pb[active]))
    return pairwise


class TestMaxKl:
    def test_matches_the_pairwise_referee(self, unit_source, grid17, rng):
        cases = [lloyd_max_quantizer(unit_source, 8, grid17)]
        cases += [random_monotone_quantizer(unit_source, grid17, int(rng.integers(2, 10)), rng)
                  for _ in range(40)]
        # skipped messages: rows that give some message no mass
        skipping = np.tile([-INF, -1.0, 0.0, 1.0, INF], (17, 1))
        skipping[::3, 2] = -1.0
        skipping[1::4, 1] = -INF
        cases.append(Quantizer(M=4, boundaries=skipping))
        for q in cases:
            expected = _reference_max_kl(q, unit_source)
            report = max_kl(q, unit_source, grid17)
            finite = np.isfinite(expected)
            np.testing.assert_array_equal(np.isfinite(report.pairwise), finite)
            np.testing.assert_array_equal(report.pairwise[~finite], expected[~finite])
            np.testing.assert_allclose(report.pairwise[finite], expected[finite],
                                       rtol=1e-15, atol=0.0)
            assert report.d_max == expected.max()
        assert math.isinf(max_kl(cases[-1], unit_source, grid17).d_max)

    def test_rows_must_match_grid(self, unit_source):
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (3, 1)))
        with pytest.raises(ValueError, match="rows must match the theta grid"):
            max_kl(q, unit_source, make_theta_grid(unit_source, 5))

    def test_identical_rows(self, unit_source, grid3):
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.1, INF], (3, 1)))
        report = max_kl(q, unit_source, grid3)
        assert report.d_max == 0.0
        np.testing.assert_array_equal(report.pairwise, np.zeros((3, 3)))

    def test_two_rows_asymmetric(self, unit_source):
        grid = make_theta_grid(unit_source, 2, "gauss-hermite")
        q = Quantizer(M=2, boundaries=np.array([[-INF, -0.8, INF], [-INF, 0.4, INF]]))
        report = max_kl(q, unit_source, grid)
        assert report.pairwise.shape == (2, 2)
        assert report.pairwise[0, 0] == report.pairwise[1, 1] == 0.0
        assert report.pairwise[0, 1] != report.pairwise[1, 0]
        assert report.d_max == report.pairwise.max()
        assert report.d_max > 0.0  # distinct mass vectors have positive divergence

    def test_similarity_increases_with_privacy_weight(self, unit_source, grid3):
        free = multistart(unit_source, grid3, 2, 0.0)
        constrained = multistart(unit_source, grid3, 2, 1e6)
        d_free = max_kl(free.quantizer, unit_source, grid3).d_max
        d_constrained = max_kl(constrained.quantizer, unit_source, grid3).d_max
        assert d_constrained < d_free


class TestLloydMax:
    def test_single_level(self, unit_source):
        lm = lloyd_max(unit_source, 1)
        assert lm.distortion == pytest.approx(1.0)
        np.testing.assert_allclose(lm.levels, [0.0])

    def test_zero_levels_rejected(self, unit_source):
        with pytest.raises(ValueError, match="M must be >= 1"):
            lloyd_max(unit_source, 0)

    def test_two_levels(self, unit_source):
        lm = lloyd_max(unit_source, 2)
        np.testing.assert_allclose(lm.boundaries[1], 0.0, atol=1e-12)
        np.testing.assert_allclose(lm.levels, [-0.797885, 0.797885], atol=1e-6)
        assert lm.distortion == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)

    def test_table_anchors(self, unit_source):
        # classical minimum-MSE table for the unit normal
        for M, expected in ((2, 0.3634), (4, 0.1175), (8, 0.0345)):
            assert lloyd_max(unit_source, M).distortion == pytest.approx(expected, abs=1e-4)

    def test_scales_with_variance(self):
        from strategiq import make_source

        src = make_source(2.0, 1.0, 0.0)
        assert lloyd_max(src, 2).distortion == pytest.approx(4.0 * (1 - 2 / math.pi), rel=1e-10)

    def test_replicated_quantizer(self, unit_source, grid3):
        q = lloyd_max_quantizer(unit_source, 4, grid3)
        assert q.M == 4 and q.n_theta == 3
        assert np.ptp(q.interior(), axis=0).max() == 0.0

    @pytest.mark.parametrize("sigma_x", [0.3, 1.0, 2.5])
    def test_cached_quantizer_is_lloyd_max(self, sigma_x, grid3):
        src = make_source(sigma_x, 1.0, 0.0)
        for M in range(1, 17):
            q = lloyd_max_quantizer(src, M, grid3)
            assert q.boundaries.tobytes() == np.tile(lloyd_max(src, M).boundaries, (3, 1)).tobytes()

    def test_cached_row_per_sigma_x_and_read_only(self):
        one, two = _lloyd_max_row(1.0, 4), _lloyd_max_row(2.0, 4)
        assert _lloyd_max_row(1.0, 4) is one
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-9)
        with pytest.raises(ValueError, match="read-only"):
            one[1] = 0.0


class TestLimitIdentities:
    # at the privacy-dominated limit the encoder's fidelity approaches d_d + sigma_theta^2
    @staticmethod
    def _residual(report, source):
        return abs(report.fidelity - (report.d_d + source.sigma_theta**2))

    def test_fully_revealing_linear_residual_zero(self, unit_source):
        rep = linear_distortions(unit_source, 0.0, 1e7)
        assert self._residual(rep, unit_source) == pytest.approx(0.0, abs=1e-12)

    def test_design_at_large_lam_small_residual(self, unit_source, grid3):
        res = multistart(unit_source, grid3, 2, 1e7)
        assert self._residual(res.report, unit_source) < 1e-2

    def test_identity_fails_away_from_limit(self, unit_source, grid3):
        res = multistart(unit_source, grid3, 2, 0.0)
        assert self._residual(res.report, unit_source) > 0.1

    def test_linear_equilibrium_large_lam(self, unit_source):
        lam = 1e7
        alpha = optimal_alpha(unit_source, lam)
        rep = linear_distortions(unit_source, alpha, lam)
        assert self._residual(rep, unit_source) < 1e-2

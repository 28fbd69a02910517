"""Quantizer representation, best responses, and exact distortion evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategiq import (
    BestResponses,
    Quantizer,
    distortions,
    evaluate,
    lloyd_max,
    lloyd_max_quantizer,
    make_source,
    make_theta_grid,
    monte_carlo_distortions,
    quantizer_from_dict,
    quantizer_to_dict,
    validate,
)

INF = math.inf


def _rows(*rows):
    return np.array(rows, dtype=float)


def _random_quantizer(rng, n_rows, M, spread=2.0):
    interior = np.sort(rng.uniform(-spread, spread, size=(n_rows, M - 1)), axis=1)
    return Quantizer(M=M, boundaries=np.hstack([
        np.full((n_rows, 1), -INF), interior, np.full((n_rows, 1), INF),
    ]))


class TestValidate:
    def test_canonical_symmetric(self):
        q = Quantizer(M=2, boundaries=_rows([-INF, 0, INF], [-INF, 0, INF]))
        report = validate(q)
        assert report.ok and not report.notes

    def test_non_monotone_row_flagged(self):
        q = Quantizer(M=3, boundaries=_rows([-INF, 1.0, 0.5, INF]))
        report = validate(q)
        assert not report.ok
        assert any("not nondecreasing" in v for v in report.violations)

    def test_coincident_boundaries_ok_with_note(self):
        q = Quantizer(M=3, boundaries=_rows([-INF, 0.3, 0.3, INF]))
        report = validate(q)
        assert report.ok
        assert any("empty" in n for n in report.notes)

    def test_nan_and_shape_flagged(self):
        report = validate(Quantizer(M=3, boundaries=_rows([-INF, 0.0, INF])))
        assert not report.ok
        report = validate(Quantizer(M=2, boundaries=_rows([-INF, math.nan, INF])))
        assert not report.ok


class TestDecoderBestResponse:
    def test_single_cell_gives_prior_mean(self, unit_source, grid17):
        q = Quantizer(M=1, boundaries=np.tile([-INF, INF], (17, 1)))
        y = evaluate(q, unit_source, grid17, 0.0)[0].y
        np.testing.assert_allclose(y, [0.0], atol=1e-12)

    def test_symmetric_split_half_normal_means(self, unit_source, grid17):
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (17, 1)))
        y = evaluate(q, unit_source, grid17, 0.0)[0].y
        half_normal = math.sqrt(2.0 / math.pi)  # = 2*phi(0), conditional mean of |X|
        np.testing.assert_allclose(y, [-half_normal, half_normal], atol=1e-12)

    def test_mixed_boundaries_match_monte_carlo(self, unit_source):
        grid = make_theta_grid(unit_source, 2, "gauss-hermite")  # nodes -1, +1
        q = Quantizer(M=2, boundaries=_rows([-INF, -0.5, INF], [-INF, 0.5, INF]))
        br = evaluate(q, unit_source, grid, 0.0)[0]
        mc = monte_carlo_distortions(q, br, unit_source, grid, 0.0, 1_000_000, seed=5)
        # pooled-centroid optimality: MC distortion with these y's must not be
        # beatable by nudging y (sampled quadratic check)
        for m in range(2):
            for eps in (1e-2, -1e-2):
                y_alt = br.y.copy()
                y_alt[m] += eps
                alt = monte_carlo_distortions(
                    q, BestResponses(y_alt, br.theta_hat, br.cell_mass),
                    unit_source, grid, 0.0, 1_000_000, seed=5,
                )
                assert alt.report.d_d >= mc.report.d_d

    def test_empty_cell_fallback_midpoint(self, unit_source):
        grid = make_theta_grid(unit_source, 2, "gauss-hermite")
        q = Quantizer(M=3, boundaries=_rows([-INF, 0.2, 0.2, INF], [-INF, 0.2, 0.2, INF]))
        y = evaluate(q, unit_source, grid, 0.0)[0].y
        assert y[1] == pytest.approx(0.2)  # midpoint of the collapsed span


class TestEavesdropperBestResponse:
    def test_identical_rows_reveal_nothing(self, unit_source, grid17):
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.7, INF], (17, 1)))
        th = evaluate(q, unit_source, grid17, 0.0)[0].theta_hat
        np.testing.assert_allclose(th, [0.0, 0.0], atol=1e-12)

    def test_message_reveals_theta_exactly(self, unit_source):
        grid = make_theta_grid(unit_source, 2, "gauss-hermite")
        # node -1 always sends message 1, node +1 always message 2
        q = Quantizer(M=2, boundaries=_rows([-INF, INF, INF], [-INF, -INF, INF]))
        th = evaluate(q, unit_source, grid, 0.0)[0].theta_hat
        np.testing.assert_allclose(th, [-1.0, 1.0], atol=1e-12)

    def test_mixed_case_against_monte_carlo(self, unit_source):
        grid = make_theta_grid(unit_source, 2, "gauss-hermite")
        q = Quantizer(M=2, boundaries=_rows([-INF, -0.5, INF], [-INF, 0.5, INF]))
        lam = 1.0
        br = evaluate(q, unit_source, grid, lam)[0]
        mc = monte_carlo_distortions(q, br, unit_source, grid, lam, 1_000_000, seed=17)
        assert abs(mc.report.d_theta - distortions(q, br, unit_source, grid, lam).d_theta) \
            < 3.0 * mc.se_d_theta


class TestDistortions:
    def test_no_information(self, unit_source, grid17):
        q = Quantizer(M=1, boundaries=np.tile([-INF, INF], (17, 1)))
        br, rep = evaluate(q, unit_source, grid17, 0.0)
        assert rep.fidelity == pytest.approx(2.0, abs=1e-10)
        assert rep.d_d == pytest.approx(1.0, abs=1e-12)
        assert rep.d_theta == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_two_level(self, unit_source, grid17):
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (17, 1)))
        _, rep = evaluate(q, unit_source, grid17, 0.0)
        assert rep.d_d == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)
        assert rep.d_d == pytest.approx(0.3634, abs=1e-3)

    def test_eight_level_lloyd_max(self, unit_source, grid17):
        q = lloyd_max_quantizer(unit_source, 8, grid17)
        _, rep = evaluate(q, unit_source, grid17, 0.0)
        assert rep.d_d == pytest.approx(lloyd_max(unit_source, 8).distortion, abs=1e-10)
        assert rep.d_d == pytest.approx(0.0345, abs=1e-3)

    def test_lagrangian_identity_and_negative_lam(self, unit_source, grid17, rng):
        q = _random_quantizer(rng, 17, 3)
        br, rep = evaluate(q, unit_source, grid17, 2.5)
        assert rep.d_e == pytest.approx(rep.fidelity - 2.5 * rep.d_theta, abs=1e-12)
        with pytest.raises(ValueError):
            distortions(q, br, unit_source, grid17, -1.0)

    def test_best_response_perturbation_never_helps(self, unit_source, grid3, rng):
        for _ in range(10):
            q = _random_quantizer(rng, 3, 3)
            br, rep = evaluate(q, unit_source, grid3, 1.0)
            for m in range(q.M):
                for eps in (1e-3, -1e-3):
                    y_alt = br.y.copy()
                    y_alt[m] += eps
                    alt = distortions(
                        q, BestResponses(y_alt, br.theta_hat, br.cell_mass),
                        unit_source, grid3, 1.0,
                    )
                    assert alt.d_d >= rep.d_d - 1e-15
                    th_alt = br.theta_hat.copy()
                    th_alt[m] += eps
                    alt = distortions(
                        q, BestResponses(br.y, th_alt, br.cell_mass),
                        unit_source, grid3, 1.0,
                    )
                    assert alt.d_theta >= rep.d_theta - 1e-15

    def test_closed_forms_match_monte_carlo(self, unit_source, grid3, rng):
        for k in range(5):
            q = _random_quantizer(rng, 3, 4)
            br, rep = evaluate(q, unit_source, grid3, 0.7)
            mc = monte_carlo_distortions(q, br, unit_source, grid3, 0.7, 400_000, seed=100 + k)
            assert abs(mc.report.fidelity - rep.fidelity) < 3.0 * mc.se_fidelity
            assert abs(mc.report.d_d - rep.d_d) < 3.0 * mc.se_d_d
            assert abs(mc.report.d_theta - rep.d_theta) < 3.0 * mc.se_d_theta

    def test_merging_cells_never_helps_decoder(self, unit_source, grid3, rng):
        # coarsening: collapse one interior boundary onto its neighbor in all rows
        for _ in range(10):
            q = _random_quantizer(rng, 3, 4)
            _, rep = evaluate(q, unit_source, grid3, 0.0)
            for col in range(1, q.M):
                b = np.array(q.boundaries)
                b[:, col] = b[:, col + 1] if col < q.M - 1 else b[:, col - 1]
                merged = Quantizer(M=q.M, boundaries=b)
                _, rep_merged = evaluate(merged, unit_source, grid3, 0.0)
                assert rep_merged.d_d >= rep.d_d - 1e-12

    def test_best_response_invariants(self, unit_source, grid17, rng):
        # pooled masses are a distribution; reconstructions stay inside the
        # hulls their centroids are drawn from
        for _ in range(10):
            q = _random_quantizer(rng, 17, 4)
            br = evaluate(q, unit_source, grid17, 0.0)[0]
            assert br.cell_mass.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(br.theta_hat >= grid17.nodes.min() - 1e-12)
            assert np.all(br.theta_hat <= grid17.nodes.max() + 1e-12)
            for m in range(q.M):
                if br.cell_mass[m] < 1e-9:
                    continue
                lo, hi = q.boundaries[:, m].min(), q.boundaries[:, m + 1].max()
                assert lo - 1e-12 <= br.y[m] <= hi + 1e-12

    def test_eavesdropper_never_beaten_by_prior(self, unit_source, grid17, rng):
        for _ in range(10):
            q = _random_quantizer(rng, 17, 3)
            _, rep = evaluate(q, unit_source, grid17, 1.0)
            assert rep.d_theta <= 1.0 + 1e-10

    def test_correlated_source_against_monte_carlo(self, rng):
        src = make_source(1.0, 1.5, 0.6)
        grid = make_theta_grid(src, 5, "gauss-hermite")
        q = _random_quantizer(rng, 5, 3)
        br, rep = evaluate(q, src, grid, 1.2)
        mc = monte_carlo_distortions(q, br, src, grid, 1.2, 500_000, seed=42)
        assert abs(mc.report.fidelity - rep.fidelity) < 3.0 * mc.se_fidelity
        assert abs(mc.report.d_d - rep.d_d) < 3.0 * mc.se_d_d
        assert abs(mc.report.d_theta - rep.d_theta) < 3.0 * mc.se_d_theta


class TestSerialization:
    def test_round_trip(self, unit_source, grid3, rng):
        q = _random_quantizer(rng, 3, 4)
        data = quantizer_to_dict(q, grid3)
        assert data["boundaries"][0][0] == "-inf"
        assert data["boundaries"][0][-1] == "inf"
        q2, nodes = quantizer_from_dict(data)
        assert q2.M == q.M
        np.testing.assert_array_equal(q2.boundaries, q.boundaries)
        np.testing.assert_allclose(nodes, grid3.nodes)

    def test_json_compatible(self, unit_source, grid3, rng):
        import json

        q = _random_quantizer(rng, 3, 2)
        text = json.dumps(quantizer_to_dict(q, grid3))
        q2, _ = quantizer_from_dict(json.loads(text))
        np.testing.assert_array_equal(q2.boundaries, q.boundaries)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_json_round_trip_is_exact(self, data):
        import json

        n_rows = data.draw(st.integers(1, 6), label="n_rows")
        M = data.draw(st.integers(1, 6), label="M")
        edge = st.one_of(
            st.floats(allow_nan=False),  # includes +-inf, -0.0 and subnormals
            st.sampled_from([-1.5, 0.0, 2.0]),  # coincident boundaries
        )
        rows = [
            [-INF, *sorted(data.draw(st.lists(edge, min_size=M - 1, max_size=M - 1))), INF]
            for _ in range(n_rows)
        ]
        q = Quantizer(M=M, boundaries=np.array(rows))
        grid = make_theta_grid(make_source(1.0, 1.0, 0.0), n_rows, "gauss-hermite")
        q2, nodes = quantizer_from_dict(json.loads(json.dumps(quantizer_to_dict(q, grid))))
        assert q2.M == M
        assert q2.boundaries.shape == q.boundaries.shape
        assert q2.boundaries.tobytes() == q.boundaries.tobytes()
        assert nodes.tobytes() == grid.nodes.tobytes()

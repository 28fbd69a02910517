"""Quantizer representation, best responses, and exact distortion evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategiq import (
    MASS_FLOOR,
    BestResponses,
    DistortionReport,
    Quantizer,
    boundary_gradient,
    brute_force_design,
    design,
    distortions,
    evaluate,
    linear_distortions,
    lloyd_max,
    lloyd_max_quantizer,
    make_oracle_grid,
    make_source,
    make_theta_grid,
    monte_carlo_distortions,
    multistart,
    optimal_alpha,
    quantizer_from_dict,
    quantizer_to_dict,
)
from strategiq.gaussian_model import _phi, interval_moments
from strategiq.quantizer_core import _grid_terms, _moment_pass

INF = math.inf


def _rows(*rows):
    return np.array(rows, dtype=float)


def _random_quantizer(rng, n_rows, M, spread=2.0):
    interior = np.sort(rng.uniform(-spread, spread, size=(n_rows, M - 1)), axis=1)
    return Quantizer(M=M, boundaries=np.hstack([
        np.full((n_rows, 1), -INF), interior, np.full((n_rows, 1), INF),
    ]))


class TestValidate:
    """The constructor raises on every malformed quantizer."""

    def test_canonical_symmetric(self):
        q = Quantizer(M=2, boundaries=_rows([-INF, 0, INF], [-INF, 0, INF]))
        assert q.n_theta == 2 and not q.boundaries.flags.writeable

    def test_non_monotone_row_flagged(self):
        with pytest.raises(ValueError, match=r"^row 0: boundaries not nondecreasing$"):
            Quantizer(M=3, boundaries=_rows([-INF, 1.0, 0.5, INF]))
        # before the check, evaluate gave this one cell mass -0.683 and no error
        with pytest.raises(ValueError, match="not nondecreasing"):
            Quantizer(M=3, boundaries=_rows(*[[-INF, 1.0, -1.0, INF]] * 3))

    def test_coincident_boundaries_construct(self):
        # a coincident pair encodes a message that row never sends
        q = Quantizer(M=3, boundaries=_rows([-INF, 0.3, 0.3, INF], [-INF, -INF, 0.0, INF]))
        assert q.M == 3

    def test_nan_and_shape_flagged(self):
        # before the check, M=5 on 3-column rows was evaluated as a 2-message quantizer
        with pytest.raises(ValueError, match=r"shape \(3, 3\) does not match \(n_theta, M\+1\) for M=5"):
            Quantizer(M=5, boundaries=_rows(*[[-INF, 0.0, INF]] * 3))
        with pytest.raises(ValueError, match=r"shape \(3,\) does not match"):
            Quantizer(M=2, boundaries=np.array([-INF, 0.0, INF]))
        with pytest.raises(ValueError, match="^boundaries contain NaN$"):
            Quantizer(M=2, boundaries=_rows([-INF, math.nan, INF]))

    def test_m_below_one(self):
        with pytest.raises(ValueError, match="^M must be >= 1, got 0$"):
            Quantizer(M=0, boundaries=np.empty((3, 1)))

    @pytest.mark.parametrize("m", [2.9, True, "2"], ids=repr)
    def test_m_that_is_no_integer(self, m):
        # before the check, int(M) built 2.9 as M = 2 and True as M = 1
        with pytest.raises(ValueError, match="^M must be an integer, got "):
            Quantizer(M=m, boundaries=_rows([-INF, 0.0, INF]))

    @pytest.mark.parametrize("m", [2, np.int64(2)], ids=repr)
    def test_integral_m_builds(self, m):
        q = Quantizer(M=m, boundaries=_rows([-INF, 0.0, INF]))
        assert q.M == 2 and type(q.M) is int

    def test_open_edges_flagged_at_the_first_offending_row(self):
        good = [-INF, 0.0, INF]
        with pytest.raises(ValueError, match=r"^row 1: first boundary must be -inf, got -5.0$"):
            Quantizer(M=2, boundaries=_rows(good, [-5.0, 0.0, INF], [-INF, 1.0, 0.5]))
        with pytest.raises(ValueError, match=r"^row 2: last boundary must be \+inf, got 5.0$"):
            Quantizer(M=2, boundaries=_rows(good, good, [-INF, 0.0, 5.0]))
        # an offending row's first check wins: its open edge, then its order
        with pytest.raises(ValueError, match=r"^row 0: last boundary"):
            Quantizer(M=2, boundaries=_rows([-INF, 1.0, 0.5], [5.0, 0.0, INF]))


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

    def test_rows_must_match_grid(self, unit_source):
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (3, 1)))
        with pytest.raises(ValueError, match="one row per theta node"):
            evaluate(q, unit_source, make_theta_grid(unit_source, 5), 1.0)

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


def _lloyd_max_pair(source, grid):
    """A valid M=2 quantizer and its best responses, to reach the lam checks."""
    q = lloyd_max_quantizer(source, 2, grid)
    return q, evaluate(q, source, grid, 0.0)[0]


# every public function that takes lam, called on a small valid input
_LAM_ENTRY_POINTS = {
    "evaluate": lambda s, g, lam: evaluate(_lloyd_max_pair(s, g)[0], s, g, lam),
    "distortions": lambda s, g, lam: distortions(*_lloyd_max_pair(s, g), s, g, lam),
    "boundary_gradient": lambda s, g, lam: boundary_gradient(_lloyd_max_pair(s, g)[0], s, g, lam),
    "design": lambda s, g, lam: design(s, g, lam, _lloyd_max_pair(s, g)[0]),
    "multistart": lambda s, g, lam: multistart(s, g, 2, lam),
    "brute_force_design":
        lambda s, g, lam: brute_force_design(s, g, 2, lam, make_oracle_grid(s, 3)),
    "monte_carlo_distortions":
        lambda s, g, lam: monte_carlo_distortions(*_lloyd_max_pair(s, g), s, g, lam, 10, 0),
    "optimal_alpha": lambda s, g, lam: optimal_alpha(s, lam),
    "linear_distortions": lambda s, g, lam: linear_distortions(s, 0.5, lam),
}


@pytest.mark.parametrize("lam, message", [
    (math.nan, "nonnegative"),
    (-1.0, "nonnegative"),
    # at +inf design and multistart would fail in eigh and the others return d_e = -inf
    (math.inf, "finite"),
], ids=["nan", "-1.0", "inf"])
@pytest.mark.parametrize("entry", list(_LAM_ENTRY_POINTS))
def test_every_lam_entry_point_rejects_a_lam_outside_the_domain(
    unit_source, grid3, entry, lam, message
):
    with pytest.raises(ValueError, match=f"^lam must be {message}$"):
        _LAM_ENTRY_POINTS[entry](unit_source, grid3, lam)


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

    def test_from_dict_rejects_a_decreasing_row(self, grid3):
        data = quantizer_to_dict(Quantizer(M=3, boundaries=np.tile([-INF, -1.0, 1.0, INF], (3, 1))),
                                 grid3)
        data["boundaries"][1][1:3] = [1.0, -1.0]
        with pytest.raises(ValueError, match="^row 1: boundaries not nondecreasing$"):
            quantizer_from_dict(data)

    def test_from_dict_rejects_a_numeric_string(self, grid3):
        data = quantizer_to_dict(Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (3, 1))), grid3)
        data["boundaries"][0][1] = "1.5"
        with pytest.raises(ValueError, match="'1.5'"):
            quantizer_from_dict(data)

    @pytest.mark.parametrize("m", [2.9, "2"], ids=repr)
    def test_from_dict_rejects_an_m_that_is_no_integer(self, grid3, m):
        data = quantizer_to_dict(Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (3, 1))), grid3)
        data["M"] = m
        with pytest.raises(ValueError, match="^M must be an integer, got "):
            quantizer_from_dict(data)

    def test_from_dict_rejects_a_node_count_that_is_not_the_row_count(self, grid3):
        data = quantizer_to_dict(Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (3, 1))), grid3)
        data["theta_nodes"] = data["theta_nodes"][:1]
        with pytest.raises(ValueError, match="^1 theta_nodes for 3 boundary rows$"):
            quantizer_from_dict(data)

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


# -- referee: the direct evaluation and gradient --------------------------------
#
# _reference_evaluate and _reference_gradient evaluate a quantizer the direct
# way: interval_moments on the full boundary matrix, a per-message loop for the
# decoder's response, and the conditional density recomputed for the
# gradient.  The moment pass keeps their arithmetic operation for operation,
# so evaluate and boundary_gradient must reproduce them bit for bit; a
# reordered operand shows up here before it shows up as a different descent.


def _reference_pooled_cell_stats(q, source, grid):
    mass, first, second = interval_moments(*source.conditional_params(grid.nodes), q.boundaries)
    w = grid.weights
    wt = w * grid.nodes
    wt2 = w * grid.nodes**2
    return {
        "N": w @ mass,
        "A": w @ first,
        "S": w @ second,
        "T": wt @ mass,
        "B": wt @ first,
        "U": wt2 @ mass,
    }


def _reference_empty_cell_y(q, m):
    lo = q.boundaries[:, m].min()
    hi = q.boundaries[:, m + 1].max()
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    return 0.0


def _reference_distortions_from_stats(stats, y, theta_hat, lam):
    n, t, u = stats["N"], stats["T"], stats["U"]
    d_d = float(stats["S"].sum() - 2.0 * (y @ stats["A"]) + (y * y) @ n)
    u_sum = float(u.sum())
    fidelity = d_d + 2.0 * float(stats["B"].sum()) + u_sum - 2.0 * float(y @ t)
    d_theta = u_sum - 2.0 * float(theta_hat @ t) + float((theta_hat * theta_hat) @ n)
    return DistortionReport(
        d_e=fidelity - lam * d_theta, fidelity=fidelity, d_d=d_d, d_theta=d_theta
    )


def _reference_evaluate(q, source, grid, lam):
    stats = _reference_pooled_cell_stats(q, source, grid)
    n, a = stats["N"], stats["A"]
    y = np.empty(q.M)
    for m in range(q.M):
        y[m] = a[m] / n[m] if n[m] >= MASS_FLOOR else _reference_empty_cell_y(q, m)
    theta_hat = np.divide(stats["T"], n, out=np.zeros_like(n), where=n >= MASS_FLOOR)
    br = BestResponses(y=y, theta_hat=theta_hat, cell_mass=n)
    return br, _reference_distortions_from_stats(stats, y, theta_hat, lam)


def _reference_row_density(source, grid, points):
    mu_c, sigma_c = source.conditional_params(grid.nodes)
    z = (points - mu_c[:, None]) / sigma_c
    return _phi(z) / sigma_c


def _reference_gradient(b, source, grid, lam, br):
    theta = grid.nodes[:, None]
    f = _reference_row_density(source, grid, b)
    y, theta_hat = br.y, br.theta_hat
    dy, sy = y[1:] - y[:-1], y[1:] + y[:-1]
    dth, sth = theta_hat[1:] - theta_hat[:-1], theta_hat[1:] + theta_hat[:-1]
    direct = dy * (2.0 * (b + theta) - sy) - lam * dth * (2.0 * theta - sth)
    chain = 2.0 * (b * dth - (theta_hat[1:] * y[1:] - theta_hat[:-1] * y[:-1]))
    return grid.weights[:, None] * f * (direct + chain)


def _reference_boundary_gradient(q, source, grid, lam):
    br, _ = _reference_evaluate(q, source, grid, lam)
    grad = _reference_gradient(q.interior(), source, grid, lam, br)
    b = q.boundaries
    grad[(b[:, 1:-1] == b[:, :-2]) | (b[:, 1:-1] == b[:, 2:])] = 0.0
    return grad


def _bits(*values):
    """Byte image of floats and arrays: equal only if every bit is equal."""
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


@st.composite
def _referee_cases(draw):
    """A source with rho in (-1, 1), a grid, lam in {0, 2, 1e5} and a quantizer.

    Its columns are drawn per row, shared by every row (so a far-tail pair
    of them pools a cell below MASS_FLOOR) or repeat the previous column
    (coincident boundaries); values reach the far tails at |b| >= 14.
    """
    n_rows = draw(st.sampled_from([1, 2, 3, 5]))
    M = draw(st.integers(1, 5))
    source = make_source(
        draw(st.floats(0.3, 3.0)),
        draw(st.floats(0.2, 3.0)),
        draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
    )
    value = st.one_of(st.floats(-3.0, 3.0), st.floats(14.0, 40.0), st.floats(-40.0, -14.0))
    columns = []
    for _ in range(M - 1):
        kind = draw(st.sampled_from(["per-row", "shared", "repeat"]))
        if kind == "repeat" and columns:
            columns.append(columns[-1])
        elif kind == "shared":
            columns.append([draw(value)] * n_rows)
        else:
            columns.append([draw(value) for _ in range(n_rows)])
    interior = np.sort(np.array(columns, dtype=float).reshape(M - 1, n_rows).T, axis=1)
    edges = np.full((n_rows, 1), INF)
    q = Quantizer(M=M, boundaries=np.hstack([-edges, interior, edges]))
    lam = draw(st.sampled_from([0.0, 2.0, 1e5]))
    return source, make_theta_grid(source, n_rows, "gauss-hermite"), q, lam


class TestMomentPassReferee:
    @settings(max_examples=300, deadline=None)
    @given(case=_referee_cases())
    def test_evaluate_and_gradient_match_reference_bitwise(self, case):
        source, grid, q, lam = case
        br, rep = evaluate(q, source, grid, lam)
        ref_br, ref_rep = _reference_evaluate(q, source, grid, lam)
        assert _bits(br.y, br.theta_hat, br.cell_mass) == _bits(
            ref_br.y, ref_br.theta_hat, ref_br.cell_mass
        )
        assert _bits(rep.d_e, rep.fidelity, rep.d_d, rep.d_theta) == _bits(
            ref_rep.d_e, ref_rep.fidelity, ref_rep.d_d, ref_rep.d_theta
        )
        grad = boundary_gradient(q, source, grid, lam)
        assert _bits(grad) == _bits(_reference_boundary_gradient(q, source, grid, lam))
        # the pooled sums themselves, so a change below the distortions' rounding shows
        sums = _moment_pass(q.interior(), _grid_terms(source, grid, q.n_theta), lam)[0]
        ref_stats = _reference_pooled_cell_stats(q, source, grid)
        assert _bits(*sums) == _bits(*(ref_stats[k] for k in "NASTBU"))

    def test_empty_cell_fallback_matches_reference(self):
        # two shared far-tail columns pool a cell below MASS_FLOOR
        source = make_source(1.0, 1.0, 0.3)
        grid = make_theta_grid(source, 3, "gauss-hermite")
        q = Quantizer(M=4, boundaries=np.tile([-INF, 0.5, 20.0, 25.0, INF], (3, 1)))
        br, _ = evaluate(q, source, grid, 2.0)
        assert br.cell_mass[2] < MASS_FLOOR and br.y[2] == 22.5
        assert _bits(br.y) == _bits(_reference_evaluate(q, source, grid, 2.0)[0].y)

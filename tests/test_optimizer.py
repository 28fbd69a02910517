"""Gradient correctness, the increment variables, and the descent loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategiq import (
    MASS_FLOOR,
    OptimOptions,
    Quantizer,
    boundary_gradient,
    design,
    design_result_to_dict,
    evaluate,
    lloyd_max,
    lloyd_max_quantizer,
    make_source,
    make_theta_grid,
    max_kl,
    multistart,
    random_monotone_quantizer,
)
from strategiq.optimizer import (
    STOP_REASONS,
    _analytic_gradient,
    _increment_gradient,
    _row_density,
    _to_boundaries,
    _to_increments,
    _with_edges,
)
from strategiq.quantizer_core import pooled_cell_stats

INF = math.inf


def eavesdropper_chain_term(q, source, grid, lam):
    """The gradient contribution through theta_hat, computed explicitly.

    At the eavesdropper's best response this is identically zero (its loss
    enters d_e with its own minimizer), which is why the descent's gradient
    has no such term.
    """
    theta_hat = evaluate(q, source, grid, lam)[0].theta_hat
    b = q.interior()
    theta = grid.nodes[:, None]
    f = _row_density(source, grid, b)
    stats = pooled_cell_stats(q, source, grid)
    n, t = stats["N"], stats["T"]
    # d d_e / d theta_hat_k = 2 lam (T_k - theta_hat_k N_k)
    dde = 2.0 * lam * (t - theta_hat * n)
    safe_n = np.where(n >= MASS_FLOOR, n, np.inf)
    left = dde[:-1][None, :] * (theta - theta_hat[:-1][None, :]) / safe_n[:-1][None, :]
    right = dde[1:][None, :] * (theta - theta_hat[1:][None, :]) / safe_n[1:][None, :]
    return grid.weights[:, None] * f * (left - right)


def _separated_random_quantizer(rng, n_rows, M, min_gap=0.05):
    # strict interior separation so finite-difference probes stay monotone
    while True:
        interior = np.sort(rng.uniform(-2.2, 2.2, size=(n_rows, M - 1)), axis=1)
        if M == 2 or np.min(np.diff(interior, axis=1)) > min_gap:
            return Quantizer(M=M, boundaries=np.hstack([
                np.full((n_rows, 1), -INF), interior, np.full((n_rows, 1), INF),
            ]))


class TestGradient:
    def test_symmetric_split_single_node_is_stationary(self, unit_source):
        grid = make_theta_grid(unit_source, 1, "uniform-truncated")
        q = Quantizer(M=2, boundaries=np.array([[-INF, 0.0, INF]]))
        g = boundary_gradient(q, unit_source, grid, 0.0)
        np.testing.assert_allclose(g, 0.0, atol=1e-14)

    def test_symmetric_split_antisymmetric_across_nodes(self, unit_source, grid3):
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (3, 1)))
        g = boundary_gradient(q, unit_source, grid3, 0.0)
        # nodes are (-t, 0, +t) with equal outer weights: gradient mirrors
        assert g[1, 0] == pytest.approx(0.0, abs=1e-14)
        assert g[0, 0] == pytest.approx(-g[2, 0], abs=1e-12)

    def test_matches_finite_differences(self, unit_source, rng):
        cases = 0
        for M in (2, 3, 4):
            for n_nodes in (3, 5):
                grid = make_theta_grid(unit_source, n_nodes, "gauss-hermite")
                for lam in (0.0, 1.0, 5.0):
                    q = _separated_random_quantizer(rng, n_nodes, M)
                    ga = boundary_gradient(q, unit_source, grid, lam, "analytic")
                    gf = boundary_gradient(q, unit_source, grid, lam, "finite-difference")
                    denom = max(float(np.max(np.abs(gf))), 1e-10)
                    assert float(np.max(np.abs(ga - gf))) / denom < 1e-5
                    cases += 1
        assert cases == 18

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_finite_differences_randomly(self, data):
        sigma_x = data.draw(st.floats(0.5, 2.0), label="sigma_x")
        r = data.draw(st.floats(0.5, 2.0), label="r")
        rho = data.draw(st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True), label="rho")
        lam = data.draw(st.floats(0.0, 10.0), label="lam")
        M = data.draw(st.integers(2, 5), label="M")
        src = make_source(sigma_x, r, rho)
        grid = make_theta_grid(src, data.draw(st.integers(1, 5), label="n_nodes"), "gauss-hermite")
        # separated boundaries (gaps of at least 0.05 sigma_x) keep the probes monotone
        rows = []
        for _ in range(grid.n_nodes):
            first = data.draw(st.floats(-2.0, 1.0))
            gaps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=M - 2, max_size=M - 2))
            rows.append([-INF, *(sigma_x * np.cumsum([first, *gaps])), INF])
        q = Quantizer(M=M, boundaries=np.array(rows))
        ga = boundary_gradient(q, src, grid, lam, "analytic")
        gf = boundary_gradient(q, src, grid, lam, "finite-difference")
        # central differences of d_e resolve no better than ~eps * |d_e| / step,
        # so near a stationary draw the error is measured against that scale
        floor = 1e-4 * (sigma_x**2 + (1.0 + lam) * src.sigma_theta**2)
        assert float(np.max(np.abs(ga - gf))) / max(float(np.max(np.abs(gf))), floor) < 1e-5

    def test_decoder_residual_is_theta_hat(self, unit_source, grid17, rng):
        # the chain term through y weighs cell m by E[X + theta | m] - y_m,
        # which the decoder's best response y_m = E[X | m] turns into theta_hat_m
        for M in (2, 3, 5):
            q = _separated_random_quantizer(rng, 17, M)
            b = np.array(q.boundaries)
            if M > 2:
                b[:, 1] = b[:, 2]  # every row skips message 2
            q = Quantizer(M=M, boundaries=b)
            br, _ = evaluate(q, unit_source, grid17, 1.0)
            stats = pooled_cell_stats(q, unit_source, grid17)
            n = stats["N"]
            residual = np.divide(stats["A"] + stats["T"], n, out=br.y.copy(), where=n >= MASS_FLOOR)
            np.testing.assert_allclose(residual - br.y, br.theta_hat, rtol=0, atol=1e-14)

    def test_correlated_source_matches_finite_differences(self, rng):
        src = make_source(1.1, 0.9, -0.45)
        grid = make_theta_grid(src, 4, "gauss-hermite")
        q = _separated_random_quantizer(rng, 4, 3)
        ga = boundary_gradient(q, src, grid, 0.8, "analytic")
        gf = boundary_gradient(q, src, grid, 0.8, "finite-difference")
        assert float(np.max(np.abs(ga - gf))) / max(float(np.max(np.abs(gf))), 1e-10) < 1e-5

    def test_lloyd_max_is_stationary_for_single_node(self, unit_source):
        # lam=0 with theta pinned at 0 reduces to the classical one-player design
        grid = make_theta_grid(unit_source, 1, "uniform-truncated")
        for M in (2, 4, 8):
            lm = lloyd_max(unit_source, M)
            q = Quantizer(M=M, boundaries=lm.boundaries[None, :])
            g = boundary_gradient(q, unit_source, grid, 0.0)
            assert float(np.max(np.abs(g))) < 1e-9

    def test_eavesdropper_chain_term_vanishes(self, unit_source, grid3, rng):
        for lam in (0.0, 1.0, 5.0):
            q = _separated_random_quantizer(rng, 3, 3)
            term = eavesdropper_chain_term(q, unit_source, grid3, lam)
            assert float(np.max(np.abs(term))) < 1e-10

    def test_coincident_boundaries_get_zero_subgradient(self, unit_source, grid3):
        q = Quantizer(M=3, boundaries=np.tile([-INF, 0.4, 0.4, INF], (3, 1)))
        g = boundary_gradient(q, unit_source, grid3, 1.0)
        np.testing.assert_array_equal(g, np.zeros_like(g))


class TestIncrements:
    def test_round_trip(self, unit_source, grid3, rng):
        scale = 1.0 / np.sqrt(grid3.weights)[:, None]
        for M in (2, 3, 5):
            interior = random_monotone_quantizer(unit_source, grid3, M, rng).interior().copy()
            if M > 2:
                interior[1, 1] = interior[1, 0]  # a skipped message
            x = _to_increments(interior, scale)
            assert x.shape == interior.shape
            assert np.all(x[:, 1:] >= 0.0)
            np.testing.assert_allclose(_to_boundaries(x, scale), interior, rtol=0, atol=1e-14)
            if M > 2:
                assert x[1, 1] == 0.0

    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
    def test_gradient_matches_central_differences(self, unit_source, rng, lam):
        grid = make_theta_grid(unit_source, 5, "gauss-hermite")
        scale = 1.0 / np.sqrt(grid.weights)[:, None]
        interior = _separated_random_quantizer(rng, 5, 4).interior().copy()
        interior[2, 1] = interior[2, 0]  # row 2 skips message 2: d = 0 at its bound
        x = _to_increments(interior, scale)

        def d_e(xv):
            q_x = _with_edges(_to_boundaries(xv, scale), 5)
            return evaluate(q_x, unit_source, grid, lam)[1].d_e

        q = _with_edges(_to_boundaries(x, scale), 5)
        br, _ = evaluate(q, unit_source, grid, lam)
        grad = _increment_gradient(
            _analytic_gradient(q.interior(), unit_source, grid, lam, br), scale
        )
        fd = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            e = np.zeros_like(x)
            if idx == (2, 1):
                e[idx] = 1e-7  # one-sided: the bound forbids d < 0
                fd[idx] = (d_e(x + e) - d_e(x)) / 1e-7
            else:
                e[idx] = 1e-5
                fd[idx] = (d_e(x + e) - d_e(x - e)) / 2e-5
        assert x[2, 1] == 0.0 and grad[2, 1] != 0.0
        assert float(np.max(np.abs(grad - fd))) / float(np.max(np.abs(fd))) < 1e-5


class TestDesign:
    def test_two_level_symmetric_start(self, unit_source, grid3):
        init = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (3, 1)))
        res = design(unit_source, grid3, 2, 0.0, OptimOptions(seed=0), init=init)
        assert res.converged and res.stop_reason == "tolerance"
        # at lam=0 the encoder pools theta into its target: it can only do
        # at least as well as the fully-revealing Lloyd-Max baseline on d_e
        lm_q = lloyd_max_quantizer(unit_source, 2, grid3)
        _, lm_rep = evaluate(lm_q, unit_source, grid3, 0.0)
        assert res.report.d_e <= lm_rep.d_e + 1e-12

    def test_trajectory_monotone(self, unit_source, grid3, rng):
        res = design(unit_source, grid3, 3, 1.0, OptimOptions(seed=4, max_iters=2000))
        assert np.all(np.diff(res.trajectory) <= 1e-12)
        assert len(res.trajectory) == res.iterations + 1

    def test_deterministic_given_seed(self, unit_source, grid3):
        a = design(unit_source, grid3, 2, 1.0, OptimOptions(seed=9, max_iters=500))
        b = design(unit_source, grid3, 2, 1.0, OptimOptions(seed=9, max_iters=500))
        np.testing.assert_array_equal(a.quantizer.boundaries, b.quantizer.boundaries)
        assert a.report.d_e == b.report.d_e
        assert a.iterations == b.iterations

    def test_large_lam_approaches_lloyd_max(self, unit_source, grid17):
        res = multistart(unit_source, grid17, 2, 1e7, OptimOptions(seed=0))
        assert res.report.d_d == pytest.approx(0.3634, abs=1e-2)
        spread = float(np.ptp(res.quantizer.interior(), axis=0).max())
        assert spread < 1e-3  # rows nearly identical across theta

    def test_m_one_trivial(self, unit_source, grid3):
        res = design(unit_source, grid3, 1, 2.0, OptimOptions(seed=0))
        assert res.converged and res.iterations == 0
        assert res.report.d_d == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_inputs(self, unit_source, grid3):
        with pytest.raises(ValueError):
            design(unit_source, grid3, 0, 1.0)
        with pytest.raises(ValueError):
            design(unit_source, grid3, 2, -1.0)
        bad = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (2, 1)))
        with pytest.raises(ValueError):
            design(unit_source, grid3, 2, 1.0, init=bad)

    def test_options_validated(self):
        with pytest.raises(ValueError):
            OptimOptions(eps=-1.0)
        with pytest.raises(ValueError):
            OptimOptions(n_restarts=0)

    def test_never_above_init_and_stop_reason_consistent(self, unit_source, rng):
        grid = make_theta_grid(unit_source, 5, "gauss-hermite")
        reasons = set()
        cases = ((2, 0.0, 20_000), (3, 1.0, 20_000), (4, 5.0, 3), (4, 1e5, 20_000))
        for M, lam, max_iters in cases:
            inits = [random_monotone_quantizer(unit_source, grid, M, rng),
                     lloyd_max_quantizer(unit_source, M, grid)]
            for init in inits:
                opts = OptimOptions(max_iters=max_iters)
                res = design(unit_source, grid, M, lam, opts, init=init)
                _, init_rep = evaluate(init, unit_source, grid, lam)
                assert res.report.d_e <= init_rep.d_e
                assert res.trajectory[0] == init_rep.d_e
                assert res.stop_reason in STOP_REASONS
                assert res.converged == (res.stop_reason == "tolerance")
                assert 0.0 <= res.kkt_residual < math.inf
                shifted = res.report.d_e + lam * grid.second_moment()
                if res.converged:
                    assert res.kkt_residual <= opts.eps * max(1.0, shifted)
                else:
                    assert res.kkt_residual > opts.eps * max(1.0, shifted)
                if res.stop_reason == "max_iters":
                    assert res.iterations == max_iters
                reasons.add(res.stop_reason)
        assert {"stalled", "max_iters"} <= reasons


class TestMultistart:
    def test_deterministic(self, unit_source, grid3):
        a = multistart(unit_source, grid3, 2, 1.0, OptimOptions(seed=3, n_restarts=2, max_iters=400))
        b = multistart(unit_source, grid3, 2, 1.0, OptimOptions(seed=3, n_restarts=2, max_iters=400))
        np.testing.assert_array_equal(a.quantizer.boundaries, b.quantizer.boundaries)
        assert a.restart_index == b.restart_index

    def test_more_restarts_never_worse(self, unit_source, grid3):
        one = multistart(unit_source, grid3, 2, 1.0, OptimOptions(seed=6, n_restarts=1, max_iters=400))
        eight = multistart(unit_source, grid3, 2, 1.0, OptimOptions(seed=6, n_restarts=8, max_iters=400))
        assert eight.report.d_e <= one.report.d_e + 1e-15

    def test_lam_zero_single_node_reduces_to_lloyd_max(self, unit_source):
        # independent oracle: the classical fixed-point iteration
        grid = make_theta_grid(unit_source, 1, "uniform-truncated")
        for M in (2, 4, 8):
            res = multistart(unit_source, grid, M, 0.0, OptimOptions(seed=0, n_restarts=2))
            assert abs(res.report.d_d - lloyd_max(unit_source, M).distortion) < 1e-8

    def test_d_kl_max_stable_across_seeds(self, unit_source, grid17):
        # tail rows weigh ~1e-11 in d_e but count fully in d_kl_max, so the
        # metric is seed noise unless the descent converges on them too
        values = [
            max_kl(multistart(unit_source, grid17, 2, 10.0, OptimOptions(seed=seed)).quantizer,
                   unit_source, grid17).d_max
            for seed in range(4)
        ]
        assert max(values) - min(values) < 0.01, values

    def test_stationarity_logged(self, unit_source, grid3):
        res = multistart(unit_source, grid3, 2, 0.5, OptimOptions(seed=1, n_restarts=2))
        g = boundary_gradient(res.quantizer, unit_source, grid3, 0.5)
        print(f"projected gradient norm at convergence: {float(np.linalg.norm(g)):.3g}")


class TestSerialization:
    def test_design_result_dict_schema(self, unit_source, grid3):
        res = design(unit_source, grid3, 2, 0.5, OptimOptions(seed=0, max_iters=300))
        data = design_result_to_dict(res, grid3)
        for key in ("M", "theta_nodes", "boundaries", "y", "theta_hat",
                    "d_e", "fidelity", "d_d", "d_theta", "iterations", "converged"):
            assert key in data
        assert data["M"] == 2
        assert len(data["y"]) == 2
        assert data["boundaries"][0][0] == "-inf"

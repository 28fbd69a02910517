"""Gradient and Hessian correctness, the objective, the increments, and the descent loop."""

import functools
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strategiq import (
    MASS_FLOOR,
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
    solve_equilibrium,
)
from strategiq import linear_equilibrium as linear_module
from strategiq import optimizer
from strategiq.optimizer import (
    _RESOLUTION,
    _SECULAR_RTOL,
    STOP_REASONS,
    _analytic_gradient,
    _bounded_step,
    _closed_form_start,
    _fd_gradient,
    _free_set,
    _certify_stop,
    _hessian,
    _hessian_parts,
    _increment_gradient,
    _to_boundaries,
    _to_increments,
    _with_edges,
)
from strategiq.quantizer_core import _grid_terms, _moment_pass

ROUNDING = 16 * np.finfo(float).eps

INF = math.inf


def _objective(n: np.ndarray, y: np.ndarray, theta_hat: np.ndarray, lam: float, c1: float) -> float:
    """d_e + lam * E_grid[theta^2] at the best responses y, theta_hat to cell masses n.

    The referee for the f that _moment_pass forms, kept as the descent once
    formed it: c1 - sum_m Phi_m with Phi = N (y^2 + 2 y theta_hat - lam theta_hat^2).
    Cells below MASS_FLOOR carry no Phi.
    """
    phi = n * (y * (y + 2.0 * theta_hat) - lam * theta_hat * theta_hat)
    if n.min() < MASS_FLOOR:
        phi = np.where(n >= MASS_FLOOR, phi, 0.0)
    return c1 - float(phi.sum())


def _quantizer_free_total(source, grid) -> float:
    """c1 of _objective: sum_j w_j ((mu_j + theta_j)^2 + sigma_c^2)."""
    mu, sigma = source.conditional_params(grid.nodes)
    return float(grid.weights @ ((mu + grid.nodes) ** 2 + sigma * sigma))


def _f(result, source, grid, lam):
    """The referee's f at a design result's responses."""
    resp = result.responses
    return _objective(resp.cell_mass, resp.y, resp.theta_hat, lam,
                      _quantizer_free_total(source, grid))


def eavesdropper_chain_term(q, source, grid, lam):
    """The gradient contribution through theta_hat, computed explicitly.

    At the eavesdropper's best response this is identically zero (its loss
    enters d_e with its own minimizer), which is why the descent's gradient
    has no such term.
    """
    theta_hat = evaluate(q, source, grid, lam)[0].theta_hat
    b = q.interior()
    theta = grid.nodes[:, None]
    sums, _, _, _, density, _ = _moment_pass(b, _grid_terms(source, grid, grid.n_nodes), lam)
    n, t = sums[0], sums[3]
    # d d_e / d theta_hat_k = 2 lam (T_k - theta_hat_k N_k)
    dde = 2.0 * lam * (t - theta_hat * n)
    safe_n = np.where(n >= MASS_FLOOR, n, np.inf)
    left = dde[:-1][None, :] * (theta - theta_hat[:-1][None, :]) / safe_n[:-1][None, :]
    right = dde[1:][None, :] * (theta - theta_hat[1:][None, :]) / safe_n[1:][None, :]
    return grid.weights[:, None] * density * (left - right)


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
        grid = make_theta_grid(unit_source, 1)
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
                    ga = boundary_gradient(q, unit_source, grid, lam)
                    gf = _fd_gradient(q, unit_source, grid, lam)
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
        ga = boundary_gradient(q, src, grid, lam)
        gf = _fd_gradient(q, src, grid, lam)
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
            terms = _grid_terms(unit_source, grid17, grid17.n_nodes)
            n, a, _, t, _, _ = _moment_pass(q.interior(), terms, 1.0)[0]
            residual = np.divide(a + t, n, out=br.y.copy(), where=n >= MASS_FLOOR)
            np.testing.assert_allclose(residual - br.y, br.theta_hat, rtol=0, atol=1e-14)

    def test_correlated_source_matches_finite_differences(self, rng):
        src = make_source(1.1, 0.9, -0.45)
        grid = make_theta_grid(src, 4, "gauss-hermite")
        q = _separated_random_quantizer(rng, 4, 3)
        ga = boundary_gradient(q, src, grid, 0.8)
        gf = _fd_gradient(q, src, grid, 0.8)
        assert float(np.max(np.abs(ga - gf))) / max(float(np.max(np.abs(gf))), 1e-10) < 1e-5

    def test_lloyd_max_is_stationary_for_single_node(self, unit_source):
        # lam=0 with theta pinned at 0 reduces to the classical one-player design
        grid = make_theta_grid(unit_source, 1)
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

    def test_finite_differences_zero_at_coincident_boundaries(self):
        # the referee skips a probe with no room on one side, so it follows the
        # analytic convention there and agrees with it everywhere else
        src = make_source(1.0, 1.0, 0.3)
        grid = make_theta_grid(src, 3)
        interior = np.array([[-0.8, 0.1, 0.1, 0.9], [-0.5, 0.2, 0.7, 1.2], [-0.3, 0.4, 0.4, 0.4]])
        q = Quantizer(M=5, boundaries=np.hstack([np.full((3, 1), -INF), interior,
                                                 np.full((3, 1), INF)]))
        b = q.boundaries
        coincident = (b[:, 1:-1] == b[:, :-2]) | (b[:, 1:-1] == b[:, 2:])
        assert coincident.sum() == 5
        for lam in (0.0, 2.0):
            ga = boundary_gradient(q, src, grid, lam)
            gf = _fd_gradient(q, src, grid, lam)
            assert np.all(ga[coincident] == 0.0) and np.all(gf[coincident] == 0.0)
            error = np.max(np.abs(ga - gf)[~coincident])
            assert error / max(float(np.max(np.abs(gf))), 1e-10) < 1e-5


class TestIncrements:
    def test_round_trip(self, unit_source, grid3, rng):
        for M in (2, 3, 5):
            interior = random_monotone_quantizer(unit_source, grid3, M, rng).interior().copy()
            if M > 2:
                interior[1, 1] = interior[1, 0]  # a skipped message
            x = _to_increments(interior)
            assert x.shape == interior.shape
            assert np.all(x[:, 1:] >= 0.0)
            np.testing.assert_allclose(_to_boundaries(x), interior, rtol=0, atol=1e-14)
            if M > 2:
                assert x[1, 1] == 0.0

    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
    def test_gradient_matches_central_differences(self, unit_source, rng, lam):
        grid = make_theta_grid(unit_source, 5, "gauss-hermite")
        interior = _separated_random_quantizer(rng, 5, 4).interior().copy()
        interior[2, 1] = interior[2, 0]  # row 2 skips message 2: d = 0 at its bound
        x = _to_increments(interior)

        def d_e(xv):
            q_x = _with_edges(_to_boundaries(xv))
            return evaluate(q_x, unit_source, grid, lam)[1].d_e

        b = _to_boundaries(x)
        _, y, theta_hat, _, density, _ = _moment_pass(b, _grid_terms(unit_source, grid, 5), lam)
        grad = _increment_gradient(_analytic_gradient(b, grid, lam, y, theta_hat, density))
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


def _draw_source_and_grid(data, max_nodes=17):
    sigma_x = data.draw(st.floats(0.5, 2.0), label="sigma_x")
    r = data.draw(st.floats(0.5, 2.0), label="r")
    rho = data.draw(st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True), label="rho")
    src = make_source(sigma_x, r, rho)
    grid = make_theta_grid(src, data.draw(st.integers(1, max_nodes), label="n_nodes"))
    return src, grid


def _draw_lam(data):
    exponent = data.draw(st.one_of(st.none(), st.floats(-3.0, 7.0)), label="log10 lam")
    return 0.0 if exponent is None else 10.0**exponent


def _draw_boundaries(data, src, grid, M):
    """Sorted rows around each node's conditional law, with coincident pairs and far tails."""
    mu, sigma = src.conditional_params(grid.nodes)
    rows = []
    for j in range(grid.n_nodes):
        z = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=M - 1, max_size=M - 1))
        row = np.sort(mu[j] + sigma * np.array(z))
        if M > 2 and data.draw(st.booleans(), label="coincident"):
            k = data.draw(st.integers(0, M - 3))
            row[k + 1] = row[k]  # this row skips message k + 1
        if data.draw(st.booleans(), label="far tail"):
            row[-1] = max(row[-1], data.draw(st.floats(14.0, 16.0)))  # |b| >= 14
        rows.append(row)
    b = np.array(rows)
    if data.draw(st.booleans(), label="empty outer cell"):
        # the last cell holds less than MASS_FLOOR in every row
        b[:, -1] = np.maximum(b[:, -1], mu + 8.5 * sigma)
    return b


class TestHessian:
    @staticmethod
    def _gradient(b, grid, lam, trial):
        """The analytic gradient in the increments of b, flattened."""
        return _increment_gradient(
            _analytic_gradient(b, grid, lam, trial[1], trial[2], trial[4])
        ).ravel()

    # derandomized, so that a run of the suite checks the same examples; many
    # more random draws pass the same test
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_central_differences_of_the_gradient(self, data):
        src, grid = _draw_source_and_grid(data)
        lam = _draw_lam(data)
        M = data.draw(st.integers(2, 8), label="M")
        b = _draw_boundaries(data, src, grid, M)
        x = _to_increments(b)  # a coincident pair is an increment at its bound 0
        terms = _grid_terms(src, grid, grid.n_nodes)
        trial = _moment_pass(b, terms, lam)
        full = trial[0][0] >= MASS_FLOOR
        grad = _analytic_gradient(b, grid, lam, trial[1], trial[2], trial[4])
        model, _ = _hessian(_hessian_parts(b, grid, lam, trial))
        np.testing.assert_array_equal(model, model.T)
        # the model leaves out the density slope's term of each boundary's
        # second derivative, -(b - mu) / sigma_c^2 times its gradient; added
        # back, as a block per row in the increments, it gives the exact Hessian
        slope = -(b - terms.mu) / terms.sigma**2 * grad
        n_rows, k = b.shape
        every, within = np.arange(n_rows), np.arange(k)
        H = model.copy()
        H.reshape(n_rows, k, n_rows, k)[every, :, every, :] += _increment_gradient(slope)[
            :, np.maximum.outer(within, within)]

        # columns whose probes change which cells are below MASS_FLOOR have no
        # derivative; nor do rows that sum a boundary next to an empty
        # interior cell, whose reconstruction (its span's midpoint) moves with
        # the boundaries
        P = b.size
        fd = np.zeros((P, P))
        cols = np.ones(P, dtype=bool)
        # a probe moves a cell's mass N by up to 2 h w f: keep that far below
        # N, where the third derivatives of 1/N terms stay small
        wf = grid.weights[:, None] * trial[4]
        h = 1e-5 * terms[1]
        if wf.max() > 0.0:  # (all densities can underflow: then every entry is 0)
            h = min(h, 1e-3 * trial[0][0][full].min() / wf.max())
        assume(h >= 1e-9 * terms[1])
        for p in range(P):
            # central differences at steps h and h/2, Richardson-extrapolated
            central = []
            for step in (h, 0.5 * h):
                e = np.zeros(P)
                e[p] = step
                e = e.reshape(b.shape)
                b_up, b_down = _to_boundaries(x + e), _to_boundaries(x - e)
                up, down = _moment_pass(b_up, terms, lam), _moment_pass(b_down, terms, lam)
                if np.any((up[0][0] >= MASS_FLOOR) != full) or np.any(
                    (down[0][0] >= MASS_FLOOR) != full
                ):
                    cols[p] = False
                    break
                diff = self._gradient(b_up, grid, lam, up) - self._gradient(b_down, grid, lam, down)
                central.append(diff / (2.0 * step))
            if cols[p]:
                fd[:, p] = (4.0 * central[1] - central[0]) / 3.0
        empty_inner = ~full
        empty_inner[[0, -1]] = False
        next_to_empty = np.broadcast_to(empty_inner[:-1] | empty_inner[1:], b.shape)
        rows = _increment_gradient(next_to_empty.astype(float)).ravel() == 0.0
        # each row of fd differentiates one gradient entry, a sum of boundary
        # entries: compare it at its own scale, above what the probes can
        # resolve.  A boundary entry's terms are of size
        # w f (1 + lam) (1 + |b| + |theta| + |y|)^2 and may cancel, and the
        # responses of a cell of mass N carry an absolute rounding of about
        # eps (sigma_c + |theta| + |mu|) / N (its first moments are
        # differences of densities)
        eps = np.finfo(float).eps
        y_max = np.abs(trial[1]).max()
        size = (wf * (1.0 + lam) * (1.0 + np.abs(b) + np.abs(grid.nodes)[:, None] + y_max) ** 2)
        size = _increment_gradient(size).ravel()
        mu = terms[0]
        smallest = trial[0][0][full].min()
        resolution = 8 * eps * (terms[1] + np.abs(grid.nodes).max() + np.abs(mu).max()) / smallest
        for q in np.flatnonzero(rows):
            scale = max(np.abs(H[q, cols]).max(initial=0.0), np.abs(fd[q, cols]).max(initial=0.0))
            # (entries near the subnormal range keep only a few digits)
            floor = (1e-13 + resolution) * size[q] / h + 1e8 * np.finfo(float).tiny
            assert np.abs(H[q, cols] - fd[q, cols]).max(initial=0.0) <= 1e-6 * scale + floor, q


    def test_assembly_from_the_parts_is_the_one_pass_assembly_bit_for_bit(self, monkeypatch):
        # every step is solved on _hessian's matrix: from the shared parts it
        # must be the one-pass assembly's, bit for bit, at every point a
        # descent visits, so that every step stays the same
        visited = []
        real_parts = optimizer._hessian_parts
        monkeypatch.setattr(optimizer, "_hessian_parts",
                            lambda *args: visited.append(args) or real_parts(*args))
        cases = [(params, n_nodes, M, lam) for params in ((1.0, 1.0, 0.0), (1.0, 1.3, 0.9))
                 for n_nodes in (17, 33) for M in (2, 8) for lam in (0.0, 2.0, 1e5)]
        # rows that take steps, so the points after each step are checked too
        cases += [((1.0, 1.3, 0.9), 5, 8, 0.0), ((1.0, 1.3, 0.9), 3, 4, 0.5),
                  ((1.0, 1.3, -0.8), 9, 6, 1e7)]
        for params, n_nodes, M, lam in cases:
            source = make_source(*params)
            multistart(source, make_theta_grid(source, n_nodes), M, lam)
        assert len(visited) > len(cases)
        for b, grid, lam, trial in visited:
            H, rows = _hessian(real_parts(b, grid, lam, trial))
            expected_H, expected_rows = _one_pass_hessian(b, grid, lam, trial)
            assert H.tobytes() == expected_H.tobytes()
            assert rows.tobytes() == expected_rows.tobytes()


def _one_pass_hessian(b, grid, lam, trial):
    """The reference for _hessian: its formulas in one function, from b and the moment pass.

    The cell rows are mapped to the increments before they are scaled, and
    the matrix is L^T H_b L, L the per-row cumulative sum.
    """
    sums, y, theta_hat, _, density, _ = trial
    n_rows, k = b.shape
    theta = grid.nodes[:, None]
    wf = grid.weights[:, None] * density
    diag = 2.0 * wf * ((y[1:] - y[:-1]) + (theta_hat[1:] - theta_hat[:-1]))
    t_lo, t_hi = wf * (theta - theta_hat[:-1]), wf * (theta - theta_hat[1:])
    rows = np.zeros((2, k + 1, n_rows, k))
    cols = np.arange(k)
    rows[0, cols, :, cols] = (wf * (b - y[:-1]) + t_lo).T
    rows[0, cols + 1, :, cols] = -(wf * (b - y[1:]) + t_hi).T
    rows[1, cols, :, cols] = t_lo.T
    rows[1, cols + 1, :, cols] = -t_hi.T
    rows = _increment_gradient(rows)
    n = sums[0]
    weight = np.sqrt(np.divide(2.0, n, out=np.zeros_like(n), where=n >= MASS_FLOOR))[:, None]
    a = rows[0].reshape(k + 1, -1) * weight
    t = rows[1].reshape(k + 1, -1) * (np.sqrt(1.0 + lam) * weight)
    H = t.T @ t - a.T @ a
    tail = _increment_gradient(diag)[:, np.maximum.outer(cols, cols)]
    every = np.arange(n_rows)
    H.reshape(n_rows, k, n_rows, k)[every, :, every, :] += tail
    return H, rows

@st.composite
def _subproblems(draw):
    """A trust-region subproblem: symmetric H of size 1..12, gradient g, radius delta.

    H's eigenvalues have magnitudes over six decades.  "definite" keeps them
    positive, "indefinite" negates some, "singular" zeroes some of a positive
    semidefinite H, and "hard" makes the lowest one negative with g
    orthogonal to its eigenvector.  Also returns a right-hand side for the
    correction.
    """
    kind = draw(st.sampled_from(["definite", "indefinite", "singular", "hard"]), label="kind")
    n = draw(st.integers(1 if kind in ("definite", "indefinite") else 2, 12), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigvals = 10.0 ** rng.uniform(-3.0, 3.0, n)
    coefficients = rng.standard_normal(n)
    if kind == "indefinite":
        eigvals[: rng.integers(1, n + 1)] *= -1.0
    elif kind == "singular":
        eigvals[: rng.integers(1, n)] = 0.0
    elif kind == "hard":
        eigvals[0] = -(10.0 ** rng.uniform(-3.0, 3.0))
        coefficients[0] = 0.0
    H = (basis * eigvals) @ basis.T
    g = basis @ coefficients
    delta = 10.0 ** draw(st.floats(-4.0, 4.0), label="log10 delta")
    return kind, 0.5 * (H + H.T), g, delta, rng.standard_normal(n) * 1e-3 * np.linalg.norm(g)


class TestTrustRegionStep:
    # with no bound every variable is free, so the step is the subproblem's
    # solution, checked by More & Sorensen's conditions
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=_subproblems())
    def test_solves_the_subproblem(self, case):
        kind, H, g, delta, r = case
        n = g.size
        x_new, reached, correct = _bounded_step(H, g, np.zeros(n), np.full(n, -INF), delta, {})
        s = x_new
        norm = float(np.linalg.norm(s))
        eigvals = np.linalg.eigvalsh(H)
        scale = float(np.abs(eigvals).max())
        # sigma from s: the least-squares solution of (H + sigma I) s = -g
        sigma = -float(s @ (H @ s + g)) / (norm * norm)
        at_radius = abs(norm / delta - 1.0) <= _SECULAR_RTOL

        assert norm <= delta * (1.0 + _SECULAR_RTOL)
        assert eigvals[0] + sigma >= -_RESOLUTION * scale
        if kind != "hard":
            rounding = _RESOLUTION * (scale * norm + float(np.linalg.norm(g)))
            assert np.linalg.norm((H + sigma * np.eye(n)) @ s + g) <= rounding
        if sigma > _RESOLUTION * scale:
            assert at_radius
        if reached:
            assert at_radius
        else:
            assert sigma <= _RESOLUTION * scale

        shifted = H + sigma * np.eye(n)
        if np.linalg.cond(shifted) <= 1e6:
            expected = -np.linalg.solve(shifted, r)
            x_corrected = correct(r)
            if x_corrected is None:
                # a correction longer than the step is refused
                assert expected @ expected > (1.0 - 1e-6) * norm * norm
            else:
                np.testing.assert_allclose(x_corrected - x_new, expected, rtol=1e-7,
                                           atol=1e-12 * norm)


@st.composite
def _boxed_parts(draw):
    """_hessian_parts' output, a boundary gradient, a point x on the increment box, a radius
    delta and a correction's rhs.

    x has 1..3 rows of 1..4 increments: each row's first is unbounded, each
    later one at its bound 0 or above it.  D > 0 spans six decades.  The cell
    rows are sqrt(D) times normal draws of one size s, so that
    H_b = D^1/2 (I + W^T C W) D^1/2 with W of size s: positive definite for
    most small s, indefinite for most large s.  "empty" zeroes one cell's
    scales, as a cell below MASS_FLOOR has them; "dead" zeroes D, the rows
    and the gradient at a row's first or last boundary, as a density that
    underflows in a tail does.
    """
    n_rows, k = draw(st.integers(1, 3), label="rows"), draw(st.integers(1, 4), label="k")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    D = 10.0 ** rng.uniform(-3.0, 3.0, (n_rows, k))
    size = 10.0 ** draw(st.floats(-2.0, 1.0), label="log10 s")
    rows = rng.standard_normal((2, k + 1, n_rows, k)) * np.sqrt(D) * size
    scale = rng.uniform(0.5, 2.0, (2, k + 1, 1))
    if draw(st.booleans(), label="empty"):
        scale[:, rng.integers(k + 1)] = 0.0
    grad = rng.standard_normal((n_rows, k)) * np.sqrt(D) * 10.0 ** rng.uniform(-3.0, 3.0)
    if draw(st.booleans(), label="dead"):
        j, c = rng.integers(n_rows), rng.choice([0, k - 1])
        D[j, c] = rows[:, :, j, c] = grad[j, c] = 0.0
    lower = np.zeros((n_rows, k))
    lower[:, :1] = -INF
    x = rng.standard_normal((n_rows, k))
    x[:, 1:] = np.where(rng.random((n_rows, k - 1)) < 0.5, 0.0, np.abs(x[:, 1:]))
    delta = 10.0 ** draw(st.floats(-4.0, 4.0), label="log10 delta")
    r = rng.standard_normal(n_rows * k) * 1e-3 * np.linalg.norm(_increment_gradient(grad))
    return (D, rows, scale), grad, x, lower, delta, r


def _counting_eig(monkeypatch):
    """Patch optimizer._eig to append to the returned list once per eigendecomposition."""
    calls = []
    real_eig = optimizer._eig
    monkeypatch.setattr(optimizer, "_eig", lambda *args: calls.append(1) or real_eig(*args))
    return calls


def _model_bound(H, g, x, lower):
    """g_F.H_FF^-1 g_F / 2 on _bounded_step's free set F, from eigh, and H_FF's eigenvalues.

    The bound is None unless H_FF is positive definite.
    """
    free = _free_set(H, g, x, lower)[1]
    eigvals, vecs = np.linalg.eigh(H[np.ix_(free, free)])
    if eigvals.size and eigvals[0] <= 0.0:
        return None, eigvals
    coefficients = vecs.T @ g[free]
    return 0.5 * float(coefficients @ (coefficients / eigvals)), eigvals


def _grouped_model_bound(parts, grad, x, lower):
    """g_F.H_FF^-1 g_F / 2 on _bounded_step's free set F, from eigh on groups of boundaries.

    A held increment ties its two boundaries, so F moves the boundaries by
    groups; with G the P x |F| matrix of their indicators, the model on F is
    that of G^T H_b G = diag(d) + V^T C V, d = G^T D and V = U G.  Scaled by
    d, S = I + W^T C W with W = V d^-1/2, and the bound is q.S^-1 q / 2 with
    q = d^-1/2 G^T grad.  Unlike H_FF in the increments, which adds a row's D
    from each boundary on, no D of 1e-300 is added to one of 1.  None unless
    S is positive definite; every D must be > 0.
    """
    D, rows, scale = parts
    M = scale.shape[1]
    free = _free_set(_hessian(parts)[0], _increment_gradient(grad).ravel(), x, lower)[1]
    assert free.reshape(D.shape)[:, 0].all()  # each row starts a group
    G = np.eye(free.sum())[np.cumsum(free) - 1]
    root = np.sqrt(D.ravel() @ G)
    W = (rows.reshape(2, M, -1) * scale).reshape(2 * M, -1) @ G / root
    S = np.eye(root.size) + W.T @ (np.repeat([-1.0, 1.0], M)[:, None] * W)
    eigvals, vecs = np.linalg.eigh(S)
    if eigvals[0] <= 0.0:
        return None
    coefficients = vecs.T @ (grad.ravel() @ G / root)
    return 0.5 * float(coefficients @ (coefficients / eigvals))


# promises around a model bound v: v itself, within 1e-6 of it, and decades away
_PROMISE_FACTORS = (1.0, 1.0 - 1e-6, 1.0 + 1e-6, *10.0 ** np.arange(-3.0, 3.5, 0.5))


class TestStopCertificate:
    # the descent stops without H or eigh when _certify_stop says that no
    # step _bounded_step can take lowers the model by more than the promise
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=_boxed_parts())
    def test_a_certified_stop_bounds_the_step_and_its_correction(self, case):
        parts, grad, x, lower, delta, r = case
        H, g = _hessian(parts)[0], _increment_gradient(grad).ravel()
        bound, eigvals = _model_bound(H, g, x, lower)
        scale = float(np.abs(eigvals).max(initial=1.0))
        v = bound if bound is not None else 0.5 * float(g @ g) / scale
        promises = [v * factor for factor in _PROMISE_FACTORS]
        if eigvals.size and eigvals[0] < -1e-9 * scale:
            # an indefinite H_FF bounds no step
            assert not any(_certify_stop(parts, grad, x, lower, p) for p in promises)
            return
        x_new, _, correct = _bounded_step(H, g, x, lower, delta, {})
        decreases = []
        for point in (x_new, correct(r)):
            if point is not None:
                s = (point - x).ravel()
                decreases.append((-(g @ s + 0.5 * s @ (H @ s)), abs(g @ s) + abs(s @ (H @ s))))
        for promise in promises:
            if _certify_stop(parts, grad, x, lower, promise):
                for decrease, size in decreases:
                    assert decrease <= promise + 1e-9 * (promise + size)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=_boxed_parts())
    def test_agrees_with_the_bound_away_from_its_rounding(self, case):
        parts, grad, x, lower = case[:4]
        H, g = _hessian(parts)[0], _increment_gradient(grad).ravel()
        bound, eigvals = _model_bound(H, g, x, lower)
        assume(bound is not None and (eigvals.size == 0 or eigvals[0] > 1e-9 * eigvals[-1]))
        for factor in _PROMISE_FACTORS:
            promise = bound * factor if bound > 0.0 else factor
            if abs(promise - bound) > 1e-7 * bound:
                assert _certify_stop(parts, grad, x, lower, promise) == (bound < promise), factor

    def test_agrees_with_the_bound_at_the_descents_points(self, monkeypatch):
        # at these points tail rows have D down to 1e-200 and H_FF in the
        # increments is singular to rounding, so the bound is taken on the
        # boundaries' groups (_grouped_model_bound)
        points = []
        real_certify = optimizer._certify_stop
        monkeypatch.setattr(optimizer, "_certify_stop",
                            lambda *args: points.append(args[:4]) or real_certify(*args))
        for params in ((1.0, 1.0, 0.0), (1.0, 1.3, 0.9)):
            source = make_source(*params)
            for n_nodes in (17, 33):
                grid = make_theta_grid(source, n_nodes)
                for M in (2, 8):
                    for lam in (0.0, 2.0, 1e5):
                        multistart(source, grid, M, lam)
        compared = 0
        for parts, grad, x, lower in points:
            if not (parts[0] > 0.0).all():
                continue  # _grouped_model_bound scales by every group's D
            bound = _grouped_model_bound(parts, grad, x, lower)
            assert bound is not None
            compared += 1
            for factor in _PROMISE_FACTORS:
                promise = bound * factor
                if abs(promise - bound) > 1e-7 * bound:
                    assert real_certify(parts, grad, x, lower, promise) == (bound < promise)
        assert compared >= 20

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_boxed_parts())
    def test_boundaries_that_carry_nothing_change_no_answer(self, case):
        # a theta row whose w f underflows to 0, as in a fine grid's tails, has
        # D, its U columns and its gradient exactly 0: it adds nothing to the model
        parts, grad, x, lower = case[:4]
        D, rows, scale = parts
        H, g = _hessian(parts)[0], _increment_gradient(grad).ravel()
        bound, eigvals = _model_bound(H, g, x, lower)
        v = bound if bound is not None else 0.5 * float(g @ g) / float(
            np.abs(eigvals).max(initial=1.0))
        padded = ((np.insert(D, 0, 0.0, axis=0), np.insert(rows, 0, 0.0, axis=2), scale),
                  np.insert(grad, 0, 0.0, axis=0), np.insert(x, 0, x[-1], axis=0),
                  np.insert(lower, 0, lower[-1], axis=0))
        for factor in _PROMISE_FACTORS:
            assert (_certify_stop(*padded, v * factor)
                    == _certify_stop(parts, grad, x, lower, v * factor)), factor

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_a_nan_or_a_nonpositive_d_never_certifies(self, k):
        # with a D < 0, M positive eigenvalues of the capacitance would leave
        # H_b one negative eigenvalue: the inertia count needs every D > 0
        rng = np.random.default_rng(k)
        D = 10.0 ** rng.uniform(-1.0, 1.0, (1, k))
        rows = rng.standard_normal((2, k + 1, 1, k)) * 1e-2
        scale = rng.uniform(0.5, 2.0, (2, k + 1, 1))
        grad, x, lower = rng.standard_normal((1, k)), np.zeros((1, k)), np.full((1, k), -INF)
        parts = [D, rows, scale, grad]
        assert _certify_stop(tuple(parts[:3]), grad, x, lower, 1e300)
        for which, array in enumerate(parts):
            for i in range(array.size):
                broken = list(parts)
                broken[which] = array.copy()
                broken[which].flat[i] = np.nan
                assert not _certify_stop(tuple(broken[:3]), broken[3], x, lower, 1e300), (which, i)
        for i in range(k):
            for value in (0.0, -D.flat[i]):
                broken = D.copy()
                broken.flat[i] = value
                assert not _certify_stop((broken, rows, scale), grad, x, lower, 1e300), (i, value)

    @pytest.mark.parametrize("D", [1.0, 3.0, 0.7, 1e-300, 5e300])
    def test_a_model_singular_to_rounding_never_certifies(self, D):
        # H_b = D - a^2 with a = sqrt(D) is 0 or an ulp of D, and the
        # capacitance's eigenvalue -1 + a^2 / D is 0 or an ulp of 1
        rows = np.zeros((2, 2, 1, 1))
        rows[0, 0] = math.sqrt(D)
        parts = (np.array([[D]]), rows, np.ones((2, 2, 1)))
        x, lower = np.zeros((1, 1)), np.full((1, 1), -INF)
        for g in (1.0, 1e-150, 0.0):
            for promise in (1e-300, 1.0, 1e300):
                assert not _certify_stop(parts, np.array([[g * D]]), x, lower, promise), (g, promise)

    @pytest.mark.parametrize("params, n_nodes, M, lam", [
        ((1.0, 1.3, 0.9), 33, 8, 2.0), ((1.0, 1.3, 0.9), 65, 16, 2.0), ((1.0, 1.0, 0.0), 65, 32, 0.0),
    ])
    def test_a_stationary_start_on_a_fine_grid_pays_no_eigh(self, monkeypatch, params, n_nodes,
                                                           M, lam):
        # H_FF is singular to rounding at these starts: D falls to 1e-300 in tail rows
        eighs = _counting_eig(monkeypatch)
        source = make_source(*params)
        res = multistart(source, make_theta_grid(source, n_nodes), M, lam)
        assert (res.iterations, res.stop_reason, len(eighs)) == (0, "tolerance", 0)

    def test_results_are_those_of_eighs_stop_test(self, monkeypatch):
        # with the certificate forced to fall through, every stop is decided
        # by the step's own model decrease, as before the certificate
        eighs = _counting_eig(monkeypatch)

        def census():
            cases = [(params, n_nodes, M, lam) for params in ((1.0, 1.0, 0.0), (1.0, 1.3, 0.9))
                     for n_nodes in (5, 17) for M in (2, 4, 8) for lam in (0.0, 2.0, 1e5)]
            # a certificate 10 times looser stops this row one step early
            cases.append(((1.0, 1.3, 0.9), 3, 4, 0.5))
            rows = []
            for params, n_nodes, M, lam in cases:
                source = make_source(*params)
                res = multistart(source, make_theta_grid(source, n_nodes), M, lam)
                rows.append((res.quantizer.boundaries.tobytes(), res.report, res.f,
                             res.iterations, res.evals, res.stop_reason, res.kkt_residual,
                             res.trajectory.tobytes()))
            return rows

        certified = census()
        certified_eighs = len(eighs)
        monkeypatch.setattr(optimizer, "_certify_stop", lambda *args: False)
        eighs.clear()
        assert census() == certified
        assert certified_eighs < len(eighs)

    def test_debug_line_counts_the_eigendecompositions(self, unit_source, grid17, monkeypatch,
                                                       caplog):
        eighs = _counting_eig(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="strategiq.optimizer")
        stepping = make_source(1.0, 1.3, 0.9)
        # a stationary start pays no eigh; this 5-node row takes 10 steps
        for source, grid, steps in ((unit_source, grid17, 0),
                                    (stepping, make_theta_grid(stepping, 5), 10)):
            eighs.clear()
            caplog.clear()
            res = multistart(source, grid, 8, 0.0)
            assert res.iterations == steps
            (line,) = [m for m in caplog.messages if m.startswith("design")]
            assert f" eigh={len(eighs)} " in line
            assert (len(eighs) == 0) == (steps == 0)


class TestObjective:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_equals_shifted_d_e_without_cancellation(self, data):
        src, grid = _draw_source_and_grid(data)
        lam = _draw_lam(data)
        M = data.draw(st.integers(2, 8), label="M")
        mu, sigma = src.conditional_params(grid.nodes)
        b = np.sort(mu[:, None] + sigma * np.array(
            data.draw(st.lists(st.floats(-3.0, 3.0), min_size=(M - 1) * grid.n_nodes,
                               max_size=(M - 1) * grid.n_nodes))
        ).reshape(grid.n_nodes, M - 1), axis=1)
        trial = _moment_pass(b, _grid_terms(src, grid, grid.n_nodes), lam)
        f = trial.f
        assert f == _objective(trial.sums[0], trial.y, trial.theta_hat, lam,
                               _quantizer_free_total(src, grid))

        # d_e + lam E_grid[theta^2] from the same sums in extended precision.
        # sum_m U_m is E_grid[theta^2], so the lam-sized totals cancel exactly;
        # in float64 they cancel to about lam * 1e-16
        n, a, s, t, bx, u = (v.astype(np.longdouble) for v in trial[0])
        full = n >= MASS_FLOOR
        y = np.where(full, a / np.where(full, n, 1), trial[1].astype(np.longdouble))
        theta_hat = np.where(full, t / np.where(full, n, 1), 0)
        fidelity = (s - 2 * y * a + y * y * n + 2 * bx + u - 2 * y * t).sum()
        reference = fidelity + np.longdouble(lam) * (2 * theta_hat * t - theta_hat**2 * n).sum()
        assert abs(np.longdouble(f) - reference) <= 1e-14 * max(1.0, abs(f))
        shifted = trial[3][0] + lam * grid.second_moment()
        assert abs(f - shifted) <= 1e-14 * max(1.0, abs(f)) + 64 * np.finfo(float).eps * lam * (
            grid.second_moment()
        )

    def test_result_f_is_the_referee(self, unit_source):
        grid = make_theta_grid(unit_source, 5, "gauss-hermite")
        init = random_monotone_quantizer(unit_source, grid, 4, np.random.default_rng(3))
        direct = design(unit_source, grid, 2.0, init=init)
        assert direct.f == _f(direct, unit_source, grid, 2.0)
        for lam in (2.0, 1e7):
            res = multistart(unit_source, grid, 3, lam)
            assert res.f == _f(res, unit_source, grid, lam)


class TestStopping:
    @pytest.mark.parametrize("lam", [1e5, 1e7])
    def test_restarts_end_stationary(self, unit_source, grid17, lam):
        rng = np.random.default_rng(0)
        for M in (2, 3):
            inits = [random_monotone_quantizer(unit_source, grid17, M, rng) for _ in range(4)]
            inits.append(lloyd_max_quantizer(unit_source, M, grid17))
            for init in inits:
                res = design(unit_source, grid17, lam, init=init)
                assert res.kkt_residual <= 1e-8, (M, res.stop_reason)
        res = design(unit_source, grid17, lam, init=lloyd_max_quantizer(unit_source, 8, grid17))
        assert res.converged and res.kkt_residual <= 1e-8

    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_m8_restarts_stop_by_tolerance(self, unit_source, grid17, lam):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            inits = [random_monotone_quantizer(unit_source, grid17, 8, rng) for _ in range(2)]
            inits.append(lloyd_max_quantizer(unit_source, 8, grid17))
            for init in inits:
                res = design(unit_source, grid17, lam, init=init)
                assert res.stop_reason == "tolerance", (seed, res.stop_reason)

    def test_cap_under_the_bound_is_a_stop_by_tolerance(self, unit_source, grid17, monkeypatch):
        # the cap ends this run with the gradient under the bound, while the
        # model still promises a decrease that the full run goes on to take
        init = lloyd_max_quantizer(unit_source, 3, grid17)
        full = design(unit_source, grid17, 2.0, init=init)
        monkeypatch.setattr(optimizer, "_MAX_ITERS", 9)
        res = design(unit_source, grid17, 2.0, init=init)
        assert res.iterations == 9 < full.iterations
        assert res.stop_reason == "tolerance" and res.kkt_residual <= 1e-9

    @pytest.mark.parametrize("M", [1, 2, 8])
    def test_the_one_start_has_index_zero(self, unit_source, grid17, M):
        assert multistart(unit_source, grid17, M, 1e7).restart_index == 0


class TestDesign:
    def test_two_level_symmetric_start(self, unit_source, grid3):
        init = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (3, 1)))
        res = design(unit_source, grid3, 0.0, init=init)
        assert res.converged and res.stop_reason == "tolerance"
        # at lam=0 the encoder pools theta into its target: it can only do
        # at least as well as the fully-revealing Lloyd-Max baseline on d_e
        lm_q = lloyd_max_quantizer(unit_source, 2, grid3)
        _, lm_rep = evaluate(lm_q, unit_source, grid3, 0.0)
        assert res.report.d_e <= lm_rep.d_e + 1e-12

    def test_trajectory_monotone(self, unit_source, grid3, rng):
        init = random_monotone_quantizer(unit_source, grid3, 3, np.random.default_rng(4))
        res = design(unit_source, grid3, 1.0, init=init)
        assert np.all(np.diff(res.trajectory) <= 1e-12)
        assert len(res.trajectory) == res.iterations + 1

    def test_deterministic_given_seed(self, unit_source, grid3):
        def run():
            init = random_monotone_quantizer(unit_source, grid3, 2, np.random.default_rng(9))
            return design(unit_source, grid3, 1.0, init)

        a, b = run(), run()
        np.testing.assert_array_equal(a.quantizer.boundaries, b.quantizer.boundaries)
        assert a.report.d_e == b.report.d_e
        assert a.iterations == b.iterations

    def test_large_lam_approaches_lloyd_max(self, unit_source, grid17):
        res = multistart(unit_source, grid17, 2, 1e7)
        assert res.report.d_d == pytest.approx(0.3634, abs=1e-2)
        spread = float(np.ptp(res.quantizer.interior(), axis=0).max())
        assert spread < 1e-3  # rows nearly identical across theta

    def test_start_through_a_near_empty_cell_meets_the_tolerance(self):
        # on the way a cell's mass falls to about 1e-12, and its 2/N-weighted
        # Hessian terms once stalled this descent at f = 7.996, where
        # multistart reaches 0.27087
        source = make_source(1.0, 1.3, -0.8)
        grid = make_theta_grid(source, 3, "gauss-hermite")
        init = random_monotone_quantizer(source, grid, 6, np.random.default_rng(1))
        res = design(source, grid, 1e5, init=init)
        assert res.stop_reason == "tolerance", (res.f, res.kkt_residual)
        assert _f(res, source, grid, 1e5) <= 0.275

    def test_m_one_trivial(self, unit_source, grid3):
        init = random_monotone_quantizer(unit_source, grid3, 1, np.random.default_rng(0))
        res = design(unit_source, grid3, 2.0, init)
        assert res.converged and res.iterations == 0
        assert res.report.d_d == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 2.0, 1e5])
    def test_a_stationary_start_is_the_result(self, unit_source, grid17, lam):
        # a descent that accepts no step returns init, boundaries bit for bit
        init = _closed_form_start(unit_source, grid17, 8, lam)[0]
        res = design(unit_source, grid17, lam, init)
        assert res.iterations == 0 and res.quantizer is init
        row = multistart(unit_source, grid17, 8, lam)
        assert row.iterations == 0
        assert row.quantizer.boundaries.tobytes() == init.boundaries.tobytes()

    def test_rejects_bad_inputs(self, unit_source, grid3):
        # M comes from init, whose constructor checks it (test_counts_are_integers)
        init = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (3, 1)))
        with pytest.raises(ValueError):
            design(unit_source, grid3, -1.0, init)
        bad = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (2, 1)))
        with pytest.raises(ValueError, match="^boundaries must have one row per theta node$"):
            design(unit_source, grid3, 1.0, init=bad)

    def test_never_above_init_and_stop_reason_consistent(self, unit_source, rng, monkeypatch):
        grid = make_theta_grid(unit_source, 5, "gauss-hermite")
        reasons = set()
        terms = _grid_terms(unit_source, grid, grid.n_nodes)
        # a stopping bound of _EPS = 1e-300 (the optimizer's is 1e-9) is out
        # of reach at lam = 0, so that run ends when f stops resolving
        # progress; at lam = 1 the bound is the gradient's rounding,
        # 4 eps lam E_grid[theta^2] = 4.4e-16, which the run may reach
        cases = ((2, 0.0, 20_000, 1e-9), (3, 1.0, 20_000, 1e-9), (4, 5.0, 3, 1e-9),
                 (4, 1e5, 20_000, 1e-9), (4, 1e7, 20_000, 1e-9), (3, 1.0, 20_000, 1e-300),
                 (3, 0.0, 20_000, 1e-300))
        for M, lam, max_iters, eps in cases:
            monkeypatch.setattr(optimizer, "_EPS", eps)
            monkeypatch.setattr(optimizer, "_MAX_ITERS", max_iters)
            inits = [random_monotone_quantizer(unit_source, grid, M, rng),
                     lloyd_max_quantizer(unit_source, M, grid)]
            for init in inits:
                res = design(unit_source, grid, lam, init=init)
                init_rep = evaluate(init, unit_source, grid, lam)[1]
                # f = d_e + lam E[theta^2] is what the descent lowers; d_e's
                # rounding grows with lam
                f_init = _moment_pass(init.interior(), terms, lam).f
                f = res.f
                rounding = 16 * np.finfo(float).eps * max(1.0, abs(f_init))
                assert f <= f_init + rounding
                if lam <= 5.0:
                    assert res.report.d_e <= init_rep.d_e
                assert res.trajectory[0] == init_rep.d_e
                # a step the model promises less than f's rounding for stays
                # within that rounding of the lowest f so far, not of the last
                slack = rounding + 64 * np.finfo(float).eps * lam * grid.second_moment()
                running_low = np.minimum.accumulate(res.trajectory)
                assert np.all(res.trajectory[1:] <= running_low[:-1] + slack)
                assert res.stop_reason in STOP_REASONS
                assert res.converged == (res.stop_reason == "tolerance")
                assert 0.0 <= res.kkt_residual < math.inf
                # the stopping bound: _EPS relative to f, or the gradient's
                # rounding at lam where that is larger
                bound = max(optimizer._EPS * max(1.0, f),
                            4 * np.finfo(float).eps * lam * terms.wt2.sum())
                if res.converged:
                    assert res.kkt_residual <= bound
                else:
                    assert res.kkt_residual > bound
                if res.stop_reason == "max_iters":
                    assert res.iterations == max_iters
                reasons.add(res.stop_reason)
        assert reasons == set(STOP_REASONS)

    def test_evals_count_every_moment_pass(self, unit_source, monkeypatch, caplog):
        grid = make_theta_grid(unit_source, 5, "gauss-hermite")
        passes = []
        real_pass = optimizer._moment_pass

        def counting_pass(*args):
            passes.append(1)
            return real_pass(*args)

        monkeypatch.setattr(optimizer, "_moment_pass", counting_pass)
        caplog.set_level(logging.DEBUG, logger="strategiq.optimizer")
        cases = ((1, 2.0, 20_000), (3, 0.0, 20_000), (4, 2.0, 5), (3, 1e5, 20_000))
        for M, lam, max_iters in cases:
            passes.clear()
            caplog.clear()
            monkeypatch.setattr(optimizer, "_MAX_ITERS", max_iters)
            init = random_monotone_quantizer(unit_source, grid, M, np.random.default_rng(M))
            res = design(unit_source, grid, lam, init)
            assert res.evals == len(passes)
            assert res.evals >= res.iterations + 1
            assert f"iters={res.iterations} evals={res.evals} " in caplog.text
        assert design_result_to_dict(res, grid)["evals"] == res.evals


def _recording_design(monkeypatch):
    """Patch optimizer.design to record (lam, result) of every call."""
    calls = []
    real_design = optimizer.design

    def recording(source, grid, lam, init):
        result = real_design(source, grid, lam, init)
        calls.append((lam, result))
        return result

    monkeypatch.setattr(optimizer, "design", recording)
    return calls


class TestMultistart:
    def test_deterministic(self, unit_source, grid3):
        a = multistart(unit_source, grid3, 2, 1.0)
        b = multistart(unit_source, grid3, 2, 1.0)
        np.testing.assert_array_equal(a.quantizer.boundaries, b.quantizer.boundaries)
        assert a.restart_index == b.restart_index

    def test_lam_zero_single_node_reduces_to_lloyd_max(self, unit_source):
        # independent oracle: the classical fixed-point iteration
        grid = make_theta_grid(unit_source, 1)
        for M in (2, 4, 8):
            res = multistart(unit_source, grid, M, 0.0)
            assert abs(res.report.d_d - lloyd_max(unit_source, M).distortion) < 1e-8

    def test_nan_lam_raises_before_any_descent(self, unit_source, grid3, monkeypatch):
        # a lam=nan once reached a whole lam=0 descent before any check
        def no_descent(*args, **kwargs):
            raise AssertionError("multistart descended at lam=nan")

        monkeypatch.setattr(optimizer, "design", no_descent)
        with pytest.raises(ValueError, match="^lam must be nonnegative$"):
            multistart(unit_source, grid3, 2, math.nan)

    def test_stationarity_logged(self, unit_source, grid3):
        res = multistart(unit_source, grid3, 2, 0.5)
        g = boundary_gradient(res.quantizer, unit_source, grid3, 0.5)
        print(f"projected gradient norm at convergence: {float(np.linalg.norm(g)):.3g}")

    def test_correlated_source_winner_meets_the_tolerance(self):
        # descended at 1e7 directly, every random start here stalls or takes
        # thousands of steps; the closed-form start meets the tolerance and
        # the targets that the best of the random starts once reached
        source = make_source(1.0, 1.3, -0.8)
        grid = make_theta_grid(source, 9, "gauss-hermite")
        for M, f_max in ((6, 0.2708719522), (8, 0.2624371888)):
            res = multistart(source, grid, M, 1e7)
            assert res.stop_reason == "tolerance", M
            assert _f(res, source, grid, 1e7) <= f_max, M

    def test_one_ulp_moves_of_the_winner_stay_converged(self):
        # the gradient at lam = 1e7 rounds at about eps * lam * E[theta^2]; with
        # a bound of eps * max(1, f) alone, 40 of these 100 moves stalled and 2
        # stopped at once
        source = make_source(1.0, 1.3, -0.8)
        grid = make_theta_grid(source, 9, "gauss-hermite")
        winner = multistart(source, grid, 6, 1e7)
        assert winner.converged
        b = winner.quantizer.interior()
        rng = np.random.default_rng(0)
        for _ in range(100):
            moved = np.nextafter(b, rng.choice([-INF, INF], b.shape))
            init = _with_edges(np.maximum.accumulate(moved, axis=1))
            res = design(source, grid, 1e7, init=init)
            assert (res.stop_reason, res.iterations) == ("tolerance", 0), res.kkt_residual

    def test_m_one(self, unit_source, grid17, monkeypatch):
        # the closed-form start is the one-cell quantizer, with no variables:
        # the row is one descent at lam, whose stop the certificate decides
        # before any step is solved
        def no_step(*args):
            raise AssertionError("a step was solved with no variables")

        monkeypatch.setattr(optimizer, "_bounded_step", no_step)
        calls = _recording_design(monkeypatch)
        for lam in (2.0, 1e5):
            calls.clear()
            res = multistart(unit_source, grid17, 1, lam)
            assert [call[0] for call in calls] == [lam], lam
            assert res.stop_reason == "tolerance" and res.iterations == 0
            assert res.restart_index == 0
            assert res.evals == 1
            assert res.quantizer.n_theta == 17
            assert res.report.d_d == pytest.approx(1.0, abs=1e-12)

    def test_roadmap_targets_on_correlated_sources(self):
        # the direct 17-node multistart from random starts reached 1.953373,
        # and 0.270530 at seed 1
        for (r, rho, lam, target) in ((0.5, 0.9, 100.0, 1.9513), (1.3, -0.8, 1e5, 0.262437)):
            source = make_source(1.0, r, rho)
            grid = make_theta_grid(source, 17, "gauss-hermite")
            res = multistart(source, grid, 8, lam)
            assert _f(res, source, grid, lam) <= target, (r, rho, res.f)

    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_m8_d_kl_max_is_finite(self, unit_source, grid17, lam):
        # tail rows weigh ~1e-11 in d_e but count fully in d_kl_max
        value = max_kl(multistart(unit_source, grid17, 8, lam).quantizer, unit_source, grid17).d_max
        assert math.isfinite(value), value

    def test_one_design_from_the_closed_form_start(self, monkeypatch):
        source = make_source(1.0, 0.5, 0.9)
        grid = make_theta_grid(source, 9)
        init = _closed_form_start(source, grid, 4, 2.0)[0]
        direct = design(source, grid, 2.0, init)
        calls = _recording_design(monkeypatch)
        res = multistart(source, grid, 4, 2.0)
        # one descent, from the closed-form start
        ((lam, result),) = calls
        assert lam == 2.0
        assert result.trajectory[0] == evaluate(init, source, grid, 2.0)[1].d_e
        np.testing.assert_array_equal(res.quantizer.boundaries, direct.quantizer.boundaries)
        assert (res.report, res.f, res.iterations, res.evals, res.stop_reason) == (
            direct.report, direct.f, direct.iterations, direct.evals, direct.stop_reason)
        assert res.restart_index == 0

    def test_correlated_row_reaches_the_closed_form(self):
        # random starts, the lam ladder and a 5-node search ended this row at
        # d_e = -16895.1155977, 4.5e-3 above in f, with d_kl_max = inf, while
        # reporting converged; -16895.1377265 is the closed form
        source = make_source(1.0, 1.3, 0.9)
        grid = make_theta_grid(source, 17)
        res = multistart(source, grid, 4, 1e4)
        best = design(source, grid, 1e4, init=_closed_form_start(source, grid, 4, 1e4)[0])
        assert res.converged
        assert res.f <= best.f + ROUNDING * max(1.0, abs(best.f))
        assert res.report.d_e <= -16895.13772
        assert math.isfinite(max_kl(res.quantizer, source, grid).d_max)

    def test_one_debug_line_per_row(self, caplog):
        source = make_source(1.0, 1.3, -0.8)
        grid = make_theta_grid(source, 5)
        caplog.set_level(logging.DEBUG, logger="strategiq.optimizer")
        res = multistart(source, grid, 3, 2.0)
        init, alpha, scale = _closed_form_start(source, grid, 3, 2.0)
        start = _moment_pass(init.interior(), _grid_terms(source, grid, 5), 2.0)
        # the row's line, then its one descent's, which alone evaluates the
        # start; the start is stationary, so the descent pays no eigh
        row, descent = caplog.messages
        assert row == f"multistart M=3 lam=2: alpha*={alpha:.12g} sqrt(v)={scale:.12g}"
        assert descent == (f"design M=3 lam=2: f={start.f:.12g} -> {res.f:.12g} "
                           f"iters={res.iterations} evals={res.evals} eigh=0 "
                           f"stop={res.stop_reason} d_e={res.report.d_e:.9g} "
                           f"kkt_residual={res.kkt_residual:.3g}")

    # 1e3 was the old ladder threshold: above it, random starts climbed a lam
    # ladder and the row was searched on 5 nodes first
    @pytest.mark.parametrize("lam", [0.0, 2.0, 1000.0, 2000.0, 1e5, 1e7])
    def test_every_row_descends_directly(self, unit_source, monkeypatch, lam):
        grid = make_theta_grid(unit_source, 9)
        init = _closed_form_start(unit_source, grid, 3, lam)[0]
        direct = design(unit_source, grid, lam, init)
        calls = _recording_design(monkeypatch)
        res = multistart(unit_source, grid, 3, lam)
        assert [call[0] for call in calls] == [lam]
        assert calls[0][1].quantizer.n_theta == 9
        assert calls[0][1].trajectory[0] == evaluate(init, unit_source, grid, lam)[1].d_e
        np.testing.assert_array_equal(res.quantizer.boundaries, direct.quantizer.boundaries)
        assert (res.report, res.iterations, res.evals) == (
            direct.report, direct.iterations, direct.evals)

    @pytest.mark.parametrize("max_iters", [1, 2, 7, 30])
    def test_the_descent_keeps_the_cap(self, monkeypatch, max_iters):
        # from the closed-form start this 5-node row takes 10 steps uncapped
        source = make_source(1.0, 1.3, 0.9)
        grid = make_theta_grid(source, 5)
        full = multistart(source, grid, 8, 0.0)
        assert (full.iterations, full.stop_reason) == (10, "tolerance")
        monkeypatch.setattr(optimizer, "_MAX_ITERS", max_iters)
        res = multistart(source, grid, 8, 0.0)
        assert res.iterations == min(max_iters, full.iterations)
        assert res.stop_reason == ("tolerance" if max_iters >= full.iterations else "max_iters")
        if max_iters >= full.iterations:
            np.testing.assert_array_equal(res.quantizer.boundaries, full.quantizer.boundaries)

    def test_uncertified_linear_stage_raises_before_any_descent(self, unit_source, grid3,
                                                                monkeypatch):
        # a sign slip in the stage's square root returns the maximizing root,
        # which fails the certificate; no descent may start from it
        def no_descent(*args, **kwargs):
            raise AssertionError("multistart descended from an uncertified alpha*")

        monkeypatch.setattr(optimizer, "design", no_descent)
        sqrt = np.sqrt
        monkeypatch.setattr(linear_module.np, "sqrt", lambda x: -sqrt(x))
        with pytest.raises(ArithmeticError):
            multistart(make_source(1.0, 1.0, 0.3), grid3, 2, 2.0)


def _z_moments(source, alpha):
    """E[Z^2], E[XZ] and E[theta Z] of Z = X + alpha theta."""
    sx, s_t, rho = source.sigma_x, source.sigma_theta, source.rho
    e_xz = sx * sx + alpha * rho * sx * s_t
    e_tz = rho * sx * s_t + alpha * s_t * s_t
    return e_xz + alpha * e_tz, e_xz, e_tz


@functools.cache
def _unit_lloyd_max(M):
    return lloyd_max(make_source(1.0, 1.0, 0.0), M)


def _closed_form_distortions(source, lam, M):
    """(d_e, fidelity, d_d, d_theta) of the continuous game's M-message optimum.

    With the linear stage's alpha*, v = E[Z^2], D_M the Lloyd-Max distortion
    of N(0, 1), s = v (1 - D_M), a = E[XZ] / v and c = E[theta Z] / v:
    d_e = C + (1 - D_M)(d_e^lin - C) with C = E[(X + theta)^2] - lam sigma_theta^2,
    fidelity = E[(X + theta)^2] - (a^2 + 2ac) s, d_d = sigma_x^2 - a^2 s and
    d_theta = sigma_theta^2 - c^2 s.
    """
    sx, s_t, rho = source.sigma_x, source.sigma_theta, source.rho
    eq = solve_equilibrium(source, lam)
    v, e_xz, e_tz = _z_moments(source, eq.alpha)
    d_m = _unit_lloyd_max(M).distortion
    s, a, c = v * (1.0 - d_m), e_xz / v, e_tz / v
    e_xt2 = sx * sx + 2.0 * rho * sx * s_t + s_t * s_t
    babbling = e_xt2 - lam * s_t * s_t
    return (babbling + (1.0 - d_m) * (eq.report.d_e - babbling),
            e_xt2 - (a * a + 2.0 * a * c) * s, sx * sx - a * a * s, s_t * s_t - c * c * s)


class TestClosedFormStart:
    def test_rows_are_the_lloyd_max_quantizer_of_z(self):
        source = make_source(2.0, 0.5, 0.9)
        grid = make_theta_grid(source, 9)
        q, alpha, scale = _closed_form_start(source, grid, 4, 2.0)
        assert alpha == solve_equilibrium(source, 2.0).alpha
        assert scale == pytest.approx(math.sqrt(_z_moments(source, alpha)[0]), rel=1e-15)
        # every row cuts Z = X + alpha* theta at sqrt(v) times N(0, 1)'s thresholds
        z_cuts = q.interior() + alpha * grid.nodes[:, None]
        expected = np.tile(scale * _unit_lloyd_max(4).boundaries[1:-1], (9, 1))
        np.testing.assert_allclose(z_cuts, expected, rtol=0, atol=1e-14)

    # the 129-node grid matches the continuous game wherever Z given theta is
    # wide against the spread of E[Z | theta]; at rho = 0.9, r = 2 and lam = 0
    # its own error is 2.2e-8, so rho stays within 0.85 (at most 2.2e-12 there)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sigma_x=st.floats(0.5, 2.0), r=st.floats(0.5, 2.0), rho=st.floats(-0.85, 0.85),
           lam=st.one_of(st.just(0.0), st.floats(0.0, 1e5)), M=st.sampled_from([2, 3, 8, 16]))
    def test_evaluates_to_the_closed_form_on_129_nodes(self, sigma_x, r, rho, lam, M):
        source = make_source(sigma_x, r, rho)
        grid = make_theta_grid(source, 129)
        q = _closed_form_start(source, grid, M, lam)[0]
        report = evaluate(q, source, grid, lam)[1]
        got = (report.d_e, report.fidelity, report.d_d, report.d_theta)
        for name, value, exact in zip(("d_e", "fidelity", "d_d", "d_theta"), got,
                                      _closed_form_distortions(source, lam, M)):
            assert abs(value - exact) <= 1e-9 * abs(exact), (name, value, exact)


class TestSerialization:
    def test_design_result_dict_schema(self, unit_source, grid3):
        init = random_monotone_quantizer(unit_source, grid3, 2, np.random.default_rng(0))
        res = design(unit_source, grid3, 0.5, init)
        data = design_result_to_dict(res, grid3)
        assert set(data) == {"M", "theta_nodes", "boundaries", "y", "theta_hat",
                             "d_e", "fidelity", "d_d", "d_theta", "iterations", "converged",
                             "stop_reason", "kkt_residual", "evals"}
        assert data["stop_reason"] == res.stop_reason in STOP_REASONS
        assert data["kkt_residual"] == res.kkt_residual
        assert data["evals"] == res.evals >= res.iterations + 1
        json.dumps(data)
        assert data["M"] == 2
        assert len(data["y"]) == 2
        assert data["boundaries"][0][0] == "-inf"

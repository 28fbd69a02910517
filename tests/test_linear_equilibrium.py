"""Closed-form linear stage: moments, optimal coefficient, objective, distortions.

Moments and MMSE responses are read from the kernel itself,
linear_module._terms at lam = 0, and the objective J is linear_distortions(...).d_e.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategiq.linear_equilibrium as linear_module
from strategiq import (
    linear_distortions,
    make_source,
    optimal_alpha,
    solve_equilibrium,
)
from strategiq.cli import SweepConfig, emit, run_sweep

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # root of a^2 + a - 1

# the +-10 offsets around alpha* that optimal_alpha once probed on every call
PROBE_OFFSETS = np.concatenate([-np.logspace(-3, 1, 10)[::-1], np.logspace(-3, 1, 10)])

sources = st.builds(
    make_source,
    st.floats(0.1, 10.0),
    st.floats(0.05, 20.0),
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)
lams = st.floats(0.0, 1e7)


def _random_source(rng):
    return make_source(
        float(rng.uniform(0.3, 3.0)),
        float(rng.uniform(0.2, 4.0)),
        float(rng.uniform(-0.95, 0.95)),
    )


def _quadratic(src, lam, alpha):
    """Stationarity quadratic q(alpha) of the linear stage."""
    r, rho = src.r, src.rho
    return r * (rho + r) * alpha**2 + (1.0 + lam * r**2) * alpha + (lam * rho * r - 1.0)


def _ratio_form(src, alpha, lam):
    """J as constant + P/v, and the size of the largest term either route cancels."""
    t = linear_module._terms(src, np.float64(alpha), 0.0)
    sx, st_, rho = src.sigma_x, src.sigma_theta, src.rho
    constant = sx**2 + (1.0 - lam) * st_**2 + 2.0 * rho * sx * st_
    p = t.c_x**2 - 2.0 * t.c_x * (t.c_x + t.c_s) + lam * t.c_s**2
    rep = linear_distortions(src, alpha, lam)
    scale = max(1.0, abs(rep.fidelity), lam * abs(rep.d_theta), abs(constant), abs(p / t.v))
    return constant + p / t.v, scale


class TestMomentBundle:
    """E[Z^2], E[XZ] and E[theta Z] as the kernel forms them."""

    def test_zero_alpha_is_x_only(self, unit_source):
        t = linear_module._terms(unit_source, np.float64(0.0), 0.0)
        assert (t.v, t.c_x, t.c_s) == (1.0, 1.0, 0.0)

    def test_unit_alpha(self, unit_source):
        t = linear_module._terms(unit_source, np.float64(1.0), 0.0)
        assert (t.v, t.c_x, t.c_s) == (2.0, 1.0, 1.0)

    def test_correlated_case_by_hand_and_monte_carlo(self):
        src = make_source(1.0, 2.0, 0.5)
        t = linear_module._terms(src, np.float64(1.0), 0.0)
        assert (t.v, t.c_x, t.c_s) == (7.0, 2.0, 5.0)

        rng = np.random.default_rng(7)
        cov = np.array([[1.0, 1.0], [1.0, 4.0]])  # rho*sx*st = 0.5*1*2
        xs = rng.multivariate_normal([0.0, 0.0], cov, size=1_000_000)
        z = xs[:, 0] + xs[:, 1]
        for value, sample in (
            (t.v, z * z),
            (t.c_x, xs[:, 0] * z),
            (t.c_s, xs[:, 1] * z),
        ):
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - value) < 3.0 * se

    def test_bilinearity_identity(self, rng):
        for _ in range(200):
            src = _random_source(rng)
            alpha = float(rng.normal(scale=2.0))
            t = linear_module._terms(src, np.float64(alpha), 0.0)
            assert t.v == pytest.approx(t.c_x + alpha * t.c_s, rel=1e-12, abs=1e-12)
            assert t.v > 0.0


class TestOptimalAlpha:
    def test_golden_ratio_against_polynomial_solver(self, unit_source):
        # independent oracle: numpy's companion-matrix root finder
        roots = np.roots([1.0, 1.0, -1.0])
        oracle = float(roots[roots > 0][0])
        assert optimal_alpha(unit_source, 0.0) == pytest.approx(oracle, abs=1e-6)
        assert optimal_alpha(unit_source, 0.0) == pytest.approx(GOLDEN, abs=1e-12)

    def test_huge_lam_fully_revealing(self, unit_source):
        assert abs(optimal_alpha(unit_source, 1e9)) < 1e-4

    def test_huge_lam_removes_correlated_part(self):
        src = make_source(1.0, 2.0, 0.5)
        assert optimal_alpha(src, 1e9) == pytest.approx(-0.25, abs=1e-4)

    def test_negative_lam_rejected(self, unit_source):
        with pytest.raises(ValueError):
            optimal_alpha(unit_source, -0.5)

    def test_quadratic_residual_over_random_draws(self, rng):
        for _ in range(1000):
            src = _random_source(rng)
            lam = float(rng.uniform(0.0, 50.0))
            alpha = optimal_alpha(src, lam)
            assert abs(_quadratic(src, lam, alpha)) < 1e-9

    def test_minimizer_property(self, rng):
        for _ in range(200):
            src = _random_source(rng)
            lam = float(rng.uniform(0.0, 10.0))
            alpha = optimal_alpha(src, lam)
            j_star = linear_distortions(src, alpha, lam).d_e
            for delta in (1e-3, 1e-2, 0.1):
                assert j_star <= linear_distortions(src, alpha + delta, lam).d_e + 1e-9
                assert j_star <= linear_distortions(src, alpha - delta, lam).d_e + 1e-9

    def test_rho_within_an_ulp_of_one(self):
        # the minimizer sits at alpha ~ -rho/r, where the expanded E[Z^2]
        # cancelled to <= 0; optimal_alpha returns only a certified root
        src = make_source(1.5, 0.16796875, 0.9999999999999998)
        alpha = optimal_alpha(src, 161.0)
        assert linear_module._terms(src, np.float64(alpha), 0.0).v > 0.0
        assert alpha == pytest.approx(-src.rho / src.r, rel=1e-6)

    def test_rho_next_to_one_over_random_draws(self, rng):
        rho = float(np.nextafter(1.0, 0.0))
        for _ in range(1000):
            src = make_source(float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.05, 20.0)),
                              rho * float(rng.choice([-1.0, 1.0])))
            lam = float(10.0 ** rng.uniform(-3.0, 7.0))
            alpha = optimal_alpha(src, lam)
            assert linear_module._terms(src, np.float64(alpha), 0.0).v > 0.0

    def test_negative_discriminant_is_value_error(self):
        # in exact arithmetic the discriminant is negative only for |rho| > 1,
        # which SourceSpec refuses to build, so the field is overwritten
        src = make_source(1.0, 1.0, 0.0)
        object.__setattr__(src, "rho", -3.0)
        with pytest.raises(ValueError, match="discriminant"):
            optimal_alpha(src, 1.0)

    def test_certificate_rejects_the_maximizing_root(self, monkeypatch):
        # a sign slip in the kernel's square root returns the other root, where q' < 0
        sqrt = np.sqrt
        monkeypatch.setattr(linear_module.np, "sqrt", lambda x: -sqrt(x))
        with pytest.raises(ArithmeticError):
            optimal_alpha(make_source(1.0, 1.0, 0.3), 2.0)

    @settings(max_examples=300, deadline=None)
    @given(src=sources, lam=lams)
    def test_beats_probe_fan(self, src, lam):
        alpha = optimal_alpha(src, lam)
        j_star = linear_distortions(src, alpha, lam).d_e
        slack = 1e-9 * max(1.0, abs(j_star))
        for delta in PROBE_OFFSETS:
            probe = alpha + delta * max(1.0, abs(alpha))
            if linear_module._terms(src, np.float64(probe), 0.0).v > 1e-12:
                assert j_star <= linear_distortions(src, probe, lam).d_e + slack, delta

    def test_degenerate_quadratic_branch(self):
        # rho = -r kills the quadratic term; the linear equation takes over
        src = make_source(1.0, 0.5, -0.5)
        lam = 2.0
        alpha = optimal_alpha(src, lam)
        assert (1.0 + lam * src.r**2) * alpha + (lam * src.rho * src.r - 1.0) == pytest.approx(
            0.0, abs=1e-12
        )


class TestBestResponseCoeffs:
    """The MMSE scalings (kappa, nu) as the kernel forms them."""

    def test_identity_decoder_when_no_theta(self, unit_source):
        t = linear_module._terms(unit_source, np.float64(0.0), 0.0)
        assert (t.kappa, t.nu) == (1.0, 0.0)

    def test_equal_mixing(self, unit_source):
        t = linear_module._terms(unit_source, np.float64(1.0), 0.0)
        assert (t.kappa, t.nu) == (0.5, 0.5)

    def test_at_golden_alpha(self, unit_source):
        kappa = linear_module._terms(unit_source, np.float64(GOLDEN), 0.0).kappa
        assert kappa == pytest.approx(1.0 / (1.0 + GOLDEN**2), rel=1e-12)
        assert kappa == pytest.approx(0.723607, abs=1e-6)

    def test_mmse_envelope(self, rng):
        # perturbing nu off the MMSE value must increase the eavesdropper error
        for _ in range(50):
            src = _random_source(rng)
            alpha = float(rng.normal())
            t = linear_module._terms(src, np.float64(alpha), 0.0)

            def d_theta(nu_val):
                return src.sigma_theta**2 - 2.0 * nu_val * t.c_s + nu_val**2 * t.v

            for eps in (1e-3, -1e-3):
                assert d_theta(t.nu + eps) > d_theta(t.nu)


class TestEncoderObjective:
    """The leader objective J(alpha) = linear_distortions(...).d_e."""

    def test_fully_revealing_value(self, unit_source):
        # kappa = 1 recovers X; the residual is theta itself
        assert linear_distortions(unit_source, 0.0, 0.0).d_e == pytest.approx(1.0, abs=1e-12)

    def test_minimizer_beats_large_alpha(self, unit_source):
        a_star = optimal_alpha(unit_source, 0.0)
        assert (linear_distortions(unit_source, a_star, 0.0).d_e
                < linear_distortions(unit_source, 1e6, 0.0).d_e)

    def test_value_at_golden_alpha(self, unit_source):
        # frozen from the two closed forms and a 2e6-sample Monte Carlo run,
        # all of which agree: J = 2 - (1+2a)/(1+a^2) = (3 - sqrt(5))/2
        expected = (3.0 - math.sqrt(5.0)) / 2.0
        j = linear_distortions(unit_source, GOLDEN, 0.0).d_e
        assert j == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.381966, abs=1e-6)

    def test_monte_carlo_agreement(self, unit_source):
        rng = np.random.default_rng(11)
        n = 1_000_000
        x = rng.standard_normal(n)
        th = rng.standard_normal(n)
        alpha, lam = 0.7, 1.3
        t = linear_module._terms(unit_source, np.float64(alpha), 0.0)
        z = x + alpha * th
        samples = (x + th - t.kappa * z) ** 2 - lam * (th - t.nu * z) ** 2
        se = samples.std(ddof=1) / math.sqrt(n)
        j = linear_distortions(unit_source, alpha, lam).d_e
        assert abs(samples.mean() - j) < 3.0 * se

    def test_two_formulas_agree_randomly(self, rng):
        for _ in range(300):
            src = _random_source(rng)
            alpha, lam = float(rng.normal(scale=3.0)), float(rng.uniform(0.0, 20.0))
            ratio_form, scale = _ratio_form(src, alpha, lam)
            assert abs(linear_distortions(src, alpha, lam).d_e - ratio_form) <= 1e-10 * scale

    @settings(max_examples=300, deadline=None)
    @given(src=sources, lam=lams, alpha=st.floats(-20.0, 20.0))
    def test_two_formulas_agree(self, src, lam, alpha):
        assume(linear_module._terms(src, np.float64(alpha), 0.0).v > 1e-12)
        ratio_form, scale = _ratio_form(src, alpha, lam)
        assert abs(linear_distortions(src, alpha, lam).d_e - ratio_form) <= 1e-10 * scale

    @settings(max_examples=300, deadline=None)
    @given(src=sources, lam=lams, alpha=st.floats(-20.0, 20.0))
    def test_slope_has_the_sign_of_the_quadratic(self, src, lam, alpha):
        # J'(alpha) = 2 sigma_theta^2 sigma_x^4 (1 - rho^2) q(alpha) / v(alpha)^2
        def slope(h):
            return (linear_distortions(src, alpha + h, lam).d_e
                    - linear_distortions(src, alpha - h, lam).d_e) / (2.0 * h)

        h = 1e-4 * max(1.0, abs(alpha))
        assume(min(linear_module._terms(src, np.float64(alpha + d), 0.0).v
                   for d in (-h, 0.0, h)) > 1e-6)
        coarse, fine = slope(h), slope(h / 2.0)
        # a central difference has a trusted sign only above the rounding noise
        # of the terms J cancels and in agreement with its half-step twin
        noise = 64.0 * np.finfo(float).eps * _ratio_form(src, alpha, lam)[1] / h
        assume(abs(coarse) > noise and abs(coarse - fine) < 0.1 * abs(coarse))
        assert np.sign(coarse) == np.sign(_quadratic(src, lam, alpha))


class TestLinearDistortions:
    def test_fully_revealing_row(self, unit_source):
        rep = linear_distortions(unit_source, 0.0, 3.0)
        assert rep.d_d == pytest.approx(0.0, abs=1e-15)
        assert rep.d_theta == pytest.approx(1.0, abs=1e-15)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-15)
        assert rep.d_e == pytest.approx(rep.fidelity - 3.0 * rep.d_theta, rel=1e-12)

    def test_decoder_distortion_at_golden_alpha(self, unit_source):
        rep = linear_distortions(unit_source, GOLDEN, 0.0)
        kappa = 1.0 / (1.0 + GOLDEN**2)
        assert rep.d_d == pytest.approx((1 - kappa) ** 2 + kappa**2 * GOLDEN**2, rel=1e-12)
        assert rep.d_d == pytest.approx(0.276393, abs=1e-6)

    def test_decoder_distortion_decreases_with_lam(self, unit_source):
        lams = [0.0, 0.5, 1.0, 2.0, 10.0, 100.0]
        d_d = [linear_distortions(unit_source, optimal_alpha(unit_source, l), l).d_d for l in lams]
        assert all(b < a for a, b in zip(d_d, d_d[1:]))

    def test_alpha_and_kappa_monotonicity(self, unit_source):
        # finite-difference version of the comparative statics at rho = 0
        lams = np.linspace(0.0, 20.0, 41)
        alphas = [optimal_alpha(unit_source, l) for l in lams]
        kappas = [linear_module._terms(unit_source, np.float64(a), 0.0).kappa for a in alphas]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))
        assert all(b >= a for a, b in zip(kappas, kappas[1:]))

    def test_decoder_distortion_slope_in_alpha(self, unit_source):
        # d(d_d)/d(alpha) >= 0 for alpha >= 0 at rho = 0, by central differences
        for alpha in (0.0, 0.3, 0.8, 2.0):
            h = 1e-6
            up = linear_distortions(unit_source, alpha + h, 0.0).d_d
            down = linear_distortions(unit_source, max(alpha - h, 0.0), 0.0).d_d
            assert up - down >= -1e-12

    def test_privacy_dominated_limit(self, unit_source):
        lam = 1e9
        rep = linear_distortions(unit_source, optimal_alpha(unit_source, lam), lam)
        assert abs(rep.fidelity - (rep.d_d + 1.0)) < 1e-6

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_raises(self, alpha):
        # unchecked, each returned four NaNs
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            linear_distortions(make_source(1.0, 1.0, 0.3), alpha, 1.0)

    def test_degenerate_encoder_raises(self):
        # at rho = 1 and r = 1, Z = X + alpha * theta vanishes for alpha = -1
        with pytest.raises(ValueError, match=r"E\[Z\^2\] must be positive"):
            linear_distortions(make_source(1.0, 1.0, 1.0), -1.0, 1.0)


class TestSolveEquilibrium:
    def test_coefficients_are_consistent(self, rng):
        for _ in range(50):
            src = _random_source(rng)
            lam = float(rng.uniform(0.0, 5.0))
            eq = solve_equilibrium(src, lam)
            t = linear_module._terms(src, np.float64(eq.alpha), 0.0)
            assert eq.kappa == pytest.approx(float(t.kappa), rel=1e-12)
            assert eq.nu == pytest.approx(float(t.nu), rel=1e-12)
            assert eq.report == linear_distortions(src, eq.alpha, lam)

    def test_rho_zero_lam_zero_positive_alpha(self, unit_source):
        assert solve_equilibrium(unit_source, 0.0).alpha > 0.0


# the nine linear-sweep benchmark sources, (1, 0.5, -0.5) among them with
# a2 = r (rho + r) = 0, and rho one ulp off +-1
RHO_NEXT_TO_ONE = float(np.nextafter(1.0, 0.0))
BENCH_SOURCES = [(1.0, r, rho) for r in (0.5, 1.0, 2.0) for rho in (-0.5, 0.0, 0.5)]
KERNEL_SOURCES = BENCH_SOURCES + [
    (1.5, 0.16796875, RHO_NEXT_TO_ONE),
    (1.5, 0.16796875, -RHO_NEXT_TO_ONE),
]
KERNEL_LAMBDAS = [0.0] + [float(v) for v in np.logspace(-2, 7, 1000)]


def _referee(src, lam):
    """The linear stage in plain Python floats, apart from the kernels: a referee.

    Returns (alpha*, d_e, fidelity, d_d, d_theta), each with the size of the
    largest term its formula cancels.
    """
    sx, st_, rho, r = src.sigma_x, src.sigma_theta, src.rho, src.r
    a2, a1, a0 = r * (rho + r), 1.0 + lam * r**2, lam * rho * r - 1.0
    if a2 == 0.0:
        alpha = -a0 / a1
    else:
        alpha = -2.0 * a0 / (a1 + math.sqrt(a1 * a1 - 4.0 * a2 * a0))
    a = alpha * st_ / sx
    v = sx**2 * ((1.0 + a * rho) ** 2 + a**2 * (1.0 - rho**2))
    c_x = sx**2 + alpha * rho * sx * st_
    c_s = rho * sx * st_ + alpha * st_**2
    kappa, nu = c_x / v, c_s / v
    fidelity = sx**2 + 2.0 * rho * sx * st_ + st_**2 - 2.0 * kappa * (c_x + c_s) + kappa**2 * v
    d_d = sx**2 - 2.0 * kappa * c_x + kappa**2 * v
    d_theta = st_**2 - 2.0 * nu * c_s + nu**2 * v
    terms = (sx + st_) ** 2  # bounds E[(X + theta)^2], E[X^2] and E[theta^2]
    return (
        (alpha, abs(alpha)),
        (fidelity - lam * d_theta, terms + lam * abs(d_theta)),
        (fidelity, terms),
        (d_d, terms),
        (d_theta, terms),
    )


class TestOneKernel:
    """Sweep rows and the scalar API come from one vectorized kernel."""

    @pytest.mark.parametrize("spec", KERNEL_SOURCES, ids=str)
    def test_sweep_rows_are_the_scalar_api(self, spec):
        src = make_source(*spec)
        rows = run_sweep(SweepConfig(mode="linear", lambdas=KERNEL_LAMBDAS, sigma_x=spec[0],
                                     r=spec[1], rho=spec[2]))
        assert [row.lam for row in rows] == KERNEL_LAMBDAS
        for row in rows:
            assert row.error is None
            alpha = optimal_alpha(src, row.lam)
            rep = linear_distortions(src, alpha, row.lam)
            got = (row.alpha, row.d_e, row.fidelity, row.d_d, row.d_theta)
            assert got == (alpha, rep.d_e, rep.fidelity, rep.d_d, rep.d_theta), row.lam
            eq = solve_equilibrium(src, row.lam)
            t = linear_module._terms(src, np.float64(alpha), 0.0)
            assert (eq.alpha, eq.report, eq.kappa, eq.nu) == (alpha, rep, t.kappa, t.nu), row.lam
            for value, (want, scale) in zip(got, _referee(src, row.lam)):
                assert abs(value - want) <= 4.0 * np.spacing(scale), (row.lam, value, want)

    @pytest.mark.parametrize("spec", BENCH_SOURCES, ids=str)
    def test_csv_text_is_the_referees(self, spec, tmp_path):
        src = make_source(*spec)
        cfg = SweepConfig(mode="linear", lambdas=KERNEL_LAMBDAS, r=spec[1], rho=spec[2], seed=5)
        path = tmp_path / "linear.csv"
        emit(run_sweep(cfg), "csv", str(path))
        lines = path.read_text().splitlines()[1:]
        for index, (lam, line) in enumerate(zip(KERNEL_LAMBDAS, lines, strict=True)):
            (alpha, _), (d_e, _), (fidelity, _), (d_d, _), (d_theta, _) = _referee(src, lam)
            cells = [f"{v:.12g}" for v in (lam, 0, d_e, fidelity, d_d, d_theta)]
            want = ",".join(cells + ["", f"{alpha:.12g}", "", "", "", str(5 + index)])
            assert line == want

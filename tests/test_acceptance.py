"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Heavy quantizer designs are shared through module-scoped
fixtures; each fixture reports its own wall time so criteria can charge it
against their runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from strategiq import (
    Quantizer,
    boundary_gradient,
    brute_force_design,
    evaluate,
    linear_distortions,
    lloyd_max,
    make_oracle_grid,
    make_source,
    make_theta_grid,
    max_kl,
    monte_carlo_distortions,
    multistart,
    optimal_alpha,
)
from strategiq.cli import SweepConfig, emit, run_sweep
from strategiq.optimizer import _fd_gradient

INF = math.inf


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def source():
    return make_source(1.0, 1.0, 0.0)


@pytest.fixture(scope="module")
def grid17(source):
    return make_theta_grid(source, 17, "gauss-hermite")


@pytest.fixture(scope="module")
def grid3(source):
    return make_theta_grid(source, 3, "gauss-hermite")


def _timed_multistart(source, grid, M, lam):
    t0 = time.perf_counter()
    result = multistart(source, grid, M, lam)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def design_m2_lam1e7(source, grid17):
    return _timed_multistart(source, grid17, 2, 1e7)


@pytest.fixture(scope="module")
def design_m8_lam1e7(source, grid17):
    return _timed_multistart(source, grid17, 8, 1e7)


@pytest.fixture(scope="module")
def design_m2_lam0(source, grid17):
    return _timed_multistart(source, grid17, 2, 0.0)


@pytest.fixture(scope="module")
def design_m8_lam0(source, grid17):
    return _timed_multistart(source, grid17, 8, 0.0)


@pytest.fixture(scope="module")
def design_m8_lam2(source, grid17):
    return _timed_multistart(source, grid17, 8, 2.0)


def test_criterion_01_lloyd_max_anchors(source):
    t0 = time.perf_counter()
    d2 = lloyd_max(source, 2).distortion
    d8 = lloyd_max(source, 8).distortion
    elapsed = time.perf_counter() - t0
    ok = abs(d2 - 0.3634) < 1e-3 and abs(d8 - 0.0345) < 1e-3 and elapsed < 1.0
    _criterion(
        "criterion 1: Lloyd-Max anchors",
        ok,
        f"D(M=2)={d2:.6f} (ref 0.3634), D(M=8)={d8:.6f} (ref 0.0345), {elapsed:.2f}s",
    )


def test_criterion_02_privacy_dominated_designs(
    source, grid17, design_m2_lam1e7, design_m8_lam1e7
):
    res2, t2 = design_m2_lam1e7
    res8, t8 = design_m8_lam1e7
    lm2 = lloyd_max(source, 2).distortion
    lm8 = lloyd_max(source, 8).distortion
    kl2 = max_kl(res2.quantizer, source, grid17).d_max
    kl8 = max_kl(res8.quantizer, source, grid17).d_max
    elapsed = t2 + t8
    ok = (
        abs(res2.report.d_d - lm2) < 1e-2
        and abs(res8.report.d_d - lm8) < 5e-3
        and kl2 < 0.05
        and kl8 < 0.05
        and elapsed < 300.0
    )
    _criterion(
        "criterion 2: lam->inf quantizer limit",
        ok,
        f"M=2 d_d={res2.report.d_d:.6f} (LM {lm2:.6f}), "
        f"M=8 d_d={res8.report.d_d:.6f} (LM {lm8:.6f}), "
        f"d_kl_max=({kl2:.2e}, {kl8:.2e}), {elapsed:.1f}s",
    )


def test_criterion_03_linear_stage_analytics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_residual = 0.0
    for _ in range(1000):
        src = make_source(1.0, float(rng.uniform(0.2, 4.0)), float(rng.uniform(-0.95, 0.95)))
        lam = float(rng.uniform(0.0, 50.0))
        alpha = optimal_alpha(src, lam)
        r, rho = src.r, src.rho
        residual = abs(
            r * (rho + r) * alpha**2 + (1.0 + lam * r**2) * alpha + (lam * rho * r - 1.0)
        )
        worst_residual = max(worst_residual, residual)

    unit = make_source(1.0, 1.0, 0.0)
    roots = np.roots([1.0, 1.0, -1.0])  # independent polynomial-root oracle
    oracle_alpha = float(roots[roots > 0][0])
    golden_err = abs(optimal_alpha(unit, 0.0) - oracle_alpha)

    worst_limit = 0.0
    for _ in range(100):
        src = make_source(1.0, float(rng.uniform(0.2, 4.0)), float(rng.uniform(-0.95, 0.95)))
        worst_limit = max(worst_limit, abs(optimal_alpha(src, 1e9) + src.rho / src.r))
    elapsed = time.perf_counter() - t0
    ok = worst_residual < 1e-9 and golden_err < 1e-6 and worst_limit < 1e-3 and elapsed < 1.0
    _criterion(
        "criterion 3: linear-stage analytics",
        ok,
        f"max quadratic residual={worst_residual:.2e}, golden-root error={golden_err:.2e}, "
        f"max |alpha*+rho/r| at lam=1e9 is {worst_limit:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_decoder_distortion_monotone_in_lambda():
    t0 = time.perf_counter()
    unit = make_source(1.0, 1.0, 0.0)
    lams = np.logspace(-2, 7, 50)
    d_d = [linear_distortions(unit, optimal_alpha(unit, lam), lam).d_d for lam in lams]
    strictly_decreasing = all(b < a for a, b in zip(d_d, d_d[1:]))
    elapsed = time.perf_counter() - t0
    ok = strictly_decreasing and elapsed < 1.0
    _criterion(
        "criterion 4: decoder distortion monotone",
        ok,
        f"strictly decreasing over 50 log-spaced lambdas "
        f"(d_d: {d_d[0]:.4f} -> {d_d[-1]:.3e}), {elapsed:.2f}s",
    )


def test_criterion_05_gradient_correctness(source):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    cases = 0
    lams = (0.0, 0.5, 1.0, 5.0)
    while cases < 50:
        m = int(rng.integers(2, 5))
        n_nodes = int(rng.integers(3, 6))
        lam = lams[cases % len(lams)]
        grid = make_theta_grid(source, n_nodes, "gauss-hermite")
        interior = np.sort(rng.uniform(-2.2, 2.2, size=(n_nodes, m - 1)), axis=1)
        if m > 2 and np.min(np.diff(interior, axis=1)) < 0.05:
            continue  # keep probes inside the monotone cone
        q = Quantizer(M=m, boundaries=np.hstack([
            np.full((n_nodes, 1), -INF), interior, np.full((n_nodes, 1), INF)]))
        ga = boundary_gradient(q, source, grid, lam)
        gf = _fd_gradient(q, source, grid, lam)
        rel = float(np.max(np.abs(ga - gf))) / max(float(np.max(np.abs(gf))), 1e-10)
        worst = max(worst, rel)
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 60.0
    _criterion(
        "criterion 5: gradient correctness",
        ok,
        f"max relative error over 50 instances = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_oracle_equivalence(source, grid3):
    t0 = time.perf_counter()
    ogrid = make_oracle_grid(source)
    gaps = {}
    for lam in (0.0, 0.5, 1.0, 5.0):
        ms = multistart(source, grid3, 2, lam)
        bf = brute_force_design(source, grid3, 2, lam, ogrid)
        gaps[lam] = ms.report.d_e - bf.report.d_e
    elapsed = time.perf_counter() - t0
    ok = all(gap <= 1e-3 for gap in gaps.values()) and elapsed < 600.0
    detail = ", ".join(f"lam={lam}: gap={gap:+.2e}" for lam, gap in gaps.items())
    _criterion("criterion 6: oracle equivalence", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_07_quadrature_vs_sampling(
    source, grid17, design_m2_lam0, design_m2_lam1e7
):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    failures = []
    for k in range(20):
        m = int(rng.integers(2, 5))
        interior = np.sort(rng.uniform(-2.0, 2.0, size=(17, m - 1)), axis=1)
        q = Quantizer(M=m, boundaries=np.hstack([
            np.full((17, 1), -INF), interior, np.full((17, 1), INF)]))
        lam = float(rng.uniform(0.0, 5.0))
        br, rep = evaluate(q, source, grid17, lam)
        mc = monte_carlo_distortions(q, br, source, grid17, lam, 1_000_000, seed=4000 + k)
        for label, exact, sampled, se in (
            ("fidelity", rep.fidelity, mc.report.fidelity, mc.se_fidelity),
            ("d_d", rep.d_d, mc.report.d_d, mc.se_d_d),
            ("d_theta", rep.d_theta, mc.report.d_theta, mc.se_d_theta),
        ):
            if abs(exact - sampled) >= 3.0 * se:
                failures.append(f"random #{k} {label}")

    for label, (res, _), lam in (
        ("design lam=0", design_m2_lam0, 0.0),
        ("design lam=1e7", design_m2_lam1e7, 1e7),
    ):
        mc = monte_carlo_distortions(
            res.quantizer, res.responses, source, grid17, lam, 1_000_000, seed=777
        )
        for name, exact, sampled, se in (
            ("fidelity", res.report.fidelity, mc.report.fidelity, mc.se_fidelity),
            ("d_d", res.report.d_d, mc.report.d_d, mc.se_d_d),
            ("d_theta", res.report.d_theta, mc.report.d_theta, mc.se_d_theta),
        ):
            if abs(exact - sampled) >= 3.0 * se:
                failures.append(f"{label} {name}")
    elapsed = time.perf_counter() - t0 + design_m2_lam0[1] + design_m2_lam1e7[1]
    ok = not failures and elapsed < 120.0
    _criterion(
        "criterion 7: quadrature vs sampling",
        ok,
        f"66 comparisons at 3 s.e., failures: {failures or 'none'}, {elapsed:.1f}s",
    )


def test_criterion_08_limit_identity(source, design_m2_lam1e7, design_m8_lam1e7):
    st2 = source.sigma_theta**2
    residuals = {}
    for label, (res, _) in (("M=2", design_m2_lam1e7), ("M=8", design_m8_lam1e7)):
        residuals[label] = abs(res.report.fidelity - (res.report.d_d + st2))
    lam = 1e7
    rep = linear_distortions(source, optimal_alpha(source, lam), lam)
    residuals["linear"] = abs(rep.fidelity - (rep.d_d + st2))
    ok = all(v < 1e-2 for v in residuals.values())
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in residuals.items())
    _criterion("criterion 8: encoder limit identity", ok, detail)


def test_criterion_09_decoder_benefits_from_privacy(design_m8_lam0, design_m8_lam2):
    res0, t0 = design_m8_lam0
    res2, t2 = design_m8_lam2
    ok = res2.report.d_d < res0.report.d_d
    _criterion(
        "criterion 9: decoder benefits from privacy",
        ok,
        f"M=8 d_d(lam=2)={res2.report.d_d:.6f} < d_d(lam=0)={res0.report.d_d:.6f}, "
        f"{t0 + t2:.1f}s",
    )


def test_criterion_10_byte_identical_sweeps(tmp_path):
    t0 = time.perf_counter()
    cfg = SweepConfig(
        mode="quantizer",
        lambdas={"start": 0.1, "stop": 1e7, "points": 5},
        m_values=[2],
        seed=0,
    )
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    rows_by_run = []
    for path in paths:
        rows = run_sweep(cfg)
        emit(rows, "csv", str(path))
        rows_by_run.append(rows)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    # sweep-level trend: within M=2, d_d nonincreasing in lambda up to 5e-3
    d_d = [row.d_d for row in rows_by_run[0]]
    trend = all(b <= a + 5e-3 for a, b in zip(d_d, d_d[1:]))
    elapsed = time.perf_counter() - t0
    ok = identical and trend and elapsed < 300.0
    _criterion(
        "criterion 10: deterministic sweep",
        ok,
        f"byte-identical={identical}, d_d trend nonincreasing={trend}, {elapsed:.1f}s",
    )

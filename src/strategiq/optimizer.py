"""Projected L-BFGS design of the privacy-weighted strategic quantizer.

The gradient of the encoder's Lagrangian d_e with respect to every interior
boundary takes the followers' dependence into account:

* a direct (Leibniz) term from the integration limits,
* a chain term through the decoder reconstructions y (which do NOT make the
  encoder's objective stationary, since the decoder optimizes d_d, not d_e).
  Cell m enters it with the encoder's residual E[X + theta | m] - y_m.  At
  the decoder's best response y_m = E[X | m], that residual is
  E[theta | m] = theta_hat_m, the eavesdropper's estimate (both are 0 in an
  empty cell), so the chain term needs only the two responses,
* no chain term through the eavesdropper estimates: d_e contains the
  eavesdropper's own loss, so its best response is stationary there.
  tests/test_optimizer.py computes this analytically-zero term to pin it.

The descent works on each row's first interior boundary plus increments
d >= 0, so the monotone cone is a box and a skipped message is d = 0.  Row j
is scaled by 1/sqrt(w_j), since its gradient and curvature carry its grid
weight.  A limited-memory BFGS direction on the variables off their bound is
followed by projected Armijo backtracking, as in L-BFGS-B (Byrd, Lu, Nocedal
& Zhu, 1995) and projected quasi-Newton (Kim, Sra & Dhillon, 2010).  Every
accepted step lowers d_e.  A trial point costs one moment pass, the one
evaluate uses: Phi and phi at its boundaries, evaluated once, give both
responses, d_e and the density the gradient needs.  The landscape is
nonconvex; multistart adds a fully-revealing Lloyd-Max start to seeded
random starts and keeps the lowest.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .gaussian_model import SourceSpec, ThetaGrid
from .metrics import lloyd_max
from .quantizer_core import (
    BestResponses,
    DistortionReport,
    Quantizer,
    _grid_terms,
    _moment_pass,
    evaluate,
    quantizer_to_dict,
    validate,
)

logger = logging.getLogger(__name__)

STOP_REASONS = ("tolerance", "stalled", "max_iters")
_FD_STEP = 1e-5
_WEIGHT_FLOOR = 1e-12  # grid weights below this get the scale of this weight
_MEMORY = 10  # curvature pairs kept by L-BFGS
_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_LINE_SEARCH_HALVINGS = 30
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class OptimOptions:
    """Stopping rule and restart budget of the descent."""

    eps: float = 1e-9
    max_iters: int = 20_000
    n_restarts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iters < 1 or self.n_restarts < 1:
            raise ValueError("max_iters and n_restarts must be >= 1")


@dataclass(frozen=True)
class DesignResult:
    """One design outcome: the quantizer, responses, distortions, and diagnostics.

    stop_reason (one of STOP_REASONS), kkt_residual (the inf-norm of the
    projected gradient at the result) and evals (the objective evaluations
    the run spent, the start's included) are None for the exhaustive oracle.
    """

    quantizer: Quantizer
    responses: BestResponses
    report: DistortionReport
    iterations: int
    converged: bool
    trajectory: np.ndarray | None = None
    restart_index: int | None = None
    stop_reason: str | None = None
    kkt_residual: float | None = None
    evals: int | None = None


def _analytic_gradient(
    b: np.ndarray, grid: ThetaGrid, lam: float, y: np.ndarray, theta_hat: np.ndarray, f: np.ndarray
) -> np.ndarray:
    """Gradient of d_e at interior boundaries b, given the best responses y, theta_hat to b.

    f is the conditional density at b, as _moment_pass returns it.  One-sided
    at coincident boundaries.
    """
    theta = grid.nodes[:, None]

    # differences of squares: (b + theta - y_left)^2 - (b + theta - y_right)^2,
    # and lam times the same for (theta - theta_hat)
    dy, sy = y[1:] - y[:-1], y[1:] + y[:-1]
    dth, sth = theta_hat[1:] - theta_hat[:-1], theta_hat[1:] + theta_hat[:-1]
    direct = dy * (2.0 * (b + theta) - sy) - lam * dth * (2.0 * theta - sth)
    # through y: each cell's residual E[X + theta | m] - y_m is theta_hat_m
    chain = 2.0 * (b * dth - (theta_hat[1:] * y[1:] - theta_hat[:-1] * y[:-1]))

    return grid.weights[:, None] * f * (direct + chain)


def _fd_gradient(
    q: Quantizer, source: SourceSpec, grid: ThetaGrid, lam: float, step: float = _FD_STEP
) -> np.ndarray:
    """Central finite differences of d_e, best responses recomputed per probe.

    Probes shrink near coincident boundaries to stay inside the monotone cone;
    fully collapsed directions get 0, matching the analytic convention.
    """
    b = q.boundaries
    grad = np.zeros((q.n_theta, q.M - 1))
    for j in range(q.n_theta):
        for c in range(1, q.M):
            gap_lo = b[j, c] - b[j, c - 1]
            gap_hi = b[j, c + 1] - b[j, c]
            h = min(step, gap_lo / 2.0, gap_hi / 2.0)
            if h <= 0.0:
                continue
            grad[j, c - 1] = (
                _probe_d_e(q, source, grid, lam, j, c, h)
                - _probe_d_e(q, source, grid, lam, j, c, -h)
            ) / (2.0 * h)
    return grad


def _probe_d_e(
    q: Quantizer, source: SourceSpec, grid: ThetaGrid, lam: float, j: int, c: int, h: float
) -> float:
    perturbed = np.array(q.boundaries)
    perturbed[j, c] += h
    return evaluate(Quantizer(M=q.M, boundaries=perturbed), source, grid, lam)[1].d_e


def boundary_gradient(
    q: Quantizer,
    source: SourceSpec,
    grid: ThetaGrid,
    lam: float,
    mode: str = "analytic",
) -> np.ndarray:
    """Total derivative of d_e w.r.t. each interior boundary, shape (n_theta, M-1).

    Coincident boundaries get subgradient 0 in both modes.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if mode == "analytic":
        interior = q.interior()
        _, y, theta_hat, _, f = _moment_pass(interior, _grid_terms(source, grid, q.n_theta), lam)
        grad = _analytic_gradient(interior, grid, lam, y, theta_hat, f)
        b = q.boundaries
        grad[(b[:, 1:-1] == b[:, :-2]) | (b[:, 1:-1] == b[:, 2:])] = 0.0
        return grad
    if mode == "finite-difference":
        return _fd_gradient(q, source, grid, lam)
    raise ValueError(f"unknown gradient mode {mode!r}")


def random_monotone_quantizer(
    source: SourceSpec, grid: ThetaGrid, M: int, rng: np.random.Generator
) -> Quantizer:
    """Random initialization: per-row sorted standard-normal draws scaled by sigma_x."""
    interior = np.sort(rng.standard_normal((grid.n_nodes, M - 1)), axis=1) * source.sigma_x
    return _with_edges(interior, grid.n_nodes)


def _with_edges(interior: np.ndarray, n_rows: int) -> Quantizer:
    edges_lo = np.full((n_rows, 1), -np.inf)
    edges_hi = np.full((n_rows, 1), np.inf)
    return Quantizer(M=interior.shape[1] + 1, boundaries=np.hstack([edges_lo, interior, edges_hi]))


def _to_increments(interior: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Descent variables of interior boundaries: first boundary, then increments, over scale."""
    u = np.array(interior, dtype=float)
    u[:, 1:] = np.diff(interior, axis=1)
    return u / scale


def _to_boundaries(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Inverse of _to_increments."""
    return (x * scale).cumsum(axis=1)


def _increment_gradient(g: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Boundary gradient g mapped to the scaled increments (increment k moves boundaries k..)."""
    return g[:, ::-1].cumsum(axis=1)[:, ::-1] * scale


def _lbfgs_direction(g: np.ndarray, free: np.ndarray, S: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """L-BFGS direction on the free variables, or steepest descent if not downhill.

    S and Y hold the curvature pairs as rows, oldest first.  The two-loop
    recursion takes its dot products from the Gram matrix S Y^T, which needs a
    few numpy calls instead of four per pair.
    """
    steepest = np.where(free, -g, 0.0)
    k = S.shape[0]
    if k == 0:
        return steepest
    q = -steepest.ravel()
    sy = (S @ Y.T).tolist()
    sq = (S @ q).tolist()
    alpha = [0.0] * k
    for i in range(k - 1, -1, -1):
        v = sq[i]  # becomes s_i . (q - sum_{j>i} alpha_j y_j)
        for j in range(i + 1, k):
            v -= alpha[j] * sy[i][j]
        alpha[i] = v / sy[i][i]
    q -= np.dot(alpha, Y)
    yq = (Y @ q).tolist()
    gamma = sy[-1][-1] / Y[-1].dot(Y[-1])  # initial inverse Hessian gamma * I
    coef = [0.0] * k  # alpha_i - beta_i, the weight of s_i in the result
    for i in range(k):
        v = gamma * yq[i]  # becomes y_i . (gamma q + sum_{j<i} coef_j s_j)
        for j in range(i):
            v += coef[j] * sy[j][i]
        coef[i] = alpha[i] - v / sy[i][i]
    r = gamma * q + np.dot(coef, S)
    p = np.where(free, -r.reshape(g.shape), 0.0)
    return p if np.vdot(p, g) < 0.0 else steepest


def design(
    source: SourceSpec,
    grid: ThetaGrid,
    M: int,
    lam: float,
    opts: OptimOptions = OptimOptions(),
    init: Quantizer | None = None,
) -> DesignResult:
    """Single projected L-BFGS run from init (or a seeded random start).

    The objective is d_e + lam * E[theta^2], which stays O(1) at every lam.
    stop_reason is "tolerance" once the inf-norm of the projected gradient is
    at most opts.eps * max(1, objective), "stalled" when the line search finds
    no decrease, and "max_iters" after opts.max_iters accepted steps.
    converged is True only for "tolerance".  The result never has a higher
    d_e than init.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if init is None:
        init = random_monotone_quantizer(source, grid, M, np.random.default_rng(opts.seed))
    if init.M != M or init.n_theta != grid.n_nodes:
        raise ValueError("init quantizer shape does not match (grid, M)")
    report_problems = validate(init)
    if not report_problems.ok:
        raise ValueError(f"invalid init quantizer: {report_problems.violations}")

    # the loop calls the moment pass itself; responses, report and quantizer
    # are built once, for the result
    terms = _grid_terms(source, grid, grid.n_nodes)
    b = init.interior()
    sums, resp_y, theta_hat, dist, density = _moment_pass(b, terms, lam)
    trajectory = [dist[0]]
    shift = lam * grid.second_moment()
    scale = 1.0 / np.sqrt(np.maximum(grid.weights, _WEIGHT_FLOOR))[:, None]
    x = _to_increments(b, scale)
    lower = np.zeros_like(x)
    lower[:, :1] = -np.inf
    f = dist[0] + shift
    g = _increment_gradient(_analytic_gradient(b, grid, lam, resp_y, theta_hat, density), scale)
    S = Y = np.empty((0, x.size))  # curvature pairs as rows, oldest first
    iterations, evals = 0, 1
    while True:
        # at M = 1 there are no variables, and the residual 0 stops at once
        kkt_residual = float(np.abs(x - np.maximum(x - g, lower)).max(initial=0.0))
        if kkt_residual <= opts.eps * max(1.0, f):
            stop_reason = "tolerance"
            break
        if iterations == opts.max_iters:
            stop_reason = "max_iters"
            break
        p = _lbfgs_direction(g, (x > lower) | (g <= 0.0), S, Y)
        # a memoryless step moves no variable by more than one scaled unit
        alpha = 1.0 if S.size else min(1.0, 1.0 / float(np.abs(p).max()))
        for _ in range(_LINE_SEARCH_HALVINGS):
            x_new = np.maximum(x + alpha * p, lower)
            b_new = _to_boundaries(x_new, scale)
            trial = _moment_pass(b_new, terms, lam)
            evals += 1
            f_new = trial[3][0] + shift
            dx = x_new - x
            if f_new < f and f_new <= f + _ARMIJO * np.vdot(g, dx):
                break
            alpha *= 0.5
        else:
            if not S.size:
                stop_reason = "stalled"
                break
            S = Y = S[:0]  # retry once along the projected gradient
            continue
        sums, resp_y, theta_hat, dist, density = trial
        g_new = _analytic_gradient(b_new, grid, lam, resp_y, theta_hat, density)
        g_new = _increment_gradient(g_new, scale)
        s, y = dx.ravel(), (g_new - g).ravel()
        if s.dot(y) > _EPS * y.dot(y):
            S = np.concatenate((S[1 - _MEMORY:], s[None]))
            Y = np.concatenate((Y[1 - _MEMORY:], y[None]))
        x, f, g, b = x_new, f_new, g_new, b_new
        trajectory.append(dist[0])
        iterations += 1

    logger.debug(
        "design M=%d lam=%g: iters=%d evals=%d stop=%s d_e=%.9g kkt_residual=%.3g",
        M, lam, iterations, evals, stop_reason, dist[0], kkt_residual,
    )
    return DesignResult(
        _with_edges(b, grid.n_nodes), BestResponses(resp_y, theta_hat, sums[0]),
        DistortionReport(*dist), iterations=iterations,
        converged=stop_reason == "tolerance", trajectory=np.array(trajectory),
        stop_reason=stop_reason, kkt_residual=kkt_residual, evals=evals,
    )


def multistart(
    source: SourceSpec,
    grid: ThetaGrid,
    M: int,
    lam: float,
    opts: OptimOptions = OptimOptions(),
) -> DesignResult:
    """Best of n_restarts seeded random starts plus one Lloyd-Max start.

    Deterministic given opts.seed; ties break toward the lowest restart index.
    """
    rng = np.random.default_rng(opts.seed)
    inits = [random_monotone_quantizer(source, grid, M, rng) for _ in range(opts.n_restarts)]
    if M == 1:
        inits = inits[:1]
    else:
        lm = lloyd_max(source, M)
        inits.append(Quantizer(M=M, boundaries=np.tile(lm.boundaries, (grid.n_nodes, 1))))
    results = (
        replace(design(source, grid, M, lam, opts, init=init), restart_index=idx)
        for idx, init in enumerate(inits)
    )
    return min(results, key=lambda result: result.report.d_e)


def design_result_to_dict(result: DesignResult, grid: ThetaGrid) -> dict:
    """JSON-ready dict: the quantizer schema extended with responses and outcomes."""
    data = quantizer_to_dict(result.quantizer, grid)
    data.update(
        {
            "y": [float(v) for v in result.responses.y],
            "theta_hat": [float(v) for v in result.responses.theta_hat],
            "d_e": result.report.d_e,
            "fidelity": result.report.fidelity,
            "d_d": result.report.d_d,
            "d_theta": result.report.d_theta,
            "iterations": result.iterations,
            "converged": result.converged,
        }
    )
    return data

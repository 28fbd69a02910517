"""Projected trust-region Newton design of the privacy-weighted strategic quantizer.

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

The descent minimizes f = d_e + lam * E_grid[theta^2], written as a constant
minus one term per cell so that no lam-sized total is cancelled.  It works on
each row's first interior boundary plus increments d >= 0, so the monotone
cone is a box and a skipped message is d = 0.  Each step minimizes a quadratic
model inside a Euclidean trust region, on the variables off their bound
(Lin & More, 1999; the step is More & Sorensen's, 1983); a variable at its
bound that the step would push out is held there.  The model's Hessian leaves
out the density slope's term, zero at a stationary point (_hessian_parts).  One
eigendecomposition of it on the free variables gives every step from that
point: the interior step, the step on the region's boundary (a scalar equation
in the shift sigma of the eigenvalues), the hard case, and (H + sigma I)^-1
for the correction below.  Only steps pay for it, or for the dense Hessian:
in the boundaries the Hessian is a diagonal plus a rank-2M term,
diag(D) + U^T C U, and the stop is certified from one 2M x 2M capacitance
matrix (Haynsworth's inertia additivity, 1968, for positive definiteness;
Woodbury's identity, 1950, for g^T H^-1 g / 2, the most any step on the free
variables can promise).  A step is accepted when f falls below every
earlier f (or, once the model promises less than f's rounding, when it stays
within that rounding of them and shrinks the projected gradient); the radius shrinks when the model predicted poorly and grows, up
to sigma_c, when the model was good and the step reached it.  At lam > 0 a
poorly predicted step also gets a second-order correction (Fletcher's), which
moves theta_hat back to where the linear model put it, and the better of the
two points is kept.  A trial point costs one moment pass, the one evaluate
uses: Phi and phi at its boundaries, evaluated once, give both responses, f,
the gradient and the model Hessian.  A descent stops by tolerance at a
projected gradient of 1e-9 * max(1, f), or of the gradient's rounding at lam
where that is larger (Conn, Gould & Toint, 2000).

The landscape is nonconvex, but the paper's continuous game has its optimum
over every M-message encoder in closed form: the Lloyd-Max quantizer (Max,
1960; Lloyd, 1982) of the linear stage's output Z = X + alpha* theta, with
boundaries b_k(theta) = sqrt(v) l_k - alpha* theta, where v = E[Z^2] and l_k
are the Lloyd-Max thresholds of N(0, 1).  Whitened, d_e is a constant minus
a quadratic form in E[(X, theta) | m] with one positive and one nonpositive
eigenvalue; no M-valued estimate of a standard normal has an MSE below the
Lloyd-Max distortion, and the cells of Z, along the positive eigenvector,
reach it.  multistart descends that quantizer at lam on the grid itself;
on a Gauss-Hermite grid it is stationary or a few steps from the grid's
optimum.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .gaussian_model import MASS_FLOOR, SourceSpec, ThetaGrid, _as_count
from .linear_equilibrium import _linear_stage
from .metrics import _lloyd_max_row
from .quantizer_core import (
    BestResponses,
    DistortionReport,
    Quantizer,
    _check_lam,
    _grid_terms,
    _moment_pass,
    _MomentPass,
    quantizer_to_dict,
)

logger = logging.getLogger(__name__)

#: why a descent stopped: "tolerance" (stationary to the stopping bound), "stalled" (the
#: trust region shrank until the model promised no decrease f could resolve,
#: short of the tolerance) or "max_iters" (_MAX_ITERS accepted steps, short of
#: the tolerance)
STOP_REASONS = ("tolerance", "stalled", "max_iters")
# accepted steps of one descent, a guard against a runaway loop: from the
# closed-form start none of 2,240 rows (3-17 nodes, 20 sources, M = 2-8,
# lam = 0-1e7) took more than 60
_MAX_ITERS = 20_000
# the stopping bound on the projected gradient, relative to max(1, f)
_EPS = 1e-9
_FD_STEP = 1e-5
_SECULAR_ITERS = 50  # Newton steps on the trust-region boundary equation
_SECULAR_RTOL = 1e-3  # relative overshoot of the radius the step may keep
_RESOLUTION = 64 * float(np.finfo(float).eps)  # of eigh's eigenvalues, relative to the largest
# f sums a constant and one Phi per cell, each with a few roundings: changes
# of f below this many units of its size are not resolved
_ROUNDING = 16 * float(np.finfo(float).eps)
# the gradient at lam rounds at about eps * lam * E_grid[theta^2]; the stopping
# bound is at least this times lam * E_grid[theta^2].  At 4, 100 of 100 one-ulp
# moves of the designs on (1, 1.3, -0.8), 9 nodes, M = 6, 8, lam = 1e7 stop at once
# (40, 91 stall without it); 16 lets unit-source restarts at 1e7 stop at 3e-8
_GRADIENT_ROUNDING = 4 * float(np.finfo(float).eps)
# under the tolerance the descent goes on while the model promises a decrease
# of f above this fraction of it: rows of small weight meet the gradient bound
# before they are converged
_PROMISE = 1e-3


@dataclass(frozen=True)
class DesignResult:
    """One design outcome: the quantizer, responses, distortions, and diagnostics.

    f (the descent's objective d_e + lam * E_grid[theta^2] at the result),
    stop_reason (one of STOP_REASONS), kkt_residual (the inf-norm of the
    projected gradient in the increment variables at the result) and evals
    (the objective evaluations the run spent, the start's included) are None
    for the exhaustive oracle.
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
    f: float | None = None


def _analytic_gradient(
    b: np.ndarray, grid: ThetaGrid, lam: float, y: np.ndarray, theta_hat: np.ndarray,
    density: np.ndarray,
) -> np.ndarray:
    """Gradient of d_e at interior boundaries b, given the best responses y, theta_hat to b.

    density is the conditional density at b, as _moment_pass returns it.
    One-sided at coincident boundaries.
    """
    theta = grid.nodes[:, None]

    # differences of squares: (b + theta - y_left)^2 - (b + theta - y_right)^2,
    # and lam times the same for (theta - theta_hat)
    dy, sy = y[1:] - y[:-1], y[1:] + y[:-1]
    dth, sth = theta_hat[1:] - theta_hat[:-1], theta_hat[1:] + theta_hat[:-1]
    direct = dy * (2.0 * (b + theta) - sy) - lam * dth * (2.0 * theta - sth)
    # through y: each cell's residual E[X + theta | m] - y_m is theta_hat_m
    chain = 2.0 * (b * dth - (theta_hat[1:] * y[1:] - theta_hat[:-1] * y[:-1]))

    return grid.weights[:, None] * density * (direct + chain)


def _fd_gradient(q: Quantizer, source: SourceSpec, grid: ThetaGrid, lam: float) -> np.ndarray:
    """Central finite differences of d_e, best responses recomputed per probe.

    The tests' referee for boundary_gradient; nothing in the package calls it.
    Probes shrink near coincident boundaries to stay inside the monotone cone;
    fully collapsed directions get 0, matching the analytic convention.
    """
    b = q.boundaries
    interior = np.array(q.interior())
    terms = _grid_terms(source, grid, q.n_theta)
    grad = np.zeros_like(interior)
    for j in range(q.n_theta):
        for c in range(1, q.M):
            gap_lo = b[j, c] - b[j, c - 1]
            gap_hi = b[j, c + 1] - b[j, c]
            h = min(_FD_STEP, gap_lo / 2.0, gap_hi / 2.0)
            if h <= 0.0:
                continue
            grad[j, c - 1] = (
                _probe_d_e(interior, terms, lam, j, c - 1, h)
                - _probe_d_e(interior, terms, lam, j, c - 1, -h)
            ) / (2.0 * h)
    return grad


def _probe_d_e(interior: np.ndarray, terms: tuple, lam: float, j: int, k: int, h: float) -> float:
    perturbed = interior.copy()
    perturbed[j, k] += h
    return _moment_pass(perturbed, terms, lam).dist[0]


def boundary_gradient(q: Quantizer, source: SourceSpec, grid: ThetaGrid, lam: float) -> np.ndarray:
    """Total derivative of d_e w.r.t. each interior boundary, shape (n_theta, M-1).

    Coincident boundaries get subgradient 0, as _fd_gradient gives them.
    """
    _check_lam(lam)
    interior = q.interior()
    state = _moment_pass(interior, _grid_terms(source, grid, q.n_theta), lam)
    grad = _analytic_gradient(interior, grid, lam, state.y, state.theta_hat, state.density)
    b = q.boundaries
    grad[(b[:, 1:-1] == b[:, :-2]) | (b[:, 1:-1] == b[:, 2:])] = 0.0
    return grad


def random_monotone_quantizer(
    source: SourceSpec, grid: ThetaGrid, M: int, rng: np.random.Generator
) -> Quantizer:
    """Random initialization: per-row sorted standard-normal draws scaled by sigma_x."""
    M = _as_count("M", M)
    interior = np.sort(rng.standard_normal((grid.n_nodes, M - 1)), axis=1) * source.sigma_x
    return _with_edges(interior)


def _with_edges(interior: np.ndarray) -> Quantizer:
    edge = np.full((interior.shape[0], 1), np.inf)
    return Quantizer(M=interior.shape[1] + 1, boundaries=np.hstack([-edge, interior, edge]))


def _to_increments(interior: np.ndarray) -> np.ndarray:
    """Descent variables of interior boundaries: each row's first boundary, then increments."""
    u = np.array(interior, dtype=float)
    u[:, 1:] = np.diff(interior, axis=1)
    return u


def _to_boundaries(x: np.ndarray) -> np.ndarray:
    """Inverse of _to_increments."""
    return x.cumsum(axis=1)


def _increment_gradient(g: np.ndarray) -> np.ndarray:
    """Boundary gradient(s) g, last axis M-1, mapped to the increments.

    Increment k moves boundaries k.., so its entry sums those from k on.
    """
    return g[..., ::-1].cumsum(axis=-1)[..., ::-1]


def _kkt_residual(x: np.ndarray, g: np.ndarray, lower: np.ndarray) -> float:
    """Inf-norm of the projected gradient step x - P(x - g) on the increment box."""
    return float(np.abs(x - np.maximum(x - g, lower)).max(initial=0.0))


def _hessian_parts(b: np.ndarray, grid: ThetaGrid, lam: float, trial: tuple) -> tuple:
    """Model Hessian of d_e in the interior boundaries b, as diag(D) + t^T t - a^T a.

    trial is _moment_pass's output at b.  Per cell, with N its mass,
    Phi = N ((y + theta_hat)^2 - (1 + lam) theta_hat^2), and
    H_b = diag(D) - sum_m (2/N_m) (a_m a_m^T - (1 + lam) t_m t_m^T) with
    a_m = N_m grad(y_m + theta_hat_m) and t_m = N_m grad(theta_hat_m): the
    Jacobian of the pooled (A, T, N) against the Hessian of Phi in them.
    Boundary c, the upper edge of cell c and the lower edge of cell c + 1,
    enters their rows as +-w f (b + theta - y - theta_hat) and
    +-w f (theta - theta_hat).  D is each boundary's own second derivative at
    a fixed density f; the exact one adds -(b - mu) / sigma_c^2 times the
    boundary's gradient, from f's slope, which is zero at a stationary point
    (Dennis & More, 1977) and would cut Newton steps in Gaussian tails short.  A
    cell below MASS_FLOOR contributes no rows.  Returns D, shape (n_rows, M-1);
    the rows a_m, t_m, shape (2, M, n_rows, M-1); and their scales
    sqrt(2/N_m) and sqrt((1 + lam) 2/N_m), shape (2, M, 1).  D, every row
    entry and the gradient at boundary c all carry its w f.
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
    n = sums[0]
    weight = np.sqrt(np.divide(2.0, n, out=np.zeros_like(n), where=n >= MASS_FLOOR))[:, None]
    return diag, rows, np.stack([weight, np.sqrt(1.0 + lam) * weight])


def _hessian(parts: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The dense model Hessian in the increments, from _hessian_parts, and its rows.

    With L the per-row cumulative sum, the Hessian in the increments is
    L^T H_b L: the rows become a L and t L, and diag(D) a block per row.
    Returns L^T H_b L, shape (P, P) with P = D.size, and the rows, shape
    (2, M, n_rows, M-1): a L, then t L.
    """
    diag, rows, scale = parts
    n_rows, k = diag.shape
    rows = _increment_gradient(rows)
    a = rows[0].reshape(k + 1, -1) * scale[0]
    t = rows[1].reshape(k + 1, -1) * scale[1]
    H = t.T @ t - a.T @ a  # symmetric products, so H is exactly symmetric
    # (L^T diag(D) L)_{ik} = sum of D from boundary max(i, k) on, per row
    cols = np.arange(k)
    tail = _increment_gradient(diag)[:, np.maximum.outer(cols, cols)]
    every = np.arange(n_rows)
    H.reshape(n_rows, k, n_rows, k)[every, :, every, :] += tail
    return H, rows


def _eig(H: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """H's eigenpairs, g in their basis, and the resolution of the eigenvalues.

    Eigenvalues closer than the resolution to -sigma are singular to eigh's
    accuracy.
    """
    eigvals, vecs = np.linalg.eigh(H)
    resolution = _RESOLUTION * max(-float(eigvals[0]), float(eigvals[-1]))
    return eigvals, vecs, vecs.T @ g, resolution


def _trust_region_step(eig: tuple, delta: float) -> tuple[np.ndarray, float, bool]:
    """Minimizer s of g.s + s.H.s/2 over |s| <= delta, its shift sigma, and whether |s| = delta.

    eig is _eig(H, g).  s solves (H + sigma I) s = -g with H + sigma I
    positive semidefinite (More & Sorensen, 1983), and in H's eigenbasis
    each coefficient of s is -(g's coefficient) / (eigenvalue + sigma).  The
    interior step (sigma = 0, H positive semidefinite) is taken when it fits.
    Otherwise |s| = delta is a scalar equation in sigma, solved by Newton's
    method on 1/|s(sigma)| - 1/delta from sigma = max(0, -lowest eigenvalue)
    upward.  In the hard case, where the step at that lowest sigma is
    already inside the region (g has no part along the lowest eigenvector),
    the step is filled up to the boundary along that eigenvector.
    """
    eigvals, vecs, gt, resolution = eig
    sigma = max(0.0, -float(eigvals[0]))
    c = -gt / np.maximum(eigvals + sigma, resolution)
    norm = float(np.sqrt(c @ c))
    if eigvals[0] >= -resolution and norm <= delta:
        return vecs @ c, sigma, False
    if norm <= delta:
        # hard case: fill the step up to the boundary along the lowest eigenvector
        c[0] = np.sqrt(delta * delta - float(c[1:] @ c[1:]))
        return vecs @ c, sigma, True
    for _ in range(_SECULAR_ITERS):
        shifted = np.maximum(eigvals + sigma, resolution)
        c = -gt / shifted
        norm2 = float(c @ c)
        norm = np.sqrt(norm2)
        if norm <= delta * (1.0 + _SECULAR_RTOL):
            break
        sigma += (norm / delta - 1.0) * norm2 / float((c * c) @ (1.0 / shifted))
    else:
        c *= delta / norm  # not converged: keep the step inside the region
    return vecs @ c, sigma, True


def _shifted_solve(eig: tuple, sigma: float, rhs: np.ndarray) -> np.ndarray:
    """(H + sigma I)^-1 rhs from eig = _eig(H, g).

    Directions where H + sigma I is singular (the hard case) get 0.
    """
    eigvals, vecs, _, resolution = eig
    shifted = eigvals + sigma
    return vecs @ np.divide(
        vecs.T @ rhs, shifted, out=np.zeros_like(rhs), where=shifted > resolution
    )


def _free_set(H: np.ndarray, g: np.ndarray, x: np.ndarray, lower: np.ndarray):
    """Which increments are at their bound, and the free set a step from x starts from."""
    at_bound = (x == lower).ravel()
    return at_bound, (~at_bound | (g <= 0.0)) & (H != 0.0).any(axis=1)


def _certify_stop(parts: tuple, grad: np.ndarray, x: np.ndarray, lower: np.ndarray,
                  promise: float) -> bool:
    """Whether no step _bounded_step takes lowers the model g.s + s.H.s/2 by promise or more.

    parts is _hessian_parts(b, ...) and grad the boundary gradient at b; H and g
    are _hessian(parts)'s and grad's in the increments.  _bounded_step's steps
    and corrections move only the free set F it starts from (later free sets
    are subsets of F), which lies in the increments off their bound or with
    g <= 0.  Holding an increment ties its two boundaries, so on F the
    boundary Hessian is diag(D) + U^T C U again, with D, the columns of
    U = [a; t] and grad summed over each tied group and C = diag(-I, I).  With
    every D > 0, it is positive definite exactly when the capacitance
    C + U D^-1 U^T has M positive and M negative eigenvalues (Haynsworth's
    inertia additivity), and then no step on F lowers the model by more than
    g_F.H_FF^-1 g_F / 2 = (grad.D^-1 grad - r.Cap^-1 r) / 2, r = U D^-1 grad,
    in the groups as well as in the increments (Woodbury's identity).  As
    every column of U and entry of grad carries its D's w f, u^2 / D stays at
    the scale of w f where D underflows towards 1e-300.  A group whose D, U
    column and grad are all exactly 0, as where w f underflows to 0, adds
    nothing to the model and is dropped.  A D <= 0, a capacitance eigenvalue
    within eigh's resolution of 0, the wrong inertia or a NaN answers no.
    """
    diag, rows, scale = parts
    M = scale.shape[1]
    starts = np.flatnonzero((x != lower).ravel() | (_increment_gradient(grad).ravel() <= 0.0))
    d = np.add.reduceat(diag.ravel(), starts)
    u = np.add.reduceat((rows.reshape(2, M, -1) * scale).reshape(2 * M, -1), starts, axis=1)
    grad = np.add.reduceat(grad.ravel(), starts)
    live = (d != 0.0) | (u != 0.0).any(axis=0) | (grad != 0.0)
    d, u, grad = d[live], u[:, live], grad[live]
    if not (d > 0.0).all():
        return False
    v = u / d
    capacitance = v @ u.T
    capacitance.flat[:: 2 * M + 1] += np.repeat([-1.0, 1.0], M)
    try:
        eigvals, vecs = np.linalg.eigh(capacitance)
    except np.linalg.LinAlgError:
        return False
    resolution = _RESOLUTION * np.abs(eigvals).max()
    if not (np.abs(eigvals) > resolution).all() or (eigvals > 0.0).sum() != M:
        return False
    r = vecs.T @ (v @ grad)
    return bool(grad @ (grad / d) - r @ (r / eigvals) < 2.0 * promise)


def _bounded_step(
    H: np.ndarray, g: np.ndarray, x: np.ndarray, lower: np.ndarray, delta: float, caches: dict
):
    """The trust-region step from x on the increment box.

    It is solved on the free variables: those off their bound, and those at
    it that the gradient points inward.  A variable at its bound that the
    step would push out is held there and the step solved again.  Variables
    with no curvature and no gradient are held too.  What still crosses a
    bound is projected onto it.  caches keeps each free set's
    eigendecomposition, so H is decomposed once per free set.  Returns the
    new point, whether the step reached delta, and a function that moves the
    new point by -(H + sigma I)^-1 r on the same free variables, projected
    again.
    """
    at_bound, free = _free_set(H, g, x, lower)
    step, sigma, reached, eig = np.zeros(x.size), 0.0, False, None
    while free.any():
        key = free.tobytes()
        if key not in caches:
            caches[key] = _eig(H[np.ix_(free, free)], g[free])
        eig = caches[key]
        s_free, sigma, reached = _trust_region_step(eig, delta)
        pushed = at_bound[free] & (s_free < 0.0)
        if not pushed.any():
            step[free] = s_free
            break
        free = free.copy()
        free[np.flatnonzero(free)[pushed]] = False
    x_new = np.maximum(x + step.reshape(x.shape), lower)

    def correct(r: np.ndarray) -> np.ndarray | None:
        move = np.zeros(x.size)
        if eig is not None:
            move[free] = -_shifted_solve(eig, sigma, r[free])
        # a correction longer than the step it corrects is not second order
        if not move @ move <= (x_new - x).ravel() @ (x_new - x).ravel():
            return None
        return np.maximum(x_new + move.reshape(x.shape), lower)

    return x_new, reached, correct


def design(source: SourceSpec, grid: ThetaGrid, lam: float, init: Quantizer) -> DesignResult:
    """Single projected trust-region Newton run from init, which has one row per grid node.

    The objective f = d_e + lam * E[theta^2] stays O(1) at every lam, is formed
    without cancellation, and is the result's f at its end.  Steps minimize
    _hessian's model, which drops the density slope's term, zero with the
    gradient; f and its exact gradient judge them.  A step is accepted when it
    lowers f below every f accepted before.  Once the model promises a decrease
    below f's rounding, which no evaluation can confirm, a step is accepted when
    it shrinks the projected gradient and leaves f within that rounding of the
    lowest f so far; so no accepted f is above an earlier one, init's included,
    by more than f's rounding.  Once the inf-norm of the projected gradient is
    at most tol = max(1e-9 * max(1, f), 4 eps_mach lam E_grid[theta^2]), the
    latter the gradient's rounding, the descent stops when the model promises a
    decrease of at most 1e-3 * tol (or below f's rounding).  _certify_stop
    decides this stop from the Hessian's diagonal-plus-rank-2M parts in the
    boundaries before the dense Hessian is built or any step solved, so a
    stationary start pays for neither.  stop_reason is "tolerance" for every
    stop with the gradient at most tol; otherwise it is "stalled" when the
    trust region has shrunk until the model promises no decrease f could
    resolve, and "max_iters" after _MAX_ITERS accepted steps.  converged is
    True only for "tolerance".  One DEBUG line gives the start's and the result's
    f, the steps, evaluations and eigendecompositions, the stop reason, d_e and
    the KKT residual.
    """
    _check_lam(lam)
    # the loop calls the moment pass itself; responses, report and quantizer
    # are built once, for the result
    terms = _grid_terms(source, grid, init.n_theta)
    b = init.interior()
    state = _moment_pass(b, terms, lam)
    trajectory = [state.dist[0]]
    x = _to_increments(b)
    lower = np.zeros_like(x)
    lower[:, :1] = -np.inf
    f = f_start = state.f
    grad = _analytic_gradient(b, grid, lam, state.y, state.theta_hat, state.density)
    g = _increment_gradient(grad).ravel()
    # sigma_c, the scale of a boundary move, is also the largest radius: the
    # model of a row of small weight can call for moves of many sigma_c
    # that f, dominated by the other rows, would accept blindly
    delta = delta_max = terms.sigma
    gradient_rounding = _GRADIENT_ROUNDING * lam * terms.wt2.sum()
    H, caches, eighs = None, {}, 0
    iterations, evals = 0, 1

    f_low = f  # the lowest f accepted so far

    def consider(x_try: np.ndarray) -> tuple[tuple | None, _MomentPass]:
        """The moment pass at x_try, and x_try's state if the step from x is accepted."""
        nonlocal evals
        b_try = _to_boundaries(x_try)
        trial = _moment_pass(b_try, terms, lam)
        evals += 1
        f_try = trial.f
        # below its rounding f cannot rank the points; a step that stays within
        # that rounding of the lowest f then counts as progress if it shrinks
        # the projected gradient
        if not (f_try < f_low or (unseen and f_try <= f_low + rounding)):
            return None, trial
        grad_try = _analytic_gradient(b_try, grid, lam, trial.y, trial.theta_hat, trial.density)
        g_try = _increment_gradient(grad_try).ravel()
        if f_try < f_low or _kkt_residual(x_try, g_try.reshape(x.shape), lower) < kkt_residual:
            return (x_try, f_try, g_try, grad_try, b_try, trial), trial
        return None, trial

    while True:
        kkt_residual = _kkt_residual(x, g.reshape(x.shape), lower)
        rounding = _ROUNDING * max(1.0, abs(f_low))
        # at M = 1 there are no variables, and the residual 0 stops at once
        tolerance = max(_EPS * max(1.0, f), gradient_rounding)
        promise = max(_PROMISE * tolerance, rounding)
        if H is None:
            parts = _hessian_parts(b, grid, lam, state)
            # the stop below, certified without H or eigh; a rejected step
            # changes none of its inputs, so it is decided once per point
            if kkt_residual <= tolerance and _certify_stop(parts, grad, x, lower, promise):
                stop_reason = "tolerance"
                break
            H, rows = _hessian(parts)
            eighs, caches = eighs + len(caches), {}
            # N_m times the gradient of theta_hat_m in the increments
            n_theta_jac = rows[1].reshape(init.M, -1)
        x_new, reached, correct = _bounded_step(H, g, x, lower, delta, caches)
        s = (x_new - x).ravel()
        predicted = -(g @ s + 0.5 * s @ (H @ s))
        unseen = predicted <= rounding
        if kkt_residual <= tolerance and predicted <= promise:
            stop_reason = "tolerance"
            break
        if iterations == _MAX_ITERS:
            stop_reason = "max_iters"
            break
        s_norm = float(np.sqrt(s @ s))
        accepted, trial = consider(x_new)
        if lam > 0.0 and not unseen and s_norm > 0.0 and (
            accepted is None or f - accepted[1] < 0.75 * predicted
        ):
            # second-order correction of a poorly predicted step: theta_hat left
            # its linear model by err, which moves the penalty's gradient by
            # 2 lam J^T (N err)
            n = state.sums[0]
            full = n >= MASS_FLOOR
            err = np.divide(n_theta_jac @ s, n, out=np.zeros_like(n), where=full)
            err = np.where(full, trial.theta_hat - state.theta_hat - err, 0.0)
            x_soc = correct(2.0 * lam * (n_theta_jac.T @ err))
            if x_soc is not None:
                corrected = consider(x_soc)[0]
                if corrected is not None and (accepted is None or corrected[1] < accepted[1]):
                    accepted = corrected
        if accepted is not None:
            ratio = (f - accepted[1]) / predicted if predicted > 0.0 else 0.0
            if ratio < 0.25:
                delta = 0.25 * s_norm
            elif ratio > 0.75 and reached:
                delta = min(2.0 * delta, delta_max)
            x, f, g, grad, b, state = accepted
            f_low = min(f_low, f)
            H = None
            trajectory.append(state.dist[0])
            iterations += 1
            continue
        # a projected step may promise no decrease; a shorter one is not projected
        if s_norm == 0.0 or 0.0 < predicted <= rounding:
            stop_reason = "stalled"
            break
        delta = 0.25 * s_norm
    if kkt_residual <= tolerance:
        stop_reason = "tolerance"

    logger.debug(
        "design M=%d lam=%g: f=%.12g -> %.12g iters=%d evals=%d eigh=%d stop=%s d_e=%.9g "
        "kkt_residual=%.3g", init.M, lam, f_start, f, iterations, evals, eighs + len(caches),
        stop_reason, state.dist[0], kkt_residual,
    )
    # with no step accepted b is init's, and so is the quantizer
    return DesignResult(
        init if iterations == 0 else _with_edges(b),
        BestResponses(state.y, state.theta_hat, state.sums[0]),
        DistortionReport(*state.dist), iterations=iterations,
        converged=stop_reason == "tolerance", trajectory=np.array(trajectory),
        stop_reason=stop_reason, kkt_residual=kkt_residual, evals=evals, f=f,
    )


def _closed_form_start(
    source: SourceSpec, grid: ThetaGrid, M: int, lam: float
) -> tuple[Quantizer, float, float]:
    """The Lloyd-Max quantizer of Z = X + alpha* theta on grid, with alpha* and sqrt(E[Z^2]).

    Row j's boundaries are sqrt(v) l_k - alpha* theta_j, with alpha* and
    v = E[Z^2] from the linear stage at lam and l_k the Lloyd-Max
    thresholds of N(0, 1); the optimum of the continuous game at every M
    (module docstring).  Raises the linear stage's error if alpha* fails
    its certificate.
    """
    stage = _linear_stage(source, np.float64(lam))
    error = stage.error()
    if error is not None:
        raise error
    alpha, scale = float(stage.alpha), math.sqrt(float(stage.terms.v))
    interior = scale * _lloyd_max_row(1.0, M)[1:-1] - alpha * grid.nodes[:, None]
    return _with_edges(interior), alpha, scale


def multistart(source: SourceSpec, grid: ThetaGrid, M: int, lam: float) -> DesignResult:
    """One design at lam on grid, from the closed-form equilibrium quantizer.

    The start is _closed_form_start, the optimum of the continuous game (at
    M = 1 the one-cell quantizer), and the result is design's from it, with
    restart_index 0, the index of its one start.  One DEBUG line per call
    gives alpha* and sqrt(v); design's own line follows it.
    """
    M = _as_count("M", M)
    _check_lam(lam)
    init, alpha, scale = _closed_form_start(source, grid, M, lam)
    logger.debug("multistart M=%d lam=%g: alpha*=%.12g sqrt(v)=%.12g", M, lam, alpha, scale)
    return replace(design(source, grid, lam, init), restart_index=0)


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
            "stop_reason": result.stop_reason,
            "kkt_residual": result.kkt_residual,
            "evals": result.evals,
        }
    )
    return data

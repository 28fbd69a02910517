"""Rate-unconstrained equilibrium of the privacy-weighted signaling game.

With linear strategies Z = X + alpha*theta, Y = kappa*Z, theta_hat = nu*Z,
the followers' best responses are the scalar MMSE coefficients

    kappa = E[XZ]/E[Z^2],    nu = E[theta Z]/E[Z^2],

and the leader minimizes

    J(alpha) = E[(X + theta - kappa Z)^2] - lam * E[(theta - nu Z)^2].

J reduces to constant + P(alpha)/v(alpha) with
P = c_x^2 - 2 c_x c_xs + lam c_s^2, and its stationary points solve

    r(rho + r) alpha^2 + (1 + lam r^2) alpha + (lam rho r - 1) = 0.

Calling that quadratic q, differentiation gives

    J'(alpha) = 2 sigma_theta^2 sigma_x^4 (1 - rho^2) q(alpha) / v(alpha)^2,

so for |rho| < 1 J' has the sign of q.  The conjugate-form root, where
q'(alpha*) = +sqrt(disc) > 0, is therefore where J turns from falling to
rising: a strict local minimizer.  J tends to the same limit at both ends of
the real line and has no stationary point besides the two roots, so that
root is also the global minimizer.  optimal_alpha certifies this on every
call at O(1) cost and raises ArithmeticError if any part fails: the relative
residual of q(alpha*) is at most 1e-10, q'(alpha*) > 0, and J(alpha*) does
not exceed J at the other root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian_model import SourceSpec
from .quantizer_core import DistortionReport


@dataclass(frozen=True)
class MomentBundle:
    """Second moments of Z = X + alpha*theta against X, theta, and X + theta."""

    v: float
    c_x: float
    c_s: float
    c_xs: float


@dataclass(frozen=True)
class LinearEquilibrium:
    """Equilibrium coefficients of the unconstrained-rate game at one lam."""

    alpha: float
    kappa: float
    nu: float
    lam: float


def moment_bundle(source: SourceSpec, alpha: float) -> MomentBundle:
    """All second moments of Z = X + alpha*theta needed by the linear stage."""
    sx, st, rho = source.sigma_x, source.sigma_theta, source.rho
    # E[Z^2] = sx^2 + 2 alpha rho sx st + alpha^2 st^2 written as a sum of two
    # squares, which cannot cancel to <= 0 when |rho| is within an ulp of 1
    a = alpha * st / sx
    v = sx**2 * ((1.0 + a * rho) ** 2 + a**2 * (1.0 - rho**2))
    c_x = sx**2 + alpha * rho * sx * st
    c_s = rho * sx * st + alpha * st**2
    return MomentBundle(v=v, c_x=c_x, c_s=c_s, c_xs=c_x + c_s)


def _linear_terms(source: SourceSpec, alpha: float) -> tuple[float, float, float, float, float]:
    """(kappa, nu, fidelity, d_d, d_theta) at alpha and the followers' MMSE responses."""
    mb = moment_bundle(source, alpha)
    if mb.v <= 0:
        raise ValueError("E[Z^2] must be positive; degenerate encoder configuration")
    sx, st, rho = source.sigma_x, source.sigma_theta, source.rho
    kappa = mb.c_x / mb.v
    nu = mb.c_s / mb.v
    e_xt2 = sx**2 + 2.0 * rho * sx * st + st**2
    fidelity = e_xt2 - 2.0 * kappa * mb.c_xs + kappa**2 * mb.v
    d_d = sx**2 - 2.0 * kappa * mb.c_x + kappa**2 * mb.v
    d_theta = st**2 - 2.0 * nu * mb.c_s + nu**2 * mb.v
    return kappa, nu, fidelity, d_d, d_theta


def best_response_coeffs(source: SourceSpec, alpha: float) -> tuple[float, float]:
    """MMSE scalings (kappa, nu) of the decoder and eavesdropper against alpha."""
    kappa, nu, _, _, _ = _linear_terms(source, alpha)
    return kappa, nu


def encoder_objective(source: SourceSpec, alpha: float, lam: float) -> float:
    """Leader objective J(alpha) at the followers' best responses.

    Expanded directly from the moments; tests check it against the
    constant + P/v form of the module docstring.
    """
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    _, _, fidelity, _, d_theta = _linear_terms(source, alpha)
    return fidelity - lam * d_theta


def optimal_alpha(source: SourceSpec, lam: float) -> float:
    """Leader-optimal encoder coefficient alpha*.

    Solves the stationarity quadratic and certifies the returned root as the
    minimizer (see the module docstring).  Raises ValueError for lam < 0 or a
    negative discriminant, and ArithmeticError if the certificate fails.
    """
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    r, rho = source.r, source.rho
    a2 = r * (rho + r)
    a1 = 1.0 + lam * r**2
    a0 = lam * rho * r - 1.0
    if a2 == 0.0:
        alpha = -a0 / a1
        other = None
    else:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0:
            raise ValueError(
                f"negative discriminant {disc}; violates lam >= 0, |rho| <= 1 structure"
            )
        sq = math.sqrt(disc)
        # conjugate form of (-a1 + sq)/(2 a2): immune to cancellation at large lam
        alpha = -2.0 * a0 / (a1 + sq)
        other = (-a1 - sq) / (2.0 * a2)

    residual = a2 * alpha**2 + a1 * alpha + a0
    if abs(residual) > 1e-10 * (abs(a2) * alpha**2 + abs(a1 * alpha) + abs(a0)):
        raise ArithmeticError(f"alpha*={alpha} leaves stationarity residual {residual}")
    if not 2.0 * a2 * alpha + a1 > 0.0:
        raise ArithmeticError(f"alpha*={alpha} is not where J' turns from negative to positive")
    j_star = encoder_objective(source, alpha, lam)
    if other is not None and moment_bundle(source, other).v > 1e-12:
        if j_star > encoder_objective(source, other, lam) + 1e-9 * max(1.0, abs(j_star)):
            raise ArithmeticError(f"alpha*={alpha} is beaten by the other root {other}")
    return alpha


def solve_equilibrium(source: SourceSpec, lam: float) -> LinearEquilibrium:
    """Full equilibrium triple (alpha*, kappa, nu) at privacy weight lam."""
    alpha = optimal_alpha(source, lam)
    kappa, nu = best_response_coeffs(source, alpha)
    return LinearEquilibrium(alpha=alpha, kappa=kappa, nu=nu, lam=lam)


def linear_distortions(source: SourceSpec, alpha: float, lam: float) -> DistortionReport:
    """All distortions of the linear strategy profile at (alpha, MMSE responses)."""
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    _, _, fidelity, d_d, d_theta = _linear_terms(source, alpha)
    return DistortionReport(
        d_e=fidelity - lam * d_theta, fidelity=fidelity, d_d=d_d, d_theta=d_theta
    )

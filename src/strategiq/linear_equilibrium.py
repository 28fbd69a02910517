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
root is also the global minimizer.  Every alpha* comes with a certificate at
O(1) cost: the relative residual of q(alpha*) is at most 1e-10,
q'(alpha*) > 0, E[Z^2] > 0 at alpha*, and J(alpha*) does not exceed J at the
other root.  optimal_alpha raises ArithmeticError (ValueError for E[Z^2] <= 0)
if any part fails.

The formulas live in two vectorized kernels: _terms (moments and distortions
at an array of alpha) and _linear_stage (alpha*, its certificate, E[Z^2],
kappa, nu and the distortions at an array of lam, one numpy pass for a whole
sweep).  The M-message design starts from the stage too: its optimum is the
Lloyd-Max quantizer of Z at alpha* (see optimizer.multistart).
The public functions evaluate the same kernels at one point and return
floats, so a sweep row and the scalar API agree bit for bit:
solve_equilibrium gives the whole equilibrium at one lam from one stage
pass, optimal_alpha its alpha*, and linear_distortions the distortions at
an arbitrary alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussian_model import SourceSpec
from .quantizer_core import DistortionReport, _check_lam


@dataclass(frozen=True)
class LinearEquilibrium:
    """The unconstrained-rate equilibrium at one lam: coefficients and distortions."""

    alpha: float
    kappa: float
    nu: float
    report: DistortionReport


class _Terms(NamedTuple):
    """Moments of Z = X + alpha*theta and the distortions at the MMSE responses."""

    v: np.ndarray
    c_x: np.ndarray
    c_s: np.ndarray
    kappa: np.ndarray
    nu: np.ndarray
    d_e: np.ndarray
    fidelity: np.ndarray
    d_d: np.ndarray
    d_theta: np.ndarray


def _terms(source: SourceSpec, alpha, lam) -> _Terms:
    """Elementwise in alpha and lam (arrays or numpy scalars).

    Callers run it under np.errstate(all="ignore"): where E[Z^2] <= 0 the
    ratios are meaningless, and callers reject that case themselves.
    """
    sx, st, rho = source.sigma_x, source.sigma_theta, source.rho
    # E[Z^2] = sx^2 + 2 alpha rho sx st + alpha^2 st^2 written as a sum of two
    # squares, which cannot cancel to <= 0 when |rho| is within an ulp of 1
    a = alpha * st / sx
    b = 1.0 + a * rho
    v = sx**2 * (b * b + a * a * (1.0 - rho**2))
    c_x = sx**2 + alpha * rho * sx * st
    c_s = rho * sx * st + alpha * st**2
    kappa = c_x / v
    nu = c_s / v
    e_xt2 = sx**2 + 2.0 * rho * sx * st + st**2
    fidelity = e_xt2 - 2.0 * kappa * (c_x + c_s) + kappa * kappa * v
    d_d = sx**2 - 2.0 * kappa * c_x + kappa * kappa * v
    d_theta = st**2 - 2.0 * nu * c_s + nu * nu * v
    return _Terms(v, c_x, c_s, kappa, nu, fidelity - lam * d_theta, fidelity, d_d, d_theta)


_DEGENERATE_TEXT = "E[Z^2] must be positive; degenerate encoder configuration"
# the parts of the certificate in the order they are checked: the first that
# fails names the exception, formatted with the values the stage quotes
_FAILURES = (
    (ValueError, "negative discriminant {disc}; violates lam >= 0, |rho| <= 1 structure"),
    (ArithmeticError, "alpha*={alpha} leaves stationarity residual {residual}"),
    (ArithmeticError, "alpha*={alpha} is not where J' turns from negative to positive"),
    (ValueError, _DEGENERATE_TEXT),
    (ArithmeticError, "alpha*={alpha} is beaten by the other root {other}"),
)


class _Stage(NamedTuple):
    """The linear stage at every lam of a grid, elementwise like lam."""

    alpha: np.ndarray
    certified: np.ndarray  # bool: alpha* passed every part of the certificate
    terms: _Terms  # at alpha*
    failed: tuple  # one bool array per entry of _FAILURES
    quoted: dict  # alpha, disc, residual, other (None where there is no such root)

    def error(self, index=()) -> Exception | None:
        """The exception that rejects alpha* at index, or None if it is certified.

        index is an element index, or () for a stage computed at a numpy scalar.
        """
        for (kind, text), failed in zip(_FAILURES, self.failed):
            if failed[index]:
                return kind(text.format(**{k: None if v is None else float(v[index])
                                           for k, v in self.quoted.items()}))
        return None


def _linear_stage(source: SourceSpec, lam) -> _Stage:
    """alpha*, its certificate, E[Z^2] and the distortions at every nonnegative lam.

    Elementwise in lam, an array or a numpy scalar.
    """
    r, rho = source.r, source.rho
    a2 = r * (rho + r)
    with np.errstate(all="ignore"):
        a1 = 1.0 + lam * r**2
        a0 = lam * rho * r - 1.0
        if a2 == 0.0:
            alpha = -a0 / a1
            disc = other = None
        else:
            disc = a1 * a1 - 4.0 * a2 * a0
            sq = np.sqrt(disc)
            # conjugate form of (-a1 + sq)/(2 a2): immune to cancellation at large lam
            alpha = -2.0 * a0 / (a1 + sq)
            other = (-a1 - sq) / (2.0 * a2)
        alpha_sq = alpha * alpha
        residual = a2 * alpha_sq + a1 * alpha + a0
        scale = abs(a2) * alpha_sq + np.abs(a1 * alpha) + np.abs(a0)
        terms = _terms(source, alpha, lam)
        if other is None:
            negative_disc = beaten = np.zeros_like(alpha, dtype=bool)
        else:
            negative_disc = disc < 0
            rival = _terms(source, other, lam)
            slack = 1e-9 * np.maximum(1.0, np.abs(terms.d_e))
            beaten = (rival.v > 1e-12) & (terms.d_e > rival.d_e + slack)
        failed = (
            negative_disc,
            np.abs(residual) > 1e-10 * scale,
            ~(2.0 * a2 * alpha + a1 > 0.0),
            terms.v <= 0,
            beaten,
        )
    certified = ~(failed[0] | failed[1] | failed[2] | failed[3] | failed[4])
    quoted = {"alpha": alpha, "disc": disc, "residual": residual, "other": other}
    return _Stage(alpha, certified, terms, failed, quoted)


def solve_equilibrium(source: SourceSpec, lam: float) -> LinearEquilibrium:
    """alpha*, the MMSE responses (kappa, nu) and the distortions at privacy weight lam.

    One pass of the stage kernel, which solves the stationarity quadratic and
    certifies the returned root as the minimizer (see the module docstring).
    Raises ValueError for lam < 0, a negative discriminant or E[Z^2] <= 0,
    and ArithmeticError if the rest of the certificate fails.
    """
    _check_lam(lam)
    stage = _linear_stage(source, np.float64(lam))
    error = stage.error()
    if error is not None:
        raise error
    t = stage.terms
    report = DistortionReport(float(t.d_e), float(t.fidelity), float(t.d_d), float(t.d_theta))
    return LinearEquilibrium(float(stage.alpha), float(t.kappa), float(t.nu), report)


def optimal_alpha(source: SourceSpec, lam: float) -> float:
    """Leader-optimal encoder coefficient alpha*; raises as solve_equilibrium does."""
    return solve_equilibrium(source, lam).alpha


def linear_distortions(source: SourceSpec, alpha: float, lam: float) -> DistortionReport:
    """All distortions of the linear strategy profile at (alpha, MMSE responses).

    Raises ValueError for a NaN or infinite alpha, whose distortions would
    be NaN.
    """
    _check_lam(lam)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    with np.errstate(all="ignore"):
        t = _terms(source, np.float64(alpha), lam)
    if t.v <= 0:
        raise ValueError(_DEGENERATE_TEXT)
    return DistortionReport(
        d_e=float(t.d_e), fidelity=float(t.fidelity), d_d=float(t.d_d), d_theta=float(t.d_theta)
    )

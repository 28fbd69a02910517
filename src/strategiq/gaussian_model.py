"""Jointly Gaussian (X, theta) source model and closed-form partial moments.

The source is

    (X, theta) ~ N(0, sigma_x^2 * [[1, rho*r], [rho*r, r^2]]),   r = sigma_theta / sigma_x,

so X | theta=t is Normal(mu_c, sigma_c^2) with

    mu_c    = rho * (sigma_x / sigma_theta) * t,
    sigma_c = sigma_x * sqrt(1 - rho^2).

Every integral downstream (best responses, distortions, gradients) reduces to
partial moments of this conditional law over an interval [a, b], which have
exact error-function expressions.  With z = (x - mu_c)/sigma_c and
alpha = (a - mu_c)/sigma_c, beta = (b - mu_c)/sigma_c:

    mass   = Phi(beta) - Phi(alpha)
    E[X 1]   = mu_c*mass + sigma_c*(phi(alpha) - phi(beta))
    E[X^2 1] = mu_c^2*mass + 2*mu_c*sigma_c*(phi(alpha) - phi(beta))
               + sigma_c^2*(mass + alpha*phi(alpha) - beta*phi(beta))

+-inf endpoints are first-class (phi and z*phi vanish in the tails), so the
outermost quantizer cells need no special casing.

The continuous theta marginal N(0, sigma_theta^2) is discretized by a
ThetaGrid: either Gauss-Hermite nodes/weights (exact for polynomial moments up
to degree 2n-1) or equispaced midpoints on [-5 sigma_theta, 5 sigma_theta]
with cell-probability weights (tail mass folded into the edge cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

_SQRT2PI = math.sqrt(2.0 * math.pi)

#: probability below which a quantizer cell is treated as empty
MASS_FLOOR = 1e-12

GRID_SCHEMES = ("gauss-hermite", "uniform-truncated")
_UNIFORM_TRUNCATION_SIGMAS = 5.0


@dataclass(frozen=True)
class SourceSpec:
    """Validated parameters of the jointly Gaussian (X, theta) source."""

    sigma_x: float
    r: float
    rho: float

    @property
    def sigma_theta(self) -> float:
        return self.r * self.sigma_x

    @property
    def degenerate(self) -> bool:
        """True when |rho| = 1, i.e. theta is a.s. a multiple of X."""
        return abs(self.rho) == 1.0

    def conditional_params(
        self, theta_j: float | np.ndarray
    ) -> tuple[float | np.ndarray, float]:
        """(mean, std) of X given theta = theta_j; theta_j may be an array of nodes."""
        mu_c = self.rho * (self.sigma_x / self.sigma_theta) * theta_j
        sigma_c = self.sigma_x * math.sqrt(max(1.0 - self.rho**2, 0.0))
        return mu_c, sigma_c


@dataclass(frozen=True)
class ThetaGrid:
    """Finite discretization of theta: nodes and probability weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if nodes.size == 0:
            raise ValueError("grid must contain at least one node")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    def second_moment(self) -> float:
        """Grid estimate of E[theta^2]."""
        return float(np.dot(self.weights, self.nodes**2))


def make_source(sigma_x: float, r: float, rho: float) -> SourceSpec:
    """Validate and build a SourceSpec; sigma_theta is derived as r * sigma_x."""
    if not (math.isfinite(sigma_x) and math.isfinite(r) and math.isfinite(rho)):
        raise ValueError("source parameters must be finite")
    if sigma_x <= 0:
        raise ValueError(f"sigma_x must be positive, got {sigma_x}")
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    if abs(rho) > 1:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    return SourceSpec(sigma_x=float(sigma_x), r=float(r), rho=float(rho))


def make_theta_grid(source: SourceSpec, n_nodes: int, scheme: str = "gauss-hermite") -> ThetaGrid:
    """Discretize the theta marginal N(0, sigma_theta^2) into n_nodes atoms.

    gauss-hermite: Hermite nodes rescaled by sqrt(2)*sigma_theta, weights
    normalized to sum to 1.  uniform-truncated: equispaced midpoints on
    [-5, 5] sigma_theta with cell probabilities as weights; tail mass is
    folded into the two edge cells.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    st = source.sigma_theta
    if scheme == "gauss-hermite":
        x, w = np.polynomial.hermite.hermgauss(n_nodes)
        nodes = math.sqrt(2.0) * st * x
        weights = w / w.sum()
    elif scheme == "uniform-truncated":
        edges = np.linspace(-_UNIFORM_TRUNCATION_SIGMAS * st, _UNIFORM_TRUNCATION_SIGMAS * st, n_nodes + 1)
        nodes = 0.5 * (edges[:-1] + edges[1:])
        cdf = ndtr(edges / st)
        weights = np.diff(cdf)
        weights[0] += cdf[0]
        weights[-1] += 1.0 - cdf[-1]
        weights = weights / weights.sum()
    else:
        raise ValueError(f"unsupported grid scheme {scheme!r}; expected one of {GRID_SCHEMES}")
    return ThetaGrid(nodes=nodes, weights=weights)


def _phi(z: np.ndarray) -> np.ndarray:
    """Standard normal pdf; zero at +-inf."""
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z) / _SQRT2PI


def _zphi(z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """z * phi(z) with the correct zero limit at +-inf."""
    return np.multiply(z, phi, out=np.zeros_like(phi), where=np.isfinite(z))


def interval_moments(
    mu: np.ndarray | float, sigma: float, boundaries: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zeroth/first/second partial moments of N(mu, sigma^2) over consecutive cells.

    boundaries holds nondecreasing edges along the last axis (+-inf allowed);
    mu broadcasts against boundaries[..., :-1].  Returns (mass, first, second)
    with one entry per cell along the last axis.
    """
    mu_b = np.asarray(mu)[..., None]
    z = (boundaries - mu_b) / sigma
    cdf = ndtr(z)
    pdf = _phi(z)
    zpdf = _zphi(z, pdf)

    mass = cdf[..., 1:] - cdf[..., :-1]
    dphi = pdf[..., :-1] - pdf[..., 1:]
    first = mu_b * mass + sigma * dphi
    # mu^2 mass + 2 mu sigma dphi + sigma^2 (mass + dzphi), factored
    second = mu_b * first + sigma * (mu_b * dphi + sigma * (mass + zpdf[..., :-1] - zpdf[..., 1:]))
    return mass, first, second


def cell_moments(
    source: SourceSpec, grid: ThetaGrid, boundaries: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-(theta node, cell) partial moments for a boundary matrix.

    boundaries has shape (n_nodes, M+1) with -inf / +inf outer edges; rows must
    be nondecreasing.  Returns (mass, first, second), each of shape (n_nodes, M),
    where second is the second partial moment E[X^2 1_cell | theta_j].
    """
    boundaries = np.asarray(boundaries, dtype=float)
    if boundaries.ndim != 2 or boundaries.shape[0] != grid.n_nodes:
        raise ValueError("boundaries must have one row per theta node")
    mu_c, sigma_c = source.conditional_params(grid.nodes)
    if sigma_c == 0.0:
        raise ValueError("cell moments require a nondegenerate source (|rho| < 1)")
    return interval_moments(mu_c, sigma_c, boundaries)

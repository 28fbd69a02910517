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
ThetaGrid of Gauss-Hermite nodes and weights, exact for polynomial moments up
to degree 2n-1 (so E[theta^2] is exact from 2 nodes on).

Phi and its inverse come from scipy.special, which ndtr and ndtri import in
their body on first use, not at module level: loading it takes longer than
numpy and the rest of the package together (README's Install section gives
the times), and ``import strategiq`` and the closed-form linear stage never
evaluate Phi.  The first quantizer evaluation or Lloyd-Max solve pays the
load once; after it the import is a sys.modules lookup, 0.4-0.9 us on a 2 us
ndtr call.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

_SQRT2PI = math.sqrt(2.0 * math.pi)

#: probability below which a quantizer cell is treated as empty
MASS_FLOOR = 1e-12
#: the most theta nodes make_theta_grid builds: numpy's hermgauss returns
#: weights that overflow to 0 or NaN from 371 nodes on
MAX_THETA_NODES = 370


@dataclass(frozen=True)
class SourceSpec:
    """Parameters of the jointly Gaussian (X, theta) source, stored as floats.

    ValueError unless sigma_x and r are positive and finite and |rho| <= 1.
    """

    sigma_x: float
    r: float
    rho: float

    def __post_init__(self) -> None:
        sigma_x, r, rho = self.sigma_x, self.r, self.rho
        if not (math.isfinite(sigma_x) and math.isfinite(r) and math.isfinite(rho)):
            raise ValueError("source parameters must be finite")
        if sigma_x <= 0:
            raise ValueError(f"sigma_x must be positive, got {sigma_x}")
        if r <= 0:
            raise ValueError(f"r must be positive, got {r}")
        if abs(rho) > 1:
            raise ValueError(f"rho must lie in [-1, 1], got {rho}")
        for name in ("sigma_x", "r", "rho"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def sigma_theta(self) -> float:
        return self.r * self.sigma_x

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
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodes must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        # NaN fails the comparison too, so NaN weights are rejected here
        if not abs(weights.sum() - 1.0) <= 1e-12:
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


def _as_count(name: str, value) -> int:
    """value as an int; ValueError unless it is an integer (no bool, no fraction) >= 1."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    count = int(value)
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    return count


def ndtr(x: np.ndarray | float) -> np.ndarray:
    """Standard normal CDF Phi, elementwise: scipy.special.ndtr, loaded on first use."""
    from scipy import special

    return special.ndtr(x)


def ndtri(p: np.ndarray | float) -> np.ndarray:
    """Inverse of Phi, elementwise: scipy.special.ndtri, loaded on first use."""
    from scipy import special

    return special.ndtri(p)


def make_source(sigma_x: float, r: float, rho: float) -> SourceSpec:
    """SourceSpec(sigma_x, r, rho), which checks them; sigma_theta is derived as r * sigma_x."""
    return SourceSpec(sigma_x=sigma_x, r=r, rho=rho)


def make_theta_grid(source: SourceSpec, n_nodes: int, scheme: str = "gauss-hermite") -> ThetaGrid:
    """Discretize the theta marginal N(0, sigma_theta^2) into n_nodes Gauss-Hermite atoms.

    The Hermite nodes are rescaled by sqrt(2)*sigma_theta and the weights
    normalized to sum to 1.  scheme must be "gauss-hermite", the only one.
    n_nodes is an integer from 1 to MAX_THETA_NODES.
    """
    n_nodes = _as_count("n_nodes", n_nodes)
    if n_nodes > MAX_THETA_NODES:
        raise ValueError(f"n_nodes must be <= {MAX_THETA_NODES}, got {n_nodes}")
    if scheme != "gauss-hermite":
        raise ValueError(f"unsupported grid scheme {scheme!r}; expected 'gauss-hermite'")
    x, w = _hermite_rule(n_nodes)
    nodes = math.sqrt(2.0) * source.sigma_theta * x
    weights = w / w.sum()
    return ThetaGrid(nodes=nodes, weights=weights)


@functools.lru_cache(maxsize=None)
def _hermite_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Hermite nodes and weights, computed once per node count, read-only."""
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _phi(z: np.ndarray) -> np.ndarray:
    """Standard normal pdf; zero at +-inf."""
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z) / _SQRT2PI


def _zphi(z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """z * phi(z) with the correct zero limit at +-inf."""
    return np.multiply(z, phi, out=np.zeros(phi.shape), where=np.isfinite(z))


def interval_moments(
    mu: np.ndarray | float, sigma: float, boundaries: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zeroth/first/second partial moments of N(mu, sigma^2) over consecutive cells.

    boundaries holds nondecreasing edges along the last axis (+-inf allowed);
    mu broadcasts against boundaries[..., :-1].  Returns (mass, first, second)
    with one entry per cell along the last axis.
    """
    mu_b = np.asarray(mu)[..., None]
    return _standardized_moments(mu_b, sigma, (boundaries - mu_b) / sigma)[:3]


def _standardized_moments(
    mu_b: np.ndarray, sigma: float, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """interval_moments given the standardized edges z; also returns phi(z)."""
    cdf = ndtr(z)
    pdf = _phi(z)
    zpdf = _zphi(z, pdf)

    mass = cdf[..., 1:] - cdf[..., :-1]
    dphi = pdf[..., :-1] - pdf[..., 1:]
    first = mu_b * mass + sigma * dphi
    # mu^2 mass + 2 mu sigma dphi + sigma^2 (mass + dzphi), factored
    second = mu_b * first + sigma * (mu_b * dphi + sigma * (mass + zpdf[..., :-1] - zpdf[..., 1:]))
    return mass, first, second, pdf


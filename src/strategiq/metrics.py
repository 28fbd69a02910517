"""Quantizer similarity and the non-strategic Lloyd-Max baseline.

Similarity between two theta nodes' rows is the KL divergence between the
message distributions they induce under the *marginal* law of X:

    D_KL(a, b) = sum_m p_m(a) log(p_m(a) / p_m(b)),
    p_m(j) = Phi(q_{j,m}/sigma_x) - Phi(q_{j,m-1}/sigma_x).

Message-skipping rows can legitimately produce p_m(a) > 0 with p_m(b) = 0;
that pair's divergence is +inf, kept as a sentinel rather than raised.

The Lloyd-Max fixed point (boundaries at reconstruction midpoints,
reconstructions at cell conditional means of N(0, sigma_x^2)) supplies the
fully-revealing baseline that the strategic designs approach as the privacy
weight grows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian_model import (
    MASS_FLOOR, SourceSpec, ThetaGrid, _as_count, interval_moments, ndtr, ndtri,
)
from .quantizer_core import Quantizer

# lloyd_max stops once the distortion changes by less than this
_LLOYD_TOL = 1e-12
_LLOYD_MAX_ITERS = 200_000


@dataclass(frozen=True)
class SimilarityReport:
    """Pairwise KL divergences between theta rows and their maximum."""

    pairwise: np.ndarray
    d_max: float


@dataclass(frozen=True)
class LloydMaxResult:
    """Non-strategic MSE-optimal scalar quantizer of N(0, sigma_x^2)."""

    boundaries: np.ndarray
    levels: np.ndarray
    distortion: float
    iterations: int


def _marginal_message_probs(q: Quantizer, source: SourceSpec) -> np.ndarray:
    """(n_theta, M) matrix of marginal-of-X cell masses for every row.

    Each cell is formed from the tail it lies in, so an upper-tail cell does
    not round to 0 (Phi(b) - Phi(a) does once a > ~8.3 sigma_x) and a row and
    its mirror image get the same masses in reverse order.
    """
    z = q.boundaries / source.sigma_x
    below, above = ndtr(z), ndtr(-z)  # mass below and above each boundary
    across = 1.0 - (below[:, :-1] + above[:, 1:])
    in_lower = np.where(z[:, 1:] <= 0.0, below[:, 1:] - below[:, :-1], across)
    return np.where(z[:, :-1] >= 0.0, above[:, :-1] - above[:, 1:], in_lower)


def max_kl(q: Quantizer, source: SourceSpec, grid: ThetaGrid) -> SimilarityReport:
    """Full ordered-pair divergence matrix and its maximum."""
    if q.n_theta != grid.n_nodes:
        raise ValueError("quantizer rows must match the theta grid")
    probs = _marginal_message_probs(q, source)
    pa, pb = probs[:, None, :], probs[None, :, :]  # (a, b, message)
    active = pa > 0.0
    # the diagonal is exactly 0: p / p == 1 for every active p
    with np.errstate(divide="ignore", invalid="ignore"):
        pairwise = np.where(active, pa * np.log(pa / pb), 0.0).sum(axis=2)
    pairwise[(active & (pb <= 0.0)).any(axis=2)] = math.inf
    return SimilarityReport(pairwise=pairwise, d_max=float(pairwise.max()))


def lloyd_max(source: SourceSpec, M: int) -> LloydMaxResult:
    """Classical centroid/midpoint fixed point for the marginal N(0, sigma_x^2).

    Iterates until the distortion changes by less than _LLOYD_TOL and the
    boundaries by less than 1e-11 sigma_x.  M is an integer >= 1.
    """
    M = _as_count("M", M)
    sx = source.sigma_x
    if M == 1:
        return LloydMaxResult(
            boundaries=np.array([-np.inf, np.inf]),
            levels=np.zeros(1),
            distortion=sx**2,
            iterations=0,
        )
    # equiprobable cells as the starting boundaries
    b = np.concatenate(([-np.inf], sx * ndtri(np.linspace(0.0, 1.0, M + 1)[1:-1]), [np.inf]))
    prev = math.inf
    iterations = 0
    for iterations in range(1, _LLOYD_MAX_ITERS + 1):
        levels, dist = _lloyd_step(b, sx)
        new_b = np.concatenate(([-np.inf], 0.5 * (levels[:-1] + levels[1:]), [np.inf]))
        moved = float(np.max(np.abs(new_b[1:-1] - b[1:-1])))
        b = new_b
        # boundary stability on top of the distortion criterion: downstream
        # stationarity checks need the fixed point itself, not just its value
        if abs(prev - dist) < _LLOYD_TOL and moved < 1e-11 * sx:
            break
        prev = dist
    levels, dist = _lloyd_step(b, sx)
    return LloydMaxResult(boundaries=b, levels=levels, distortion=dist, iterations=iterations)


def _lloyd_step(b: np.ndarray, sx: float) -> tuple[np.ndarray, float]:
    mass, first, second = interval_moments(0.0, sx, b)
    levels = np.divide(first, mass, out=np.zeros_like(mass), where=mass >= MASS_FLOOR)
    dist = float(np.sum(second - 2.0 * levels * first + levels**2 * mass))
    return levels, dist


@functools.lru_cache(maxsize=64)
def _lloyd_max_row(sigma_x: float, M: int) -> np.ndarray:
    """lloyd_max's boundaries, read-only: the fixed point depends on sigma_x and M alone."""
    row = lloyd_max(SourceSpec(sigma_x=sigma_x, r=1.0, rho=0.0), M).boundaries
    row.flags.writeable = False
    return row


def lloyd_max_quantizer(source: SourceSpec, M: int, grid: ThetaGrid) -> Quantizer:
    """Fully-revealing baseline: the Lloyd-Max row replicated across theta nodes.

    The row is solved once per (sigma_x, M) and cached.
    """
    return Quantizer(M=M, boundaries=np.tile(_lloyd_max_row(source.sigma_x, M), (grid.n_nodes, 1)))


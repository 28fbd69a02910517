"""Theta-parameterized quantizer: representation, best responses, distortions.

A quantizer with M messages assigns to each theta node its own nondecreasing
boundary row (-inf = q_0 <= q_1 <= ... <= q_M = +inf); message m covers
[q_{m-1}, q_m].  Coincident interior boundaries are legal and encode a cell
that node never uses (the encoder skips that message for that theta).

Best responses pool partial moments across theta nodes:

    y_m         = sum_j w_j first_{j,m} / sum_j w_j mass_{j,m}
    theta_hat_m = sum_j w_j theta_j mass_{j,m} / sum_j w_j mass_{j,m}

and all three distortions expand exactly in the cells' zeroth/first/second
partial moments, so the evaluation carries no quadrature error.  Cells whose
pooled mass falls below MASS_FLOOR get deterministic, distortion-neutral
reconstructions (boundary-span midpoint for y, prior mean for theta_hat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian_model import MASS_FLOOR, SourceSpec, ThetaGrid, cell_moments


@dataclass(frozen=True)
class Quantizer:
    """Per-theta-node boundary rows sharing M message labels."""

    M: int
    boundaries: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.boundaries, dtype=float)
        b.flags.writeable = False
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "M", int(self.M))

    @property
    def n_theta(self) -> int:
        return self.boundaries.shape[0]

    def interior(self) -> np.ndarray:
        """The finite boundary columns, shape (n_theta, M-1)."""
        return self.boundaries[:, 1:-1]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of structural checks: hard violations and informational notes."""

    violations: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class BestResponses:
    """Decoder reconstructions, eavesdropper estimates, and pooled cell masses."""

    y: np.ndarray
    theta_hat: np.ndarray
    cell_mass: np.ndarray


@dataclass(frozen=True)
class DistortionReport:
    """Distortions of one strategy profile, all in variance units."""

    d_e: float
    fidelity: float
    d_d: float
    d_theta: float


def validate(q: Quantizer) -> ValidationReport:
    """Diagnose shape, NaN, and monotonicity problems; note empty cells."""
    violations: list[str] = []
    notes: list[str] = []
    b = q.boundaries
    if q.M < 1:
        violations.append(f"M must be >= 1, got {q.M}")
    if b.ndim != 2 or b.shape[1] != q.M + 1:
        violations.append(f"boundaries shape {b.shape} does not match (n_theta, M+1) for M={q.M}")
        return ValidationReport(tuple(violations), tuple(notes))
    if np.isnan(b).any():
        violations.append("boundaries contain NaN")
    for j, row in enumerate(b):
        if row[0] != -np.inf:
            violations.append(f"row {j}: first boundary must be -inf, got {row[0]}")
        if row[-1] != np.inf:
            violations.append(f"row {j}: last boundary must be +inf, got {row[-1]}")
        diffs = np.diff(row)
        if np.any(diffs < 0):
            violations.append(f"row {j}: boundaries not nondecreasing")
        elif np.any(row[:-1] == row[1:]):
            notes.append(f"row {j}: coincident boundaries leave at least one cell empty")
    return ValidationReport(tuple(violations), tuple(notes))


def pooled_cell_stats(
    q: Quantizer, source: SourceSpec, grid: ThetaGrid
) -> dict[str, np.ndarray]:
    """Pooled per-message sums used by responses, distortions, and gradients.

    Keys (each a length-M vector): N = mass, A = first moment of x,
    S = second moment of x, T = first moment of theta, B = cross moment
    x*theta, U = second moment of theta.
    """
    mass, first, second = cell_moments(source, grid, q.boundaries)
    w = grid.weights
    wt = w * grid.nodes
    wt2 = w * grid.nodes**2
    return {
        "N": w @ mass,
        "A": w @ first,
        "S": w @ second,
        "T": wt @ mass,
        "B": wt @ first,
        "U": wt2 @ mass,
        "mass": mass,
        "first": first,
        "second": second,
    }


def _empty_cell_y(q: Quantizer, m: int) -> float:
    """Deterministic reconstruction for a zero-mass cell m (0-based)."""
    lo = q.boundaries[:, m].min()
    hi = q.boundaries[:, m + 1].max()
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    return 0.0


def decoder_best_response(q: Quantizer, source: SourceSpec, grid: ThetaGrid) -> np.ndarray:
    """Per-message conditional means of X, pooled across theta nodes."""
    stats = pooled_cell_stats(q, source, grid)
    return _decoder_from_stats(q, stats["N"], stats["A"])


def _decoder_from_stats(q: Quantizer, n: np.ndarray, a: np.ndarray) -> np.ndarray:
    y = np.empty(q.M)
    for m in range(q.M):
        y[m] = a[m] / n[m] if n[m] >= MASS_FLOOR else _empty_cell_y(q, m)
    return y


def eavesdropper_best_response(q: Quantizer, source: SourceSpec, grid: ThetaGrid) -> np.ndarray:
    """Per-message conditional means of theta; prior mean 0 for empty cells."""
    stats = pooled_cell_stats(q, source, grid)
    return _eavesdropper_from_stats(stats["N"], stats["T"])


def _eavesdropper_from_stats(n: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.divide(t, n, out=np.zeros_like(t), where=n >= MASS_FLOOR)


def best_responses(q: Quantizer, source: SourceSpec, grid: ThetaGrid) -> BestResponses:
    """Both followers' best responses computed from one partial-moment pass."""
    stats = pooled_cell_stats(q, source, grid)
    return BestResponses(
        y=_decoder_from_stats(q, stats["N"], stats["A"]),
        theta_hat=_eavesdropper_from_stats(stats["N"], stats["T"]),
        cell_mass=stats["N"],
    )


def distortions(
    q: Quantizer,
    br: BestResponses,
    source: SourceSpec,
    grid: ThetaGrid,
    lam: float,
) -> DistortionReport:
    """Exact distortions of quantizer q played against responses br.

    br need not be the best response; off-equilibrium profiles are evaluated
    as given (deviation tests and oracles rely on this).
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    stats = pooled_cell_stats(q, source, grid)
    return _distortions_from_stats(stats, br.y, br.theta_hat, lam)


def _distortions_from_stats(
    stats: dict[str, np.ndarray], y: np.ndarray, theta_hat: np.ndarray, lam: float
) -> DistortionReport:
    n, t, u = stats["N"], stats["T"], stats["U"]
    # sum_m E[(X - y_m)^2 1_m] and the analogous sums, as dot products
    d_d = float(stats["S"].sum() - 2.0 * (y @ stats["A"]) + (y * y) @ n)
    u_sum = float(u.sum())
    fidelity = d_d + 2.0 * float(stats["B"].sum()) + u_sum - 2.0 * float(y @ t)
    d_theta = u_sum - 2.0 * float(theta_hat @ t) + float((theta_hat * theta_hat) @ n)
    return DistortionReport(
        d_e=fidelity - lam * d_theta, fidelity=fidelity, d_d=d_d, d_theta=d_theta
    )


def evaluate(
    q: Quantizer, source: SourceSpec, grid: ThetaGrid, lam: float
) -> tuple[BestResponses, DistortionReport]:
    """Best responses and the resulting distortions in a single moment pass."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    stats = pooled_cell_stats(q, source, grid)
    y = _decoder_from_stats(q, stats["N"], stats["A"])
    theta_hat = _eavesdropper_from_stats(stats["N"], stats["T"])
    br = BestResponses(y=y, theta_hat=theta_hat, cell_mass=stats["N"])
    return br, _distortions_from_stats(stats, y, theta_hat, lam)


def _encode_boundary(v: float) -> float | str:
    if v == np.inf:
        return "inf"
    if v == -np.inf:
        return "-inf"
    return float(v)


def _decode_boundary(v: float | str) -> float:
    if v == "inf":
        return np.inf
    if v == "-inf":
        return -np.inf
    return float(v)


def quantizer_to_dict(q: Quantizer, grid: ThetaGrid) -> dict:
    """JSON-ready dict with "inf"/"-inf" string sentinels for infinite edges."""
    return {
        "M": q.M,
        "theta_nodes": [float(t) for t in grid.nodes],
        "boundaries": [[_encode_boundary(v) for v in row] for row in q.boundaries],
    }


def quantizer_from_dict(data: dict) -> tuple[Quantizer, np.ndarray]:
    """Inverse of quantizer_to_dict; returns the quantizer and its theta nodes."""
    boundaries = np.array(
        [[_decode_boundary(v) for v in row] for row in data["boundaries"]], dtype=float
    )
    return Quantizer(M=int(data["M"]), boundaries=boundaries), np.asarray(
        data["theta_nodes"], dtype=float
    )

"""Theta-parameterized quantizer: representation, best responses, distortions.

A quantizer with M messages assigns to each theta node its own nondecreasing
boundary row (-inf = q_0 <= q_1 <= ... <= q_M = +inf); message m covers
[q_{m-1}, q_m].  Coincident interior boundaries are legal and encode a cell
that node never uses (the encoder skips that message for that theta).  The
constructor raises ValueError on any other shape of row, so every function
here, and quantizer_from_dict, works on well-formed rows only.  _check_lam is
the one check of the privacy weight's domain for every function of the
package that takes lam.

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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .gaussian_model import MASS_FLOOR, SourceSpec, ThetaGrid, _as_count, _standardized_moments


@dataclass(frozen=True)
class Quantizer:
    """Per-theta-node boundary rows sharing M message labels.

    Construction raises ValueError unless M is an integer >= 1 (a bool or a
    number with a fractional part is none) and boundaries is a NaN-free
    (n_theta, M+1) array whose rows run nondecreasing from -inf to +inf.
    """

    M: int
    boundaries: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.boundaries, dtype=float)
        b.flags.writeable = False
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "M", _as_count("M", self.M))
        if b.ndim != 2 or b.shape[1] != self.M + 1:
            raise ValueError(
                f"boundaries shape {b.shape} does not match (n_theta, M+1) for M={self.M}"
            )
        if np.isnan(b).any():
            raise ValueError("boundaries contain NaN")
        first_bad, last_bad = b[:, 0] != -np.inf, b[:, -1] != np.inf
        decreasing = (b[:, 1:] < b[:, :-1]).any(axis=1)
        bad = np.flatnonzero(first_bad | last_bad | decreasing)
        if bad.size:
            j = bad[0]
            if first_bad[j]:
                raise ValueError(f"row {j}: first boundary must be -inf, got {b[j, 0]}")
            if last_bad[j]:
                raise ValueError(f"row {j}: last boundary must be +inf, got {b[j, -1]}")
            raise ValueError(f"row {j}: boundaries not nondecreasing")

    @property
    def n_theta(self) -> int:
        return self.boundaries.shape[0]

    def interior(self) -> np.ndarray:
        """The finite boundary columns, shape (n_theta, M-1)."""
        return self.boundaries[:, 1:-1]


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


def _check_lam(lam: float) -> None:
    """The privacy weight's domain, shared by every function that takes lam."""
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    if lam == math.inf:
        raise ValueError("lam must be finite")


# _moment_pass's constants: the mu_c column, sigma_c, the -inf/+inf columns, w,
# w*theta, w*theta^2, and f's quantizer-free total c1
_GridTerms = namedtuple("_GridTerms", "mu sigma edge_lo edge_hi w wt wt2 c1")
_MomentPass = namedtuple("_MomentPass", "sums y theta_hat dist density f")


def _grid_terms(source: SourceSpec, grid: ThetaGrid, n_rows: int) -> _GridTerms:
    """_GridTerms for boundaries with n_rows rows."""
    if n_rows != grid.n_nodes:
        raise ValueError("boundaries must have one row per theta node")
    mu_c, sigma_c = source.conditional_params(grid.nodes)
    edge = np.full((n_rows, 1), np.inf)
    w = grid.weights
    c1 = float(w @ ((mu_c + grid.nodes) ** 2 + sigma_c * sigma_c))
    return _GridTerms(mu_c[:, None], sigma_c, -edge, edge, w, w * grid.nodes, w * grid.nodes**2, c1)


def _moment_pass(interior: np.ndarray, terms: _GridTerms, lam: float) -> _MomentPass:
    """One Phi/phi evaluation at the interior boundaries (n_nodes, M-1), and all it yields.

    The cell moments are interval_moments', with the +-inf edges entering z
    as +-inf.  Returns (sums, y, theta_hat, dist, density, f): the
    per-message pooled sums (N, A, S, T, B, U), that is the mass and the
    moments of x, x^2, theta, x*theta and theta^2 over the cell; both best
    responses; DistortionReport's (d_e, fidelity, d_d, d_theta); the
    conditional density of X at each interior boundary; and the descent's
    objective f = d_e + lam * E_grid[theta^2].  f is c1 - sum_m Phi_m with
    Phi = (A^2 + 2AT - lam T^2)/N = N (y^2 + 2 y theta_hat - lam theta_hat^2)
    and c1 = sum_j w_j ((mu_j + theta_j)^2 + sigma_c^2), so no term of size
    lam * E[theta^2] is formed and cancelled.  Cells below MASS_FLOOR carry no Phi.
    """
    mu, sigma, edge_lo, edge_hi, w, wt, wt2, c1 = terms
    z = np.concatenate((edge_lo, (interior - mu) / sigma, edge_hi), axis=1)
    mass, first, second, pdf = _standardized_moments(mu, sigma, z)
    sums = (w @ mass, w @ first, w @ second, wt @ mass, wt @ first, wt2 @ mass)
    n, a, t = sums[0], sums[1], sums[3]
    # a full cell divides by its own N; an empty one's quotients are overwritten
    empty = np.flatnonzero(~(n >= MASS_FLOOR))
    safe_n = np.maximum(n, MASS_FLOOR)
    y, theta_hat = a / safe_n, t / safe_n
    theta_hat[empty] = 0.0
    for m in empty:
        y[m] = _empty_cell_y(interior, m)
    phi = n * (y * (y + 2.0 * theta_hat) - lam * theta_hat * theta_hat)
    phi[empty] = 0.0
    return _MomentPass(sums, y, theta_hat, _distortions(sums, y, theta_hat, lam),
                       pdf[:, 1:-1] / sigma, c1 - float(phi.sum()))


def _empty_cell_y(interior: np.ndarray, m: int) -> float:
    """Deterministic reconstruction for a zero-mass cell m (0-based): its span's midpoint."""
    if 0 < m < interior.shape[1]:
        lo = interior[:, m - 1].min()
        hi = interior[:, m].max()
        if math.isfinite(lo) and math.isfinite(hi):
            return 0.5 * (lo + hi)
    return 0.0


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
    _check_lam(lam)
    sums = _moment_pass(q.interior(), _grid_terms(source, grid, q.n_theta), lam).sums
    return DistortionReport(*_distortions(sums, br.y, br.theta_hat, lam))


def _distortions(
    sums: tuple[np.ndarray, ...], y: np.ndarray, theta_hat: np.ndarray, lam: float
) -> tuple[float, float, float, float]:
    """(d_e, fidelity, d_d, d_theta) from the pooled sums and the responses."""
    n, a, s, t, b, u = sums
    # sum_m E[(X - y_m)^2 1_m] and the analogous sums, as dot products
    d_d = float(s.sum() - 2.0 * (y @ a) + (y * y) @ n)
    u_sum = float(u.sum())
    fidelity = d_d + 2.0 * float(b.sum()) + u_sum - 2.0 * float(y @ t)
    d_theta = u_sum - 2.0 * float(theta_hat @ t) + float((theta_hat * theta_hat) @ n)
    return fidelity - lam * d_theta, fidelity, d_d, d_theta


def evaluate(
    q: Quantizer, source: SourceSpec, grid: ThetaGrid, lam: float
) -> tuple[BestResponses, DistortionReport]:
    """Both followers' best responses to q and the resulting distortions.

    The decoder plays the pooled conditional mean of X per message (the
    boundary-span midpoint for an empty cell), the eavesdropper that of
    theta (the prior mean 0 for an empty cell); one partial-moment pass
    serves the responses and the distortions.
    """
    _check_lam(lam)
    state = _moment_pass(q.interior(), _grid_terms(source, grid, q.n_theta), lam)
    return (BestResponses(y=state.y, theta_hat=state.theta_hat, cell_mass=state.sums[0]),
            DistortionReport(*state.dist))


# JSON has no infinities: they travel as these strings
_INF_FROM_JSON = {"inf": math.inf, "-inf": -math.inf}


def _json_float(value) -> float | str | None:
    """JSON form of a float, with "inf"/"-inf" for the infinities; None stays None."""
    if value is None:
        return None
    v = float(value)
    return "inf" if v == math.inf else ("-inf" if v == -math.inf else v)


def _float_from_json(value) -> float | None:
    """Inverse of _json_float; ValueError on any string but "inf" and "-inf"."""
    if isinstance(value, str):
        if value not in _INF_FROM_JSON:
            raise ValueError(f'expected a number, "inf" or "-inf", got {value!r}')
        return _INF_FROM_JSON[value]
    return None if value is None else float(value)


def quantizer_to_dict(q: Quantizer, grid: ThetaGrid) -> dict:
    """JSON-ready dict with "inf"/"-inf" string sentinels for infinite edges."""
    return {
        "M": q.M,
        "theta_nodes": [float(t) for t in grid.nodes],
        "boundaries": [[_json_float(v) for v in row] for row in q.boundaries],
    }


def quantizer_from_dict(data: dict) -> tuple[Quantizer, np.ndarray]:
    """Inverse of quantizer_to_dict; returns the quantizer and its theta nodes.

    ValueError unless there is one theta node per boundary row.
    """
    boundaries = np.array(
        [[_float_from_json(v) for v in row] for row in data["boundaries"]], dtype=float
    )
    q = Quantizer(M=data["M"], boundaries=boundaries)
    nodes = np.asarray(data["theta_nodes"], dtype=float)
    if nodes.shape != (q.n_theta,):
        raise ValueError(f"{nodes.size} theta_nodes for {q.n_theta} boundary rows")
    return q, nodes

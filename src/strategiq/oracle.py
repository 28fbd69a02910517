"""Independent verification paths for the quantizer pipeline.

Two oracles, deliberately unsophisticated:

* brute_force_design enumerates every assignment of interior boundaries to a
  fixed candidate grid (per theta row, nondecreasing tuples), evaluates the
  encoder Lagrangian at exact best responses, and returns the global grid
  optimum.  Feasible only for tiny instances (M=2, a few theta nodes); the
  gradient designer must land at or below this value up to grid resolution.
  Assignments are scored in blocks of at most _CHUNK, so its memory is
  O(_CHUNK) whatever the number of assignments.

* monte_carlo_distortions samples the discretized source, pushes samples
  through the quantizer and both estimators, and averages squared errors.
  Theta is drawn from the grid atoms, not the continuum, so that quadrature
  and sampling share the same model and any discrepancy isolates an
  integration bug rather than a discretization gap.

Sampling order: the samples are those of one ``default_rng(seed)`` that draws
all n_samples node indices (``choice`` with the grid weights, one double per
sample) and then all n_samples standard normals.  The oracle streams them in
fixed chunks of _MC_CHUNK samples: one PCG64(seed) draws the uniforms of the
node indices chunk by chunk, and a second PCG64(seed), advanced past the
n_samples uniforms, draws the normals.  ``choice`` itself is not called: a
guide table over _BUCKETS equal-width buckets maps each uniform to the index
``choice`` gives it, and only uniforms in a bucket that holds a CDF value are
searched.  Means and variances are folded chunk by chunk with the pairwise
update of Chan, Golub & LeVeque ("Algorithms for computing the sample
variance", 1983), so memory is O(_MC_CHUNK) whatever n_samples is.  The
samples are the ones whole-array sampling draws; only the order of summation
differs, so the reported means and standard errors can differ from releases
that summed whole arrays in the last few digits.

Lookahead: each call draws the stream one chunk ahead on one worker thread,
which draws chunk i + 1 while the calling thread folds chunk i (numpy fills
both PCG64 streams with the GIL released).  Only the worker advances the
stream, one chunk per request, and the chunks are folded in stream order, so
the samples and the results do not depend on how the two threads are
scheduled.  At most two chunks are held at a time, so memory stays
O(_MC_CHUNK); the thread is joined before the call returns or raises, and
there is nothing to configure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian_model import MASS_FLOOR, SourceSpec, ThetaGrid, _as_count, interval_moments
from .optimizer import DesignResult
from .quantizer_core import BestResponses, DistortionReport, Quantizer, _check_lam, evaluate

_MAX_ENUMERATION = 100_000_000
_SPAN_SIGMAS = 3.0  # make_oracle_grid's candidates span +-this many sigma_x
_CHUNK = 8_192  # boundary assignments per brute-force block; its six sums fit in L2
_MC_CHUNK = 32_768  # Monte Carlo samples per chunk
_BUCKETS = 4_096  # guide-table buckets for node indices; a power of two


@dataclass(frozen=True)
class OracleGrid:
    """Candidate boundary positions for exhaustive search."""

    candidates: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.candidates, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("candidates must be a nonempty 1-D array")
        if np.any(np.diff(c) <= 0):
            raise ValueError("candidates must be strictly increasing")
        c.flags.writeable = False
        object.__setattr__(self, "candidates", c)


@dataclass(frozen=True)
class MonteCarloReport:
    """Sampled distortions with per-quantity standard errors."""

    report: DistortionReport
    se_fidelity: float
    se_d_d: float
    se_d_theta: float
    se_d_e: float
    n_samples: int


def make_oracle_grid(source: SourceSpec, n_points: int = 41) -> OracleGrid:
    """n_points equispaced candidates on [-3, +3] sigma_x."""
    half = _SPAN_SIGMAS * source.sigma_x
    return OracleGrid(candidates=np.linspace(-half, half, _as_count("n_points", n_points)))


def brute_force_design(
    source: SourceSpec,
    grid: ThetaGrid,
    M: int,
    lam: float,
    ogrid: OracleGrid,
) -> DesignResult:
    """Global optimum over all grid-valued boundary matrices.

    Ties break toward the lexicographically smallest boundary tuple (rows
    scanned in order, candidates ascending).  Raises if the enumeration count
    exceeds the feasibility cap, reporting the count.
    """
    M = _as_count("M", M)
    _check_lam(lam)
    n_rows = grid.n_nodes
    cands = ogrid.candidates
    # at M = 1 the one choice is the empty tuple, a (1, 0) array
    choice_idx = np.array(
        list(itertools.combinations_with_replacement(range(cands.size), M - 1)), dtype=int
    )
    n_choices = choice_idx.shape[0]
    total = int(n_choices) ** n_rows  # Python ints: no overflow before the cap check
    if total > _MAX_ENUMERATION:
        raise ValueError(
            f"enumeration of {n_choices}^{n_rows} = {total} boundary assignments "
            f"exceeds the {_MAX_ENUMERATION} cap"
        )

    # per-row (n_choices, M) weighted moment tables under the conditional law
    rows_bounds = np.hstack(
        [np.full((n_choices, 1), -np.inf), cands[choice_idx], np.full((n_choices, 1), np.inf)]
    )
    mu_all, sigma_c = source.conditional_params(grid.nodes)
    tables = []
    for j in range(n_rows):
        mass, first, second = interval_moments(float(mu_all[j]), sigma_c, rows_bounds)
        w, th = grid.weights[j], grid.nodes[j]
        tables.append(
            (w * mass, w * first, w * second, w * th * mass, w * th * first, w * th**2 * mass)
        )

    # Lexicographic enumeration (row 0 most significant, candidates ascending)
    # in blocks of at most _CHUNK assignments: rows before `lead` are fixed per
    # block, row `lead` takes a slice of its choices, and the rows after it are
    # broadcast in full.  Rows are added in row order, starting from 0.0, so
    # every sum is the one a row-by-row accumulation gives.
    lead = 0
    while n_choices ** (n_rows - lead - 1) > _CHUNK:
        lead += 1
    inner = n_choices ** (n_rows - lead - 1)
    step = min(n_choices, _CHUNK // inner)
    best_d_e = math.inf
    best_index = -1
    for p, prefix in enumerate(itertools.product(range(n_choices), repeat=lead)):
        base = [0.0] * 6
        for j, k in enumerate(prefix):
            base = [acc + table[k] for acc, table in zip(base, tables[j])]
        for lo in range(0, n_choices, step):
            block = [acc + table[lo:lo + step] for acc, table in zip(base, tables[lead])]
            for j in range(lead + 1, n_rows):
                block = [
                    (acc[:, None, :] + table[None, :, :]).reshape(-1, M)
                    for acc, table in zip(block, tables[j])
                ]
            n, a, s, t, b, u = block
            safe = np.where(n >= MASS_FLOOR, n, 1.0)
            y = np.where(n >= MASS_FLOOR, a / safe, 0.0)
            th_hat = np.where(n >= MASS_FLOOR, t / safe, 0.0)
            fidelity = np.sum(s + 2.0 * b + u - 2.0 * y * (a + t) + y**2 * n, axis=1)
            d_theta = np.sum(u - 2.0 * th_hat * t + th_hat**2 * n, axis=1)
            d_e = fidelity - lam * d_theta
            i = int(np.argmin(d_e))
            if d_e[i] < best_d_e:  # strict: first occurrence wins, i.e. lexicographic
                best_d_e = float(d_e[i])
                best_index = (p * n_choices + lo) * inner + i

    radix = [n_choices**p for p in range(n_rows - 1, -1, -1)]
    ks = [(best_index // radix[j]) % n_choices for j in range(n_rows)]
    boundaries = np.vstack([rows_bounds[k] for k in ks])
    q = Quantizer(M=M, boundaries=boundaries)
    br, report = evaluate(q, source, grid, lam)
    return DesignResult(
        quantizer=q,
        responses=br,
        report=report,
        iterations=total,
        converged=True,
        trajectory=None,
    )


def _draws(grid: ThetaGrid, n_samples: int, seed: int):
    """Yield (node indices, standard normals) in chunks of at most _MC_CHUNK.

    Concatenated, the chunks are default_rng(seed).choice(grid.n_nodes,
    size=n_samples, p=grid.weights) followed by .standard_normal(n_samples).
    ``choice`` is not called.  Its rule, cdf.searchsorted(u, side="right") on
    the weights' normalized running sum, is read from a guide table over
    _BUCKETS equal-width buckets of [0, 1) (Chen & Asau, 1974; Devroye, 1986,
    III.2.4): every u in bucket b gets first[b], unless a CDF value lies
    strictly inside the bucket (mixed[b]), and only those samples are searched.
    u * _BUCKETS is exact, so each u lands in its true bucket.
    """
    cdf = grid.weights.cumsum()
    cdf /= cdf[-1]
    edges = np.arange(_BUCKETS + 1) / _BUCKETS
    first = cdf.searchsorted(edges[:-1], side="right")
    mixed = cdf.searchsorted(edges[1:], side="left") > first
    node_rng = np.random.Generator(np.random.PCG64(seed))
    # each node index spends one double, i.e. one step of the stream
    normal_rng = np.random.Generator(np.random.PCG64(seed).advance(n_samples))
    for lo in range(0, n_samples, _MC_CHUNK):
        k = min(_MC_CHUNK, n_samples - lo)
        u = node_rng.random(k)
        bucket = (u * _BUCKETS).astype(np.intp)
        j_idx = first[bucket]
        sel = np.flatnonzero(mixed[bucket])
        j_idx[sel] = cdf.searchsorted(u[sel], side="right")
        yield j_idx, normal_rng.standard_normal(k)


def monte_carlo_distortions(
    q: Quantizer,
    br: BestResponses,
    source: SourceSpec,
    grid: ThetaGrid,
    lam: float,
    n_samples: int,
    seed: int,
) -> MonteCarloReport:
    """Sampled distortions of (q, br); reproducible bit-for-bit given seed.

    Streams the samples of the module docstring in chunks of _MC_CHUNK and
    folds each chunk's means and squared deviations into running totals
    (Chan, Golub & LeVeque), so memory does not grow with n_samples.  One
    worker thread draws chunk i + 1 while this thread folds chunk i (the
    module docstring's lookahead).
    Standard errors use ddof=1 and are inf for a single sample.
    """
    # imported here, not at module level, so that importing the package does
    # not load concurrent.futures for callers that never sample
    from concurrent.futures import ThreadPoolExecutor

    n_samples = _as_count("n_samples", n_samples)
    _check_lam(lam)
    if q.n_theta != grid.n_nodes:
        raise ValueError("boundaries must have one row per theta node")
    if len(br.y) != q.M or len(br.theta_hat) != q.M:
        raise ValueError(
            f"responses have {len(br.y)} reconstructions and {len(br.theta_hat)} "
            f"eavesdropper estimates for M={q.M}"
        )
    mu_nodes, sigma_c = source.conditional_params(grid.nodes)
    columns = [np.ascontiguousarray(c) for c in q.interior().T]

    count = 0
    mean = np.zeros(4)  # fidelity, d_d, d_theta, d_e
    m2 = np.zeros(4)
    block = np.empty((4, min(n_samples, _MC_CHUNK)))
    draws = _draws(grid, n_samples, seed)
    # leaving the block joins the worker, also when the fold below raises
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(next, draws, None)
        while (chunk := ahead.result()) is not None:
            j_idx, normals = chunk  # releases chunk i - 1 before chunk i + 1 is drawn
            ahead = pool.submit(next, draws, None)
            k = j_idx.size
            theta = grid.nodes[j_idx]
            x = mu_nodes[j_idx]
            x += sigma_c * normals
            msg = np.zeros(k, dtype=np.intp)
            for col in columns:
                msg += x > col[j_idx]
            y = br.y[msg]

            rows = block[:, :k]
            fid, dd, dth, de = rows
            np.add(x, theta, out=fid)
            fid -= y
            np.subtract(x, y, out=dd)
            np.subtract(theta, br.theta_hat[msg], out=dth)
            np.square(rows[:3], out=rows[:3])
            np.multiply(dth, lam, out=de)
            np.subtract(fid, de, out=de)

            chunk_mean = rows.mean(axis=1)
            rows -= chunk_mean[:, None]
            chunk_m2 = np.einsum("ij,ij->i", rows, rows)
            total = count + k
            delta = chunk_mean - mean
            mean += delta * (k / total)
            m2 += chunk_m2 + delta**2 * (count * k / total)
            count = total

    if n_samples > 1:
        se = np.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples)
    else:
        se = np.full(4, math.inf)
    fid, dd, dth, de = (float(v) for v in mean)
    return MonteCarloReport(
        report=DistortionReport(d_e=de, fidelity=fid, d_d=dd, d_theta=dth),
        se_fidelity=float(se[0]),
        se_d_d=float(se[1]),
        se_d_theta=float(se[2]),
        se_d_e=float(se[3]),
        n_samples=n_samples,
    )

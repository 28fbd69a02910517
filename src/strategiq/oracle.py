"""Independent verification paths for the quantizer pipeline.

Two oracles, deliberately unsophisticated:

* brute_force_design enumerates every assignment of interior boundaries to a
  fixed candidate grid (per theta row, nondecreasing tuples), evaluates the
  encoder Lagrangian at exact best responses, and returns the global grid
  optimum.  Feasible only for tiny instances (M=2, a few theta nodes); the
  gradient designer must land at or below this value up to grid resolution.
  Assignments are scored in blocks of at most _CHUNK, so its memory is
  O(_CHUNK) whatever the number of assignments.  Each row's six weighted
  moment tables are one cells-first (6, M, n_choices) array and each block
  one (6, M, assignments) array, so the broadcasts that build a block and
  the sums over its cells run along the long axis of assignments.

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

Lookahead: each call starts one producer thread, which draws the stream
into a queue of at most _MC_AHEAD chunks while the calling thread folds them
(numpy fills both PCG64 streams with the GIL released, so the two overlap).
Only the producer advances the stream, and the chunks are folded in stream
order, so the samples and the results do not depend on how the two threads
are scheduled.  At most _MC_AHEAD + 2 chunks are held at a time (the queue's,
the one being drawn and the one being folded), so memory stays O(_MC_CHUNK).
An error in the stream reaches the caller through the queue; when the fold
returns or raises, the producer is told to stop, the queue is emptied so
that its last put cannot block, and the thread is joined before the call
returns or raises.  There is nothing to configure.
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
# boundary assignments per brute-force block; at 3 nodes, 41 candidates and
# M = 2 a call took 4.3 ms at 4,096 against 4.5 at 2,048, 4.9 at 8,192 and
# 6.6 at 16,384 (medians of 80 alternated calls on a 2-CPU Xeon)
_CHUNK = 4_096
_MC_CHUNK = 32_768  # Monte Carlo samples per chunk
_MC_AHEAD = 2  # drawn chunks the Monte Carlo queue holds
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

    # per-row (6, M, n_choices) weighted moment tables under the conditional
    # law, cells first, so that the broadcasts and the sums over cells below
    # run along the long axis of choices
    rows_bounds = np.hstack(
        [np.full((n_choices, 1), -np.inf), cands[choice_idx], np.full((n_choices, 1), np.inf)]
    )
    mu_all, sigma_c = source.conditional_params(grid.nodes)
    if sigma_c == 0.0:  # every score would be nan, and no winner decodes
        raise ValueError("cell moments require a nondegenerate source (|rho| < 1)")
    tables = np.empty((n_rows, 6, M, n_choices))
    for j in range(n_rows):
        moments = interval_moments(float(mu_all[j]), sigma_c, rows_bounds)
        mass, first, second = (m.T for m in moments)
        w, th = grid.weights[j], grid.nodes[j]
        wth = w * th
        tables[j] = (w * mass, w * first, w * second, wth * mass, wth * first, w * th**2 * mass)

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
        base = np.zeros((6, M, 1))
        for j, k in enumerate(prefix):
            base = base + tables[j, :, :, k:k + 1]
        for lo in range(0, n_choices, step):
            block = base + tables[lead, :, :, lo:lo + step]
            for j in range(lead + 1, n_rows):
                block = (block[..., None] + tables[j, :, :, None, :]).reshape(6, M, -1)
            n, a, s, t, b, u = block
            full = n >= MASS_FLOOR
            safe = np.where(full, n, 1.0)
            y = np.where(full, a / safe, 0.0)
            th_hat = np.where(full, t / safe, 0.0)
            fidelity = _sum_cells(s + 2.0 * b + u - 2.0 * y * (a + t) + y**2 * n)
            d_theta = _sum_cells(u - 2.0 * th_hat * t + th_hat**2 * n)
            d_e = fidelity - lam * d_theta
            i = int(np.argmin(d_e))
            if d_e[i] < best_d_e:  # strict: first occurrence wins, i.e. lexicographic
                best_d_e = float(d_e[i])
                best_index = (p * n_choices + lo) * inner + i

    boundaries = rows_bounds[np.array(np.unravel_index(best_index, (n_choices,) * n_rows))]
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


def _sum_cells(x: np.ndarray) -> np.ndarray:
    """Sum cells-first x (M, B) over its cells as numpy sums each row of M.

    numpy adds a contiguous row of fewer than 8 cells in cell order, which is
    a sum over axis 0; from 8 cells on it sums pairwise, so the rows are laid
    out contiguously first.  Summed another way, near-ties between the many
    equivalent assignments with empty cells could choose another winner.
    """
    if x.shape[0] < 8:
        return np.sum(x, axis=0)
    return np.sum(np.ascontiguousarray(x.T), axis=1)


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


def _produce(draws, ahead, stop) -> None:
    """Put each chunk of draws into ahead, then None, or the stream's error.

    Checks stop after each put and returns once it is set.  The caller
    raises any BaseException it gets, so none is lost with this thread.
    """
    try:
        for chunk in draws:
            ahead.put(chunk)
            if stop.is_set():
                return
    except BaseException as exc:
        ahead.put(exc)
    else:
        ahead.put(None)


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
    producer thread draws the chunks into a queue of at most _MC_AHEAD while
    this thread folds them in stream order (the module docstring's
    lookahead); it is joined before the call returns or raises.
    Standard errors use ddof=1 and are inf for a single sample.
    """
    # imported here, not at module level, so that importing the package does
    # not load queue for callers that never sample
    import queue
    import threading

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
    ahead = queue.Queue(maxsize=_MC_AHEAD)
    stop = threading.Event()
    producer = threading.Thread(
        target=_produce, args=(_draws(grid, n_samples, seed), ahead, stop), daemon=True
    )
    producer.start()
    try:
        while (chunk := ahead.get()) is not None:
            if isinstance(chunk, BaseException):
                raise chunk
            j_idx, normals = chunk
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
    finally:
        # once stop is set the producer makes at most one more put, so a
        # queue emptied after setting it cannot block that put
        stop.set()
        while not ahead.empty():
            ahead.get_nowait()
        producer.join()

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

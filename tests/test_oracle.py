"""Exhaustive search and Monte Carlo: the pipeline's independent referees."""

import itertools
import math
import queue
import threading
import tracemalloc

import numpy as np
import pytest

import strategiq.oracle as oracle_module
from strategiq import (
    OracleGrid,
    Quantizer,
    ThetaGrid,
    brute_force_design,
    evaluate,
    make_oracle_grid,
    make_source,
    make_theta_grid,
    monte_carlo_distortions,
)
from strategiq.gaussian_model import MASS_FLOOR, interval_moments

INF = math.inf


def _reference_monte_carlo(q, br, source, grid, lam, n_samples, seed):
    """The one-shot sampler the streamed oracle replaced, kept as its referee."""
    rng = np.random.default_rng(seed)
    j_idx = rng.choice(grid.n_nodes, size=n_samples, p=grid.weights)
    theta = grid.nodes[j_idx]
    mu_c = source.rho * (source.sigma_x / source.sigma_theta) * theta
    sigma_c = source.sigma_x * math.sqrt(max(1.0 - source.rho**2, 0.0))
    x = mu_c + sigma_c * rng.standard_normal(n_samples)

    interior = q.boundaries[:, 1:-1]
    msg = (x[:, None] > interior[j_idx]).sum(axis=1) if q.M > 1 else np.zeros(n_samples, dtype=int)
    y = br.y[msg]
    th_hat = br.theta_hat[msg]

    fid_s = (x + theta - y) ** 2
    dd_s = (x - y) ** 2
    dth_s = (theta - th_hat) ** 2
    de_s = fid_s - lam * dth_s

    def _mean_se(v):
        m = float(v.mean())
        se = float(v.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else math.inf
        return m, se

    return [*_mean_se(fid_s), *_mean_se(dd_s), *_mean_se(dth_s), *_mean_se(de_s)]


def _reference_brute_force(source, grid, M, lam, ogrid, chunk=131_072):
    """The digit-decoding enumeration the broadcast one replaced: (boundaries, report)."""
    n_rows = grid.n_nodes
    cands = ogrid.candidates
    if M == 1:
        choice_idx = np.zeros((1, 0), dtype=int)
    else:
        choice_idx = np.array(
            list(itertools.combinations_with_replacement(range(cands.size), M - 1)), dtype=int
        )
    n_choices = choice_idx.shape[0]
    total = int(n_choices) ** n_rows
    rows_bounds = np.hstack(
        [np.full((n_choices, 1), -np.inf), cands[choice_idx], np.full((n_choices, 1), np.inf)]
    )
    sigma_c = source.sigma_x * math.sqrt(max(1.0 - source.rho**2, 0.0))
    mu_all = source.rho * (source.sigma_x / source.sigma_theta) * grid.nodes
    tables = []
    for j in range(n_rows):
        mass, first, second = interval_moments(float(mu_all[j]), sigma_c, rows_bounds)
        w, th = grid.weights[j], grid.nodes[j]
        tables.append(
            (w * mass, w * first, w * second, w * th * mass, w * th * first, w * th**2 * mass)
        )

    best_d_e = math.inf
    best_index = -1
    radix = [n_choices**p for p in range(n_rows - 1, -1, -1)]
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        lin = np.arange(lo, hi, dtype=np.int64)
        n = np.zeros((hi - lo, M))
        a = np.zeros_like(n)
        s = np.zeros_like(n)
        t = np.zeros_like(n)
        b = np.zeros_like(n)
        u = np.zeros_like(n)
        for j in range(n_rows):
            k = (lin // radix[j]) % n_choices
            wm, wf, ws, wtm, wtf, wt2m = tables[j]
            n += wm[k]
            a += wf[k]
            s += ws[k]
            t += wtm[k]
            b += wtf[k]
            u += wt2m[k]
        safe = np.where(n >= MASS_FLOOR, n, 1.0)
        y = np.where(n >= MASS_FLOOR, a / safe, 0.0)
        th_hat = np.where(n >= MASS_FLOOR, t / safe, 0.0)
        fidelity = np.sum(s + 2.0 * b + u - 2.0 * y * (a + t) + y**2 * n, axis=1)
        d_theta = np.sum(u - 2.0 * th_hat * t + th_hat**2 * n, axis=1)
        d_e = fidelity - lam * d_theta
        i = int(np.argmin(d_e))
        if d_e[i] < best_d_e:
            best_d_e = float(d_e[i])
            best_index = lo + i

    ks = [(best_index // radix[j]) % n_choices for j in range(n_rows)]
    boundaries = np.vstack([rows_bounds[k] for k in ks])
    _, report = evaluate(Quantizer(M=M, boundaries=boundaries), source, grid, lam)
    return boundaries, report


def _random_quantizer(rng, n_nodes, M, scale=1.5):
    interior = np.sort(rng.uniform(-scale, scale, size=(n_nodes, M - 1)), axis=1)
    edges = np.full((n_nodes, 1), INF)
    return Quantizer(M=M, boundaries=np.hstack([-edges, interior, edges]))


def _report_bits(rep):
    return np.array([rep.d_e, rep.fidelity, rep.d_d, rep.d_theta]).tobytes()


class TestOracleGrid:
    def test_default_span(self, unit_source):
        og = make_oracle_grid(unit_source)
        assert og.candidates.size == 41
        assert og.candidates[0] == -3.0 and og.candidates[-1] == 3.0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            OracleGrid(candidates=np.array([0.0, 0.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            OracleGrid(np.array([]))

    @pytest.mark.parametrize("n_points", [2.5, True])
    def test_rejects_non_integer_point_count(self, unit_source, n_points):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            make_oracle_grid(unit_source, n_points=n_points)


class TestBruteForce:
    def test_single_message(self, unit_source, grid3):
        og = make_oracle_grid(unit_source, n_points=5)
        res = brute_force_design(unit_source, grid3, 1, 2.0, og)
        # no information: d_e = E[(X+theta)^2] - lam * grid second moment
        expected = 2.0 - 2.0 * grid3.second_moment()
        assert res.report.d_e == pytest.approx(expected, abs=1e-10)

    def test_two_level_single_node_recovers_lloyd_max(self, unit_source):
        grid = make_theta_grid(unit_source, 1)
        og = make_oracle_grid(unit_source)  # includes 0.0 exactly
        res = brute_force_design(unit_source, grid, 2, 0.0, og)
        assert res.quantizer.boundaries[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert res.report.d_d == pytest.approx(0.363380, abs=1e-6)

    def test_zero_messages_rejected(self, unit_source, grid3):
        og = make_oracle_grid(unit_source, n_points=5)
        with pytest.raises(ValueError, match="M must be >= 1"):
            brute_force_design(unit_source, grid3, 0, 1.0, og)

    @pytest.mark.parametrize("M", [2.5, True])
    def test_rejects_non_integer_message_count(self, unit_source, grid3, M):
        og = make_oracle_grid(unit_source, n_points=5)
        with pytest.raises(ValueError, match="M must be an integer"):
            brute_force_design(unit_source, grid3, M, 1.0, og)

    def test_integral_float_message_count(self, unit_source, grid3):
        og = make_oracle_grid(unit_source, n_points=5)
        res = brute_force_design(unit_source, grid3, 2.0, 1.0, og)
        want = brute_force_design(unit_source, grid3, 2, 1.0, og)
        assert res.quantizer.M == 2 and type(res.quantizer.M) is int
        assert res.quantizer.boundaries.tobytes() == want.quantizer.boundaries.tobytes()
        assert res.report == want.report

    def test_source_next_to_full_correlation(self):
        # one ulp inside |rho| = 1, X | theta is all but a point mass: every
        # score is finite, and the winner's report is evaluate's
        src = make_source(1.0, 1.0, math.nextafter(1.0, 0.0))
        grid = make_theta_grid(src, 3)
        res = brute_force_design(src, grid, 2, 1.0, make_oracle_grid(src, n_points=9))
        assert math.isfinite(res.report.d_e)
        assert res.report == evaluate(res.quantizer, src, grid, 1.0)[1]

    def test_enumeration_cap(self, unit_source, grid17):
        og = make_oracle_grid(unit_source)
        with pytest.raises(ValueError, match="exceeds"):
            brute_force_design(unit_source, grid17, 3, 0.0, og)

    def test_dominates_grid_snapped_quantizers(self, unit_source, rng):
        grid = make_theta_grid(unit_source, 2, "gauss-hermite")
        og = make_oracle_grid(unit_source, n_points=15)
        best = brute_force_design(unit_source, grid, 2, 1.0, og)
        for _ in range(100):
            snapped = og.candidates[rng.integers(0, 15, size=(2, 1))]
            q = Quantizer(M=2, boundaries=np.hstack([
                np.full((2, 1), -INF), snapped, np.full((2, 1), INF)]))
            _, rep = evaluate(q, unit_source, grid, 1.0)
            assert best.report.d_e <= rep.d_e + 1e-9

    def test_dominates_snapped_with_coincident_boundaries(self, unit_source, rng):
        grid = make_theta_grid(unit_source, 2, "gauss-hermite")
        og = make_oracle_grid(unit_source, n_points=9)
        best = brute_force_design(unit_source, grid, 3, 0.5, og)
        for _ in range(50):
            snapped = np.sort(og.candidates[rng.integers(0, 9, size=(2, 2))], axis=1)
            q = Quantizer(M=3, boundaries=np.hstack([
                np.full((2, 1), -INF), snapped, np.full((2, 1), INF)]))
            _, rep = evaluate(q, unit_source, grid, 0.5)
            assert best.report.d_e <= rep.d_e + 1e-9

    def test_internal_objective_matches_evaluator(self, unit_source, grid3):
        # the winner's reported d_e comes from quantizer_core.evaluate; the
        # enumeration's internal vectorized objective must agree with it
        og = make_oracle_grid(unit_source, n_points=11)
        res = brute_force_design(unit_source, grid3, 2, 1.5, og)
        _, rep = evaluate(res.quantizer, unit_source, grid3, 1.5)
        assert res.report.d_e == pytest.approx(rep.d_e, abs=1e-10)


    @pytest.mark.parametrize(
        "n_nodes,n_points,M",
        [
            (3, 41, 1), (3, 41, 2), (3, 9, 3),  # one block
            (4, 21, 1), (4, 21, 2), (4, 6, 3),  # 21^4 = 194,481 > _CHUNK: sliced blocks
            (2, 9, 4),  # 165^2 = 27,225 > _CHUNK: four cells per row
            (2, 4, 8),  # eight cells, which numpy sums pairwise; many near-ties
        ],
    )
    def test_matches_digit_decoding_enumeration(self, n_nodes, n_points, M):
        for src in (make_source(1.2, 0.7, 0.4), make_source(1.2, 0.7, -0.6)):
            grid = make_theta_grid(src, n_nodes, "gauss-hermite")
            og = make_oracle_grid(src, n_points=n_points)
            for lam in (0.0, 1.5):
                res = brute_force_design(src, grid, M, lam, og)
                boundaries, report = _reference_brute_force(src, grid, M, lam, og)
                assert res.quantizer.boundaries.tobytes() == boundaries.tobytes()
                assert _report_bits(res.report) == _report_bits(report)

    @pytest.mark.parametrize(
        "n_nodes,n_points,M",
        [
            (3, 11, 2),  # 11 choices: row 0 fixed, row 1 sliced by 9, row 2 broadcast
            (3, 7, 3),  # 28 choices: row 0 fixed, row 1 sliced by 3, row 2 broadcast
            (2, 15, 3),  # 120 choices, more than a block: row 1 sliced by 100
        ],
    )
    def test_small_blocks_match_digit_decoding(self, monkeypatch, unit_source, n_nodes, n_points, M):
        # a small block size reaches the fixed-row and sliced-row paths that
        # large instances take at the real block size
        monkeypatch.setattr(oracle_module, "_CHUNK", 100)
        grid = make_theta_grid(unit_source, n_nodes, "gauss-hermite")
        og = make_oracle_grid(unit_source, n_points=n_points)
        for lam in (0.0, 0.7, 2.5):
            res = brute_force_design(unit_source, grid, M, lam, og)
            boundaries, report = _reference_brute_force(unit_source, grid, M, lam, og, chunk=100)
            assert res.quantizer.boundaries.tobytes() == boundaries.tobytes()
            assert _report_bits(res.report) == _report_bits(report)

    @pytest.mark.parametrize("n_nodes,M", [(3, 2), (2, 3)])
    def test_memory_is_bounded_by_the_block(self, unit_source, n_nodes, M):
        # the enumeration holds one block of moment sums at a time
        grid = make_theta_grid(unit_source, n_nodes, "gauss-hermite")
        og = make_oracle_grid(unit_source)
        tracemalloc.start()
        try:
            brute_force_design(unit_source, grid, M, 1.0, og)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_exact_ties_break_lexicographically(self, monkeypatch, unit_source):
        # candidates this far out put each row's mass wholly in one cell, so
        # every assignment that sends all rows to the same cell reveals nothing
        # and ties exactly; the first of them in lexicographic order must win,
        # also when the ties fall in different blocks
        monkeypatch.setattr(oracle_module, "_CHUNK", 100)
        grid = make_theta_grid(unit_source, 4, "gauss-hermite")
        og = OracleGrid(candidates=np.array([-100.0, -80.0, -60.0, -40.0, 40.0, 60.0, 80.0, 100.0]))
        res = brute_force_design(unit_source, grid, 2, 2.0, og)
        boundaries, report = _reference_brute_force(unit_source, grid, 2, 2.0, og, chunk=100)
        assert np.all(res.quantizer.interior() == -100.0)
        assert res.quantizer.boundaries.tobytes() == boundaries.tobytes()
        assert _report_bits(res.report) == _report_bits(report)


class TestMonteCarlo:
    def test_single_cell_fidelity(self, unit_source, grid17):
        q = Quantizer(M=1, boundaries=np.tile([-INF, INF], (17, 1)))
        br, _ = evaluate(q, unit_source, grid17, 0.0)
        mc = monte_carlo_distortions(q, br, unit_source, grid17, 0.0, 1_000_000, seed=1)
        assert abs(mc.report.fidelity - 2.0) < 3.0 * mc.se_fidelity

    def test_symmetric_split_decoder_distortion(self, unit_source, grid17):
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (17, 1)))
        br, _ = evaluate(q, unit_source, grid17, 0.0)
        mc = monte_carlo_distortions(q, br, unit_source, grid17, 0.0, 1_000_000, seed=2)
        assert abs(mc.report.d_d - 0.3634) < max(3.0 * mc.se_d_d, 1e-3)

    def test_reproducible_bit_for_bit(self, unit_source, grid3, rng):
        q = Quantizer(M=2, boundaries=np.hstack([
            np.full((3, 1), -INF), rng.normal(size=(3, 1)), np.full((3, 1), INF)]))
        br, _ = evaluate(q, unit_source, grid3, 1.0)
        a = monte_carlo_distortions(q, br, unit_source, grid3, 1.0, 50_000, seed=99)
        b = monte_carlo_distortions(q, br, unit_source, grid3, 1.0, 50_000, seed=99)
        assert a == b

    def test_rejects_zero_samples(self, unit_source, grid3):
        q = Quantizer(M=1, boundaries=np.tile([-INF, INF], (3, 1)))
        br, _ = evaluate(q, unit_source, grid3, 0.0)
        with pytest.raises(ValueError):
            monte_carlo_distortions(q, br, unit_source, grid3, 0.0, 0, seed=1)

    @pytest.mark.parametrize("n_samples", [2.5, True])
    def test_rejects_non_integer_sample_count(self, unit_source, grid3, n_samples):
        q = Quantizer(M=1, boundaries=np.tile([-INF, INF], (3, 1)))
        br, _ = evaluate(q, unit_source, grid3, 0.0)
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            monte_carlo_distortions(q, br, unit_source, grid3, 0.0, n_samples, seed=1)

    def test_integral_float_sample_count(self, unit_source, grid3):
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.3, INF], (3, 1)))
        br, _ = evaluate(q, unit_source, grid3, 1.0)
        mc = monte_carlo_distortions(q, br, unit_source, grid3, 1.0, 1e4, seed=4)
        assert mc.n_samples == 10_000 and type(mc.n_samples) is int
        assert mc == monte_carlo_distortions(q, br, unit_source, grid3, 1.0, 10_000, seed=4)

    def test_rejects_rows_that_do_not_match_the_grid(self, unit_source, grid17):
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (17, 1)))
        br, _ = evaluate(q, unit_source, grid17, 1.0)
        grid5 = make_theta_grid(unit_source, 5, "gauss-hermite")
        with pytest.raises(ValueError, match="one row per theta node"):
            monte_carlo_distortions(q, br, unit_source, grid5, 1.0, 1000, seed=1)

    def test_rejects_responses_of_another_message_count(self, unit_source, grid3):
        q2 = Quantizer(M=2, boundaries=np.tile([-INF, 0.0, INF], (3, 1)))
        q4 = Quantizer(M=4, boundaries=np.tile([-INF, -0.7, 0.0, 0.7, INF], (3, 1)))
        br4, _ = evaluate(q4, unit_source, grid3, 1.0)
        with pytest.raises(ValueError, match="M=2"):
            monte_carlo_distortions(q2, br4, unit_source, grid3, 1.0, 1000, seed=1)

    def test_worker_thread_ends_with_each_call(self, unit_source, grid3):
        # the lookahead's worker is joined before the call returns, and the
        # results do not depend on how it was scheduled against this thread
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.2, INF], (3, 1)))
        br, _ = evaluate(q, unit_source, grid3, 1.0)
        n = 3 * oracle_module._MC_CHUNK + 17
        before = threading.active_count()
        first = monte_carlo_distortions(q, br, unit_source, grid3, 1.0, n, seed=8)
        for _ in range(4):
            assert threading.active_count() == before
            assert monte_carlo_distortions(q, br, unit_source, grid3, 1.0, n, seed=8) == first
        assert threading.active_count() == before

    def test_stream_error_reaches_the_caller(self, monkeypatch, unit_source, grid3):
        real_draws = oracle_module._draws

        def failing_draws(grid, n_samples, seed):
            for i, chunk in enumerate(real_draws(grid, n_samples, seed)):
                if i == 2:
                    raise RuntimeError("stream failed on its third chunk")
                yield chunk

        monkeypatch.setattr(oracle_module, "_draws", failing_draws)
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.2, INF], (3, 1)))
        br, _ = evaluate(q, unit_source, grid3, 1.0)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="third chunk"):
            monte_carlo_distortions(q, br, unit_source, grid3, 1.0, 5 * oracle_module._MC_CHUNK, 8)
        assert threading.active_count() == before

    def test_fold_error_joins_the_worker(self, monkeypatch, unit_source, grid3):
        # a chunk the fold cannot use raises in this thread while the worker
        # is drawing the next one; the call still ends with no worker left
        real_draws = oracle_module._draws

        def short_normals(grid, n_samples, seed):
            for i, (j_idx, normals) in enumerate(real_draws(grid, n_samples, seed)):
                yield j_idx, normals[:-1] if i == 2 else normals

        monkeypatch.setattr(oracle_module, "_draws", short_normals)
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.2, INF], (3, 1)))
        br, _ = evaluate(q, unit_source, grid3, 1.0)
        before = threading.active_count()
        with pytest.raises(ValueError, match="broadcast"):
            monte_carlo_distortions(q, br, unit_source, grid3, 1.0, 5 * oracle_module._MC_CHUNK, 8)
        assert threading.active_count() == before

    def test_fold_error_on_a_full_queue_joins_the_worker(self, monkeypatch, unit_source, grid3):
        # the fold raises on the first chunk only once the worker has filled the
        # queue and waits to put the next one; the call raises, and no worker is left
        blocked = threading.Event()

        class WatchedQueue(queue.Queue):
            def put(self, item, block=True, timeout=None):
                if self.full():
                    blocked.set()
                super().put(item, block, timeout)

        class FailingNormals:
            __array_ufunc__ = None  # numpy leaves sigma_c * normals to __rmul__

            def __rmul__(self, other):
                blocked.wait(timeout=30.0)
                raise RuntimeError("fold failed while the queue was full")

        real_draws = oracle_module._draws

        def first_chunk_fails(grid, n_samples, seed):
            chunks = real_draws(grid, n_samples, seed)
            j_idx, _ = next(chunks)
            yield j_idx, FailingNormals()
            yield from chunks

        monkeypatch.setattr(queue, "Queue", WatchedQueue)
        monkeypatch.setattr(oracle_module, "_draws", first_chunk_fails)
        q = Quantizer(M=2, boundaries=np.tile([-INF, 0.2, INF], (3, 1)))
        br, _ = evaluate(q, unit_source, grid3, 1.0)
        raised = []

        def call():
            try:
                n = 8 * oracle_module._MC_CHUNK
                monte_carlo_distortions(q, br, unit_source, grid3, 1.0, n, seed=8)
            except RuntimeError as exc:
                raised.append(exc)

        before = threading.active_count()
        caller = threading.Thread(target=call, daemon=True)  # a hang fails, not stalls, the suite
        caller.start()
        caller.join(timeout=60.0)
        assert not caller.is_alive()
        assert blocked.is_set()
        assert [str(exc) for exc in raised] == ["fold failed while the queue was full"]
        assert threading.active_count() == before

    def test_lagrangian_combination(self, unit_source, grid3, rng):
        q = Quantizer(M=3, boundaries=np.hstack([
            np.full((3, 1), -INF),
            np.sort(rng.uniform(-1.5, 1.5, size=(3, 2)), axis=1),
            np.full((3, 1), INF)]))
        br, _ = evaluate(q, unit_source, grid3, 2.0)
        mc = monte_carlo_distortions(q, br, unit_source, grid3, 2.0, 200_000, seed=3)
        assert mc.report.d_e == pytest.approx(
            mc.report.fidelity - 2.0 * mc.report.d_theta, rel=1e-12
        )

    @pytest.mark.parametrize("n_samples", [1, 1000, 32_768, 100_003])
    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_matches_one_shot_sampler(self, n_samples, M):
        rng = np.random.default_rng([n_samples, M])
        for rho in (0.0, 0.6, math.nextafter(1.0, 0.0)):
            src = make_source(1.5, 0.8, rho)
            grid = make_theta_grid(src, 5, "gauss-hermite")
            q = _random_quantizer(rng, grid.n_nodes, M)
            # any responses serve a referee
            br, _ = evaluate(q, make_source(1.5, 0.8, min(rho, 0.6)), grid, 1.0)
            for lam in (0.0, 2.0, 1e7):
                seed = int(rng.integers(2**31))
                mc = monte_carlo_distortions(q, br, src, grid, lam, n_samples, seed)
                got = [mc.report.fidelity, mc.se_fidelity, mc.report.d_d, mc.se_d_d,
                       mc.report.d_theta, mc.se_d_theta, mc.report.d_e, mc.se_d_e]
                want = _reference_monte_carlo(q, br, src, grid, lam, n_samples, seed)
                if n_samples <= oracle_module._MC_CHUNK:
                    # one chunk: the same samples summed the same way, so the
                    # means agree to the bit, which pins each sample's rounding
                    assert got[0::2] == want[0::2]
                for g, w in zip(got, want):
                    if math.isinf(w):
                        assert g == w
                    else:
                        assert abs(g - w) <= 1e-12 * max(abs(g), abs(w)), (rho, lam, g, w)

    def test_chunked_draws_are_the_one_shot_stream(self, grid17):
        n = 3 * oracle_module._MC_CHUNK + 17
        chunks = list(oracle_module._draws(grid17, n, 12345))
        assert [j.size for j, _ in chunks] == [oracle_module._MC_CHUNK] * 3 + [17]
        rng = np.random.default_rng(12345)
        nodes = rng.choice(grid17.n_nodes, size=n, p=grid17.weights)
        normals = rng.standard_normal(n)
        assert np.array_equal(np.concatenate([j for j, _ in chunks]), nodes)
        assert np.concatenate([z for _, z in chunks]).tobytes() == normals.tobytes()

    @pytest.mark.parametrize("grid", [
        ThetaGrid(nodes=[0.0], weights=[1.0]),
        ThetaGrid(nodes=np.arange(5.0), weights=[0.0, 0.5, 0.0, 0.5, 0.0]),  # zero weights
        ThetaGrid(nodes=np.arange(4.0), weights=np.full(4, 0.25)),  # CDF on bucket edges
        ThetaGrid(nodes=np.arange(3.0), weights=[1e-300, 1.0 - 2e-300, 1e-300]),
        make_theta_grid(make_source(1.0, 1.0, 0.0), 3, "gauss-hermite"),
        make_theta_grid(make_source(1.0, 1.0, 0.0), 33, "gauss-hermite"),
        make_theta_grid(make_source(1.0, 1.0, 0.0), 65, "gauss-hermite"),
    ], ids=["1-node", "zero-weights", "bucket-edges", "tiny-tails", "gh3", "gh33", "gh65"])
    def test_node_indices_are_choice_on_any_grid(self, grid):
        # the guide table must give choice's indices from the same uniforms,
        # whatever the weights do at bucket edges or inside one bucket
        n = 2 * oracle_module._MC_CHUNK + 101
        for seed in (0, 7, 2**31 + 5):
            got = np.concatenate([j for j, _ in oracle_module._draws(grid, n, seed)])
            want = np.random.default_rng(seed).choice(grid.n_nodes, size=n, p=grid.weights)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_memory_does_not_grow_with_samples(self, unit_source, grid17):
        q = Quantizer(M=4, boundaries=np.tile([-INF, -0.7, 0.0, 0.7, INF], (17, 1)))
        br, _ = evaluate(q, unit_source, grid17, 1.0)

        def peak(n_samples):
            tracemalloc.start()
            try:
                monte_carlo_distortions(q, br, unit_source, grid17, 1.0, n_samples, seed=5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(1_000_000), peak(4_000_000)
        assert one < 8 * 2**20
        assert abs(four - one) < 2**20

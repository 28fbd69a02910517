"""One benchmark workload in a fresh process: set up, run a closed loop, check.

Started by ``bench/run.py``, which sets the thread-count variables and puts
the checkout's ``src`` first on ``PYTHONPATH`` before this process imports
numpy.  The first line printed is ``ready`` once strategiq is imported and the
source and grid are built; the last line is one JSON object with the raw
outcome of the run.  ``--setup-only`` stops after the ready line and the
set-up timings.

The workloads drive strategiq only through the API that the roadmap keeps:
``run_sweep`` and ``emit`` with the SweepConfig fields mode, lambdas,
m_values, seed, n_restarts, r and rho, plus ``evaluate``,
``monte_carlo_distortions``, ``brute_force_design``, ``make_oracle_grid``,
``lloyd_max_quantizer``, ``make_theta_grid``, ``make_source``,
``linear_distortions`` and the ``Quantizer`` type.  The optimizer's tuning
fields (eta, eps, max_iters, workers, gradient_mode) are never set.  Each
function is looked up on its module at call time, so the tracer's wrappers
see the call.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

_t_start = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Design sweeps: (M, lambdas).  design-m2 is acceptance criterion 10's grid.
DESIGN = {
    "design-m2": (2, [0.1, 10.0, 1e3, 1e5, 1e7]),
    "design-m8": (8, [0.0, 2.0, 1e5]),
}
N_RESTARTS = 2
LINEAR_SOURCES = [(r, rho) for r in (0.5, 1.0, 2.0) for rho in (-0.5, 0.0, 0.5)]
LINEAR_POINTS = 1000  # rows per linear sweep; one sweep per source in turn
LINEAR_LOG_RANGE = (-2.0, 7.0)  # log10 of the lambda range
ORACLE_M = (2, 3, 4)  # one case of each M in turn
ORACLE_LAMBDA_MAX = 5.0
ORACLE_LAMBDA_STRATA = 10  # lambda of case k is drawn within stratum (k // 3) mod 10 of [0, 5]
ORACLE_EXCESS_CASES = 2000  # de_excess_mean population: the first cases of the stream
MC_SAMPLES = 1_000_000
MC_SE_BAND = 5.0  # Monte Carlo must agree with the exact value within this many SEs
BRUTE_FORCE_NODES = 3
WORKLOADS = (*DESIGN, "linear-sweep", "oracle-verify")


@dataclass
class Outcome:
    """What a workload's closed loop did, before metrics are derived."""

    ops: int = 0
    failed: int = 0  # operations with at least one failed check
    timed_s: float = 0.0
    failures: list[str] = field(default_factory=list)

    def timed(self, ops: int, seconds: float) -> None:
        """Record one timed batch of operations."""
        self.ops += ops
        self.timed_s += seconds

    def check(self, problems: list[str]) -> None:
        """Record the check results of one operation."""
        self.failed += bool(problems)
        self.failures.extend(problems)
    # d_e + lambda * E[theta^2] over a fixed set of the workload's first inputs,
    # so that the mean depends on the seed and the program's results, never on
    # how many operations fitted in the run
    excess: list[float] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)


def linear_lambdas(seed: int, batch: int) -> list[float]:
    """Dense log grid over LINEAR_LOG_RANGE, shifted by a seeded sub-step offset."""
    import numpy as np

    offset = np.random.default_rng([seed, batch]).random()
    lo, hi = LINEAR_LOG_RANGE
    steps = (np.arange(LINEAR_POINTS) + offset) / LINEAR_POINTS
    return [float(v) for v in 10.0 ** (lo + (hi - lo) * steps)]


def oracle_case(seed: int, index: int, n_nodes: int):
    """Seeded random monotone quantizer, lambda and Monte Carlo seed of one case.

    M and the lambda stratum cycle with the index and only the positions
    within them are random, so that the mean d_e excess over a few thousand
    cases hardly moves with the seed.  Boundary c of every row lies within
    half a cell of the c-th equiprobable point of N(0, 1).
    """
    import numpy as np
    from scipy.special import ndtri

    from strategiq.quantizer_core import Quantizer

    rng = np.random.default_rng([seed, index])
    m = ORACLE_M[index % len(ORACLE_M)]
    stratum = (index // len(ORACLE_M)) % ORACLE_LAMBDA_STRATA
    lam = ORACLE_LAMBDA_MAX * (stratum + rng.random()) / ORACLE_LAMBDA_STRATA
    interior = ndtri((np.arange(1, m) - 0.5 + rng.random((n_nodes, m - 1))) / m)
    edges = np.full((n_nodes, 1), np.inf)
    q = Quantizer(M=m, boundaries=np.hstack([-edges, interior, edges]))
    return q, lam, int(rng.integers(2**31))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class _Suspended:
    """Takes the tracer's wrappers out while the benchmark checks results."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.uninstall()

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.install()


def run_design(name: str, seed: int, seconds: float, ctx: dict, tracer) -> Outcome:
    from strategiq import cli, quantizer_core
    from strategiq.metrics import lloyd_max_quantizer

    m, lambdas = DESIGN[name]
    source, grid = ctx["source"], ctx["grid"]
    second_moment = grid.second_moment()
    out = Outcome()
    sweep = 0
    while sweep == 0 or out.timed_s < seconds:
        # One run_sweep call per lambda, with the row seed a whole-grid sweep
        # would give it, so the rows are those of run_sweep(lambdas=<grid>).
        # A single-row sweep runs on the calling thread: the pool's thread
        # hand-offs moved the time of a whole-grid sweep by 25-30% from run to
        # run on a 2-CPU machine, and linear-sweep already measures the pool.
        rows = []
        for index, lam in enumerate(lambdas):
            cfg = cli.SweepConfig(
                mode="quantizer", m_values=[m], lambdas=[lam],
                n_restarts=N_RESTARTS, seed=seed + 1000 * sweep + index,
            )
            t0 = time.perf_counter()
            rows.extend(cli.run_sweep(cfg))
            out.timed(1, time.perf_counter() - t0)
        sweep += 1
        with _Suspended(tracer):
            restarts = tracer.restarts_by_row() if tracer is not None else {}
            for row in rows:
                out.check(_check_design_row(row, source, grid, second_moment,
                                            lloyd_max_quantizer, quantizer_core))
                if row.d_e is not None and sweep == 1:
                    out.excess.append(row.d_e + row.lam * second_moment)
                per_restart = restarts.get((row.M, row.lam))
                out.rows.append({
                    "seed": row.seed,
                    "lambda": row.lam,
                    "M": row.M,
                    "d_e": row.d_e,
                    "iterations": row.iterations,
                    "converged": row.converged,
                    "restart_winner": row.restart_winner,
                    "d_kl_max": row.d_kl_max,
                    "cap_hits": None if per_restart is None else sum(
                        1 for r in per_restart if r["iterations"] >= ctx["cap_iters"]
                    ),
                    "restarts": per_restart,
                })
    return out


def _check_design_row(row, source, grid, second_moment, lloyd_max_quantizer, quantizer_core):
    where = f"design row lambda={row.lam:g} M={row.M}"
    if row.d_e is None:
        return [f"{where}: row failed (d_e is None)"]
    values = (row.d_e, row.fidelity, row.d_d, row.d_theta)
    if not all(v is not None and math.isfinite(v) for v in values):
        return [f"{where}: non-finite distortion {values}"]
    problems = []
    if not _close(row.d_e, row.fidelity - row.lam * row.d_theta, 1e-12):
        problems.append(f"{where}: d_e != fidelity - lambda*d_theta")
    if row.d_theta > second_moment * (1.0 + 1e-12):
        problems.append(f"{where}: d_theta {row.d_theta} > grid second moment {second_moment}")
    lm = lloyd_max_quantizer(source, row.M, grid)
    _, lm_report = quantizer_core.evaluate(lm, source, grid, row.lam)
    if row.d_e > lm_report.d_e + 1e-9 * max(1.0, abs(lm_report.d_e)):
        problems.append(f"{where}: d_e {row.d_e} worse than its Lloyd-Max start {lm_report.d_e}")
    return problems


def run_linear(seed: int, seconds: float, ctx: dict, tracer) -> Outcome:
    from strategiq import cli, gaussian_model, linear_equilibrium

    out = Outcome()
    batch = 0
    with tempfile.TemporaryDirectory(dir=ctx["scratch"]) as tmp:
        path = os.path.join(tmp, "sweep.csv")
        while batch < len(LINEAR_SOURCES) or out.timed_s < seconds:
            r, rho = LINEAR_SOURCES[batch % len(LINEAR_SOURCES)]
            cfg = cli.SweepConfig(mode="linear", lambdas=linear_lambdas(seed, batch),
                                  r=r, rho=rho, seed=seed + batch)
            t0 = time.perf_counter()
            rows = cli.run_sweep(cfg)
            cli.emit(rows, "csv", path)
            out.timed(len(rows), time.perf_counter() - t0)
            batch += 1
            with _Suspended(tracer):
                if tracer is not None:
                    tracer.emit_bytes += os.path.getsize(path)
                source = gaussian_model.make_source(1.0, r, rho)
                _check_linear(out, rows, path, source, linear_equilibrium)
                if batch <= len(LINEAR_SOURCES):
                    out.excess.extend(row.d_e + row.lam * source.sigma_theta**2
                                      for row in rows if row.d_e is not None)
    return out


_CSV_FIELDS = (("lambda", "lam"), ("d_e", "d_e"), ("fidelity", "fidelity"),
               ("d_d", "d_d"), ("d_theta", "d_theta"), ("alpha", "alpha"))


def _check_linear(out: Outcome, rows, path, source, linear_equilibrium) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    if len(parsed) != len(rows):
        # rows cannot be matched to the file, so every row of the batch fails
        out.failures.append(f"emitted CSV has {len(parsed)} rows, sweep returned {len(rows)}")
        out.failed += len(rows)
        return
    r, rho = source.r, source.rho
    for row, rec in zip(rows, parsed):
        where = f"linear row r={r:g} rho={rho:g} lambda={row.lam:.6g}"
        if row.d_e is None or row.alpha is None:
            out.check([f"{where}: row failed"])
            continue
        problems = []
        a2, a1, a0 = r * (rho + r), 1.0 + row.lam * r * r, row.lam * rho * r - 1.0
        scale = abs(a2) * row.alpha**2 + abs(a1 * row.alpha) + abs(a0)
        if abs(a2 * row.alpha**2 + a1 * row.alpha + a0) > 1e-10 * max(scale, 1.0):
            problems.append(f"{where}: alpha {row.alpha} does not solve the stationarity quadratic")
        fresh = linear_equilibrium.linear_distortions(source, row.alpha, row.lam)
        got = (row.d_e, row.fidelity, row.d_d, row.d_theta)
        want = (fresh.d_e, fresh.fidelity, fresh.d_d, fresh.d_theta)
        if not all(_close(a, b, 1e-12) for a, b in zip(got, want)):
            problems.append(f"{where}: distortions {got} differ from linear_distortions")
        if int(rec["M"]) != row.M or int(rec["seed"]) != row.seed:
            problems.append(f"{where}: M or seed does not parse back from the CSV")
        for column, attr in _CSV_FIELDS:
            if not _close(float(rec[column]), getattr(row, attr), 1e-11):
                problems.append(f"{where}: CSV column {column} does not parse back")
        out.check(problems)


def run_oracle(seed: int, seconds: float, ctx: dict, tracer) -> Outcome:
    import numpy as np

    from strategiq import gaussian_model, oracle, quantizer_core

    source, grid = ctx["source"], ctx["grid"]
    second_moment = grid.second_moment()
    small_grid = gaussian_model.make_theta_grid(source, BRUTE_FORCE_NODES, "gauss-hermite")
    ogrid = oracle.make_oracle_grid(source)
    out = Outcome()
    with _Suspended(tracer):
        for index in range(ORACLE_EXCESS_CASES):
            q, lam, _ = oracle_case(seed, index, grid.n_nodes)
            out.excess.append(quantizer_core.evaluate(q, source, grid, lam)[1].d_e
                              + lam * second_moment)
    index = 0
    while index == 0 or out.timed_s < seconds:
        q, lam, mc_seed = oracle_case(seed, index, grid.n_nodes)
        t0 = time.perf_counter()
        br, report = quantizer_core.evaluate(q, source, grid, lam)
        mc = oracle.monte_carlo_distortions(q, br, source, grid, lam,
                                            n_samples=MC_SAMPLES, seed=mc_seed)
        bf = oracle.brute_force_design(source, small_grid, 2, lam, ogrid) if q.M == 2 else None
        out.timed(1, time.perf_counter() - t0)
        with _Suspended(tracer):
            where = f"oracle case {index} (M={q.M}, lambda={lam:.4g})"
            problems = []
            for label, exact, sampled, se in (
                ("fidelity", report.fidelity, mc.report.fidelity, mc.se_fidelity),
                ("d_d", report.d_d, mc.report.d_d, mc.se_d_d),
                ("d_theta", report.d_theta, mc.report.d_theta, mc.se_d_theta),
            ):
                if not abs(sampled - exact) <= MC_SE_BAND * se + 1e-12:
                    problems.append(f"{where}: Monte Carlo {label} {sampled} vs exact {exact}")
            if bf is not None:
                _, again = quantizer_core.evaluate(bf.quantizer, source, small_grid, lam)
                if not _close(again.d_e, bf.report.d_e, 1e-12):
                    problems.append(f"{where}: brute force d_e does not re-evaluate")
                # any grid-valued quantizer is in the search space, so it cannot beat the optimum
                rng = np.random.default_rng([seed, index, 1])
                pick = rng.choice(ogrid.candidates, size=(BRUTE_FORCE_NODES, 1))
                rival = quantizer_core.Quantizer(M=2, boundaries=np.hstack(
                    [np.full_like(pick, -np.inf), pick, np.full_like(pick, np.inf)]))
                _, rival_report = quantizer_core.evaluate(rival, source, small_grid, lam)
                if rival_report.d_e < bf.report.d_e - 1e-12 * max(1.0, abs(bf.report.d_e)):
                    problems.append(f"{where}: brute force beaten by a grid quantizer")
            out.check(problems)
        index += 1
    return out


def _setup() -> dict:
    """Import strategiq from the checkout and build the source and the grid."""
    t0 = time.perf_counter()
    if not (SRC / "strategiq" / "__init__.py").is_file():
        raise SystemExit(f"no strategiq sources under {SRC}")
    import strategiq
    from strategiq import gaussian_model

    if Path(strategiq.__file__).resolve().parent != SRC / "strategiq":
        raise SystemExit(f"imported strategiq from {strategiq.__file__}, not from {SRC}")
    t1 = time.perf_counter()
    source = gaussian_model.make_source(1.0, 1.0, 0.0)
    grid = gaussian_model.make_theta_grid(source, 17, "gauss-hermite")
    t2 = time.perf_counter()
    return {
        "source": source,
        "grid": grid,
        "setup": {"interpreter_to_main_s": t0 - _t_start, "import_s": t1 - t0, "grid_s": t2 - t1},
    }


def _machine(cli_module) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    workers = getattr(cli_module.SweepConfig(), "workers", None)
    return {
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "sweep_pool_threads": workers or os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="JSON Lines file for the traced run's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ctx = _setup()
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"setup": ctx["setup"]}))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --setup-only")

    from strategiq import cli

    ctx["cap_iters"] = getattr(cli.SweepConfig(), "max_iters", math.inf)
    ctx["scratch"] = str(Path(__file__).resolve().parent / "out")
    os.makedirs(ctx["scratch"], exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if args.workload in DESIGN:
        out = run_design(args.workload, args.seed, args.seconds, ctx, tracer)
    elif args.workload == "linear-sweep":
        out = run_linear(args.seed, args.seconds, ctx, tracer)
    else:
        out = run_oracle(args.seed, args.seconds, ctx, tracer)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": out.ops,
        "failed": out.failed,
        "timed_s": out.timed_s,
        "failures": out.failures,
        "excess_mean": sum(out.excess) / len(out.excess) if out.excess else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": out.rows,
        "setup": ctx["setup"],
        "machine": _machine(cli),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(ctx["cap_iters"])
        result["missing_sites"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

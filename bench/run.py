"""Benchmark for strategiq: one workload, measured end to end or per layer.

    python3 bench/run.py --workload design-m8 --seed 0 --seconds 20 --trace 0

Every workload runs in a fresh Python process (``bench/workloads.py``) with
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to 1, so the
sweep's own thread pool is the only concurrency.  Set-up time is measured on
separate processes that only import strategiq and build the source and the
grid, from spawn to their ``ready`` line; the median is reported.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` the workload runs twice with the same seed,
untraced and traced, and the last line holds the per-layer metrics of the
traced run plus ``trace.overhead_share``, the traced run's extra time per
operation over the untraced one.  Per-row diagnostics, machine info and the
traced spans are written under ``bench/out/``.

This script uses only the standard library; the workload process imports
numpy and strategiq.  It exits 2 without a result when the checkout has no
strategiq sources or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS  # imports only the standard library

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    """A workload or set-up process exited badly or printed no result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for key in THREAD_ENV:
        env[key] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run workloads.py; return (seconds from spawn to ready, its final JSON line)."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), text=True, cwd=ROOT)
    # the timer kills a child that outlives the run's deadline; reading stdout then ends
    timer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or first.strip() != "ready" or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit code {proc.returncode}")
    return ready_s, json.loads(lines[-1])


def _measure_setup(deadline: float) -> tuple[list[float], list[dict]]:
    samples, inner = [], []
    for _ in range(SETUP_PROBES):
        ready_s, out = _spawn(["--setup-only"], deadline)
        samples.append(ready_s)
        inner.append(out["setup"])
    return samples, inner


def _end_to_end(run: dict, setup_s: float) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": run["ops"] / run["timed_s"], "unit": "1/s"},
        "de_excess_mean": {"value": run["excess_mean"], "unit": "var"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }


# Units of the per-layer metrics, by name suffix; the rest are counts.
_LAYER_UNITS = (
    ("_us_per_call", "us"), ("_ns_per_cell", "ns"), ("_per_s", "1/s"), ("_bytes_computed", "B"),
    ("_bytes", "B"), ("_s", "s"), ("_s_p50", "s"), ("_s_max", "s"), ("_share", "ratio"),
    ("_per_iteration", "ratio"), ("_per_alpha", "ratio"), ("concurrency", "ratio"),
    ("de_spread", "var"),
)


def _layer_unit(name: str) -> str:
    for suffix, unit in _LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def _per_layer(traced: dict, untraced: dict, setup_inner: list[dict]) -> dict:
    metrics = {name: {"value": value, "unit": _layer_unit(name)}
               for name, value in traced["layers"].items()}
    for key in ("import_s", "grid_s"):
        metrics[f"setup.{key}"] = {
            "value": statistics.median(s[key] for s in setup_inner), "unit": "s"}
    per_op = [run["timed_s"] / run["ops"] for run in (traced, untraced)]
    metrics["trace.overhead_share"] = {"value": per_op[0] / per_op[1] - 1.0, "unit": "ratio"}
    return metrics


def _write_details(name: str, payload: dict) -> None:
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="strategiq benchmark: one workload, one run.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "strategiq" / "__init__.py").is_file():
        print(f"no strategiq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_samples, setup_inner = _measure_setup(deadline)
        _, untraced = _spawn([*run_args, "--trace", "0"], deadline)
        runs = [untraced]
        if args.trace:
            spans = BENCH / "out" / f"{stem}-spans.jsonl"
            spans.parent.mkdir(exist_ok=True)
            _, traced = _spawn([*run_args, "--trace", "1", "--spans", str(spans)], deadline)
            runs.append(traced)
    except ChildFailed as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = _per_layer(traced, untraced, setup_inner)
    else:
        metrics = _end_to_end(untraced, statistics.median(setup_samples))
    failures = [f for run in runs for f in run["failures"]]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": untraced["machine"],
        "setup_samples_s": setup_samples,
        "setup_inner": setup_inner,
        "runs": [{k: v for k, v in run.items() if k != "machine"} for run in runs],
        "metrics": metrics,
    }
    _write_details(f"{stem}.json", details)
    for failure in failures[:20]:
        print(f"check failed: {failure}")
    print(json.dumps({k: details[k] for k in ("workload", "seed", "machine")}))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(run["ops"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

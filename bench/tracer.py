"""In-memory span tracer that wraps strategiq's public functions from outside.

Each wrap site is a module attribute at the place where the caller looks the
function up (``strategiq.optimizer.pooled_cell_stats`` is what the descent
calls, ``strategiq.quantizer_core.pooled_cell_stats`` is what ``evaluate``
calls).  A wrapper pushes a frame on its thread's own stack, so spans opened
in the sweep's worker threads never nest under another thread's span.

Per-name aggregates (calls, total time, self time) are kept for every span,
and self time is the span's duration minus the time its child spans on the
same thread cover.  Only coarse spans (one per sweep row or restart, not per
descent iteration) are kept as individual records; the fine ones are only
counted, so a 20,000-iteration descent does not fill memory with spans.
Recorded spans carry an id and the id of the span that caused them; the
top-level span of a pool thread is caused by the sweep in progress.  Nothing
is written until ``dump`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time

# (module, attribute, span name).  The span name is the layer-qualified name
# the per-layer metrics are reported under.
WRAP_SITES = (
    ("strategiq.cli", "run_sweep", "cli.run_sweep"),
    ("strategiq.cli", "emit", "cli.emit"),
    ("strategiq.cli", "multistart", "optimizer.multistart"),
    ("strategiq.cli", "max_kl", "metrics.max_kl"),
    ("strategiq.optimizer", "design", "optimizer.design"),
    ("strategiq.optimizer", "pooled_cell_stats", "quantizer_core.pooled_cell_stats"),
    ("strategiq.quantizer_core", "pooled_cell_stats", "quantizer_core.pooled_cell_stats"),
    ("strategiq.optimizer", "lloyd_max", "metrics.lloyd_max"),
    ("strategiq.quantizer_core", "evaluate", "quantizer_core.evaluate"),
    ("strategiq.oracle", "evaluate", "quantizer_core.evaluate"),
    ("strategiq.quantizer_core", "cell_moments", "gaussian_model.cell_moments"),
    ("strategiq.gaussian_model", "interval_moments", "gaussian_model.interval_moments"),
    ("strategiq.oracle", "interval_moments", "gaussian_model.interval_moments"),
    ("strategiq.oracle", "monte_carlo_distortions", "oracle.monte_carlo"),
    ("strategiq.oracle", "brute_force_design", "oracle.brute_force"),
    ("strategiq.linear_equilibrium", "encoder_objective", "linear_equilibrium.encoder_objective"),
    ("strategiq.linear_equilibrium", "optimal_alpha", "linear_equilibrium.optimal_alpha"),
    ("strategiq.linear_equilibrium", "linear_distortions", "linear_equilibrium.linear_distortions"),
)

# Spans recorded one by one; every other span is only aggregated.
_RECORDED = frozenset(
    {
        "cli.run_sweep",
        "cli.emit",
        "optimizer.multistart",
        "optimizer.design",
        "metrics.max_kl",
        "metrics.lloyd_max",
        "oracle.monte_carlo",
        "oracle.brute_force",
    }
)


class _Frame:
    __slots__ = ("id", "name", "start", "child_s", "evals", "restarts")

    def __init__(self, span_id: int, name: str, start: float) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.evals = 0  # pooled_cell_stats calls directly under a design span
        self.restarts: list[dict] = []  # design records under a multistart span


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.agg: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[dict] = []
        self.cells = 0
        self.bytes_computed = 0
        self.mc_samples = 0
        self.assignments = 0
        self.sweep_rows: list[tuple[float, float]] = []  # row-work spans of pool threads


class Tracer:
    """Installs wrappers at WRAP_SITES and turns what they see into metrics."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self.sweep_id: int | None = None  # span id of the run_sweep call in progress
        self.emit_bytes = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name in WRAP_SITES:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                site = f"{module_name}.{attr}"
                if site not in self.missing:
                    self.missing.append(site)
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            frame = _Frame(next(tracer._ids), name, time.perf_counter())
            state.stack.append(frame)
            sweep = name == "cli.run_sweep"
            if sweep:
                tracer.sweep_id = frame.id
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                if sweep:
                    tracer.sweep_id = None
            tracer._close(state, frame, end, args, result)
            return result

        return wrapper

    # -- span bookkeeping ---------------------------------------------------

    def _close(self, state: _ThreadState, frame: _Frame, end: float, args, result) -> None:
        name = frame.name
        dur = end - frame.start
        agg = state.agg.get(name)
        if agg is None:
            agg = state.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame.child_s
        parent = state.stack[-1] if state.stack else None
        parent_id = parent.id if parent is not None else None
        if parent is not None:
            parent.child_s += dur
        elif self.sweep_id is not None and name != "cli.run_sweep":
            # top-level span of a pool thread: row work caused by the sweep
            parent_id = self.sweep_id
            state.sweep_rows.append((frame.start, end))

        if name == "quantizer_core.pooled_cell_stats":
            if parent is not None and parent.name == "optimizer.design":
                parent.evals += 1
        elif name == "gaussian_model.interval_moments":
            mass = result[0]
            edges = mass.size + mass.size // max(mass.shape[-1], 1)  # one more edge than cells per row
            state.cells += int(mass.size)
            state.bytes_computed += 8 * edges + sum(int(a.nbytes) for a in result)
        elif name == "oracle.monte_carlo":
            state.mc_samples += int(result.n_samples)
        elif name == "oracle.brute_force":
            state.assignments += int(result.iterations)

        if name not in _RECORDED:
            return
        span = {"id": frame.id, "parent_id": parent_id, "name": name,
                "thread": threading.get_ident(), "start": frame.start, "end": end}
        if name == "optimizer.design":
            record = {
                "wall_s": dur,
                "evals": frame.evals,
                "iterations": int(result.iterations),
                "converged": bool(result.converged),
                "d_e": float(result.report.d_e),
            }
            span.update(record)
            if parent is not None and parent.name == "optimizer.multistart":
                parent.restarts.append(record)
        elif name == "cli.run_sweep":
            span["child_s"] = frame.child_s
        elif name == "optimizer.multistart":
            span.update(
                {"M": int(args[2]), "lam": float(args[3]), "restarts": frame.restarts,
                 "winner": result.restart_index}
            )
        state.spans.append(span)

    # -- results ------------------------------------------------------------

    def _merged(self) -> tuple[dict[str, list[float]], list[dict], _ThreadState]:
        agg: dict[str, list[float]] = {}
        spans: list[dict] = []
        total = _ThreadState()
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, tot, self_s) in st.agg.items():
                a = agg.setdefault(name, [0, 0.0, 0.0])
                a[0] += calls
                a[1] += tot
                a[2] += self_s
            spans.extend(st.spans)
            total.cells += st.cells
            total.bytes_computed += st.bytes_computed
            total.mc_samples += st.mc_samples
            total.assignments += st.assignments
            total.sweep_rows.extend(st.sweep_rows)
        spans.sort(key=lambda s: s["start"])
        return agg, spans, total

    def restarts_by_row(self) -> dict[tuple[int, float], list[dict]]:
        """Per-restart records of each multistart call, keyed by (M, lam)."""
        _, spans, _ = self._merged()
        return {
            (s["M"], s["lam"]): s["restarts"] for s in spans if s["name"] == "optimizer.multistart"
        }

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON Lines."""
        _, spans, _ = self._merged()
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, cap_iters: float) -> dict[str, float]:
        """Per-layer metrics, named as in BENCHMARK.json's per_layer list.

        A restart counts as a cap hit when it ran cap_iters iterations.
        """
        agg, spans, total = self._merged()

        def calls(name: str) -> int:
            return int(agg.get(name, (0, 0.0, 0.0))[0])

        def secs(name: str) -> float:
            return float(agg.get(name, (0, 0.0, 0.0))[1])

        def self_secs(name: str) -> float:
            return float(agg.get(name, (0, 0.0, 0.0))[2])

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        restarts = [s for s in spans if s["name"] == "optimizer.design"]
        durations = sorted(s["wall_s"] for s in restarts)
        iterations = sum(s["iterations"] for s in restarts)
        evals = sum(s["evals"] for s in restarts)
        winner_evals = 0
        spreads = []
        for s in spans:
            if s["name"] != "optimizer.multistart" or not s["restarts"]:
                continue
            if s["winner"] is not None and s["winner"] < len(s["restarts"]):
                winner_evals += s["restarts"][s["winner"]]["evals"]
            d_es = [r["d_e"] for r in s["restarts"]]
            spreads.append(max(d_es) - min(d_es))

        sweeps = [s for s in spans if s["name"] == "cli.run_sweep"]
        sweep_wall = sum(s["end"] - s["start"] for s in sweeps)
        row_s, covered = _row_coverage(sweeps, total.sweep_rows)

        pcs = "quantizer_core.pooled_cell_stats"
        im = "gaussian_model.interval_moments"
        la = "linear_equilibrium.optimal_alpha"
        return {
            "optimizer.restarts": len(restarts),
            "optimizer.restart_s_p50": statistics.median(durations) if durations else 0.0,
            "optimizer.restart_s_max": durations[-1] if durations else 0.0,
            "optimizer.iterations": iterations,
            "optimizer.cap_hits": sum(1 for s in restarts if s["iterations"] >= cap_iters),
            "optimizer.converged": sum(1 for s in restarts if s["converged"]),
            "optimizer.evals": evals,
            "optimizer.evals_per_iteration": ratio(evals, iterations),
            "optimizer.self_s": self_secs("optimizer.design"),
            "optimizer.winner_eval_share": ratio(winner_evals, evals),
            "optimizer.de_spread": ratio(sum(spreads), len(spreads)),
            f"{pcs}_calls": calls(pcs),
            f"{pcs}_s": secs(pcs),
            f"{pcs}_us_per_call": ratio(secs(pcs) * 1e6, calls(pcs)),
            "quantizer_core.evaluate_calls": calls("quantizer_core.evaluate"),
            "quantizer_core.evaluate_s": secs("quantizer_core.evaluate"),
            "gaussian_model.cell_moments_calls": calls("gaussian_model.cell_moments"),
            "gaussian_model.cell_moments_s": secs("gaussian_model.cell_moments"),
            f"{im}_calls": calls(im),
            f"{im}_s": secs(im),
            f"{im}_cells": total.cells,
            f"{im}_ns_per_cell": ratio(secs(im) * 1e9, total.cells),
            f"{im}_bytes_computed": total.bytes_computed,
            "metrics.lloyd_max_calls": calls("metrics.lloyd_max"),
            "metrics.lloyd_max_s": secs("metrics.lloyd_max"),
            "metrics.max_kl_calls": calls("metrics.max_kl"),
            "metrics.max_kl_s": secs("metrics.max_kl"),
            "oracle.monte_carlo_calls": calls("oracle.monte_carlo"),
            "oracle.monte_carlo_s": secs("oracle.monte_carlo"),
            "oracle.mc_samples_per_s": ratio(total.mc_samples, secs("oracle.monte_carlo")),
            "oracle.brute_force_calls": calls("oracle.brute_force"),
            "oracle.brute_force_s": secs("oracle.brute_force"),
            "oracle.assignments_per_s": ratio(total.assignments, secs("oracle.brute_force")),
            f"{la}_calls": calls(la),
            f"{la}_s": secs(la),
            "linear_equilibrium.encoder_objective_calls": calls("linear_equilibrium.encoder_objective"),
            "linear_equilibrium.objective_per_alpha": ratio(
                calls("linear_equilibrium.encoder_objective"), calls(la)
            ),
            "linear_equilibrium.linear_distortions_s": secs("linear_equilibrium.linear_distortions"),
            "cli.run_sweep_s": sweep_wall,
            "cli.self_s": sweep_wall - covered,
            "cli.concurrency": ratio(row_s, sweep_wall),
            "cli.emit_s": secs("cli.emit"),
            "cli.emit_bytes": self.emit_bytes,
        }


def _row_coverage(
    sweeps: list[dict], pool_rows: list[tuple[float, float]]
) -> tuple[float, float]:
    """Summed duration of row-work spans and the part of sweep wall time they cover.

    Row work is the child spans of run_sweep on the caller's thread (a serial
    sweep; they never overlap, so their sum is what they cover) plus the
    top-level spans of the pool threads, whose overlapping intervals are
    merged before they count as covered.
    """
    row_s = sum(s["child_s"] for s in sweeps) + sum(b - a for a, b in pool_rows)
    covered = sum(s["child_s"] for s in sweeps)
    for sweep in sweeps:
        inside = sorted(
            (max(a, sweep["start"]), min(b, sweep["end"]))
            for a, b in pool_rows
            if b > sweep["start"] and a < sweep["end"]
        )
        cur_start = cur_end = None
        for a, b in inside:
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
    return row_s, covered


"""Sweep orchestration and the `strategiq` command line.

A sweep evaluates one row per (lambda, M) pair: M = 0 is the sentinel for the
rate-unconstrained linear stage (closed form), M >= 1 runs the multistart
quantizer design plus the similarity metric.  Rows run one after another
on the calling thread in (lambda, M) order with deterministic per-row seeds,
so identical configs produce byte-identical files.  A failed row does not
abort the sweep: it is recorded with converged=false and the exception text
in its `error` field, and its traceback is logged at DEBUG level.

CSV schema (fixed order, floats at 12 significant digits, infinities as
"inf", absent fields empty):

    lambda,M,d_e,fidelity,d_d,d_theta,d_kl_max,alpha,iterations,converged,restart_winner,seed

--verify appends Monte Carlo cross-check columns with standard errors.
JSON output carries the same keys per row object plus `error` (null unless
the row failed).

Exit codes: 0 success, 1 config error, 2 I/O error, 3 at least one sweep row
failed (every row is still written, and each failed row gets one line on
stderr).
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import linear_equilibrium as linear
from .gaussian_model import GRID_SCHEMES, SourceSpec, ThetaGrid, make_source, make_theta_grid
from .metrics import max_kl
from .optimizer import OptimOptions, design_result_to_dict, multistart
from .oracle import monte_carlo_distortions

logger = logging.getLogger(__name__)

CSV_COLUMNS = (
    "lambda",
    "M",
    "d_e",
    "fidelity",
    "d_d",
    "d_theta",
    "d_kl_max",
    "alpha",
    "iterations",
    "converged",
    "restart_winner",
    "seed",
)
MC_COLUMNS = (
    "mc_fidelity",
    "mc_fidelity_se",
    "mc_d_d",
    "mc_d_d_se",
    "mc_d_theta",
    "mc_d_theta_se",
)

MODES = ("linear", "quantizer", "sweep")
LINEAR_M_SENTINEL = 0


class ConfigError(ValueError):
    """Malformed sweep configuration (exit code 1)."""


@dataclass
class SweepConfig:
    """Everything a sweep run needs; JSON fields mirror these names."""

    mode: str = "sweep"
    lambdas: list | dict = field(default_factory=lambda: [0.0, 1.0])
    m_values: list = field(default_factory=lambda: [LINEAR_M_SENTINEL])
    sigma_x: float = 1.0
    r: float = 1.0
    rho: float = 0.0
    theta_nodes: int = 17
    theta_scheme: str = "gauss-hermite"
    eps: float = OptimOptions.eps
    max_iters: int = OptimOptions.max_iters
    n_restarts: int = OptimOptions.n_restarts
    seed: int = OptimOptions.seed
    out: str | None = None
    format: str = "csv"
    verify: bool = False
    mc_samples: int = 1_000_000
    lambda_max: float = 1e7


@dataclass
class SweepRow:
    """One (lambda, M) outcome; None marks a field absent for that mode."""

    lam: float
    M: int
    d_e: float | None = None
    fidelity: float | None = None
    d_d: float | None = None
    d_theta: float | None = None
    d_kl_max: float | None = None
    alpha: float | None = None
    iterations: int | None = None
    converged: bool | None = None
    restart_winner: int | None = None
    seed: int | None = None
    mc_fidelity: float | None = None
    mc_fidelity_se: float | None = None
    mc_d_d: float | None = None
    mc_d_d_se: float | None = None
    mc_d_theta: float | None = None
    mc_d_theta_se: float | None = None
    error: str | None = None  # exception text of a failed row; JSON only


# output column of each SweepRow attribute: the same name, except lam
_COLUMN_OF = {f.name: "lambda" if f.name == "lam" else f.name for f in fields(SweepRow)}
_ATTR_OF = {column: name for name, column in _COLUMN_OF.items()}
_FLOAT_ATTRS = frozenset(f.name for f in fields(SweepRow) if f.type.startswith("float"))


def resolve_lambdas(spec, lambda_max: float) -> list[float]:
    """Explicit list (with "inf" capped at lambda_max) or log-range dict."""
    if isinstance(spec, dict):
        extra = set(spec) - {"start", "stop", "points"}
        if extra:
            raise ConfigError(f"lambdas range spec has unknown keys {sorted(extra)}")
        try:
            start, stop, points = float(spec["start"]), float(spec["stop"]), int(spec["points"])
        except KeyError as exc:
            raise ConfigError(f"lambdas range spec missing field {exc}") from exc
        if start <= 0 or stop <= 0 or points < 1:
            raise ConfigError("lambdas range spec needs positive start/stop and points >= 1")
        return [float(v) for v in np.logspace(math.log10(start), math.log10(stop), points)]
    values = []
    for v in spec:
        if isinstance(v, str) and v.strip().lower() in ("inf", "+inf", "infinity"):
            values.append(float(lambda_max))
            continue
        x = float(v)
        values.append(float(lambda_max) if math.isinf(x) else x)
    if not values:
        raise ConfigError("lambdas must be nonempty")
    if any(v < 0 for v in values):
        raise ConfigError("lambdas must be nonnegative")
    return values


def config_from_dict(data: dict) -> SweepConfig:
    """Build a SweepConfig from parsed JSON, naming any offending field."""
    known = {f.name for f in fields(SweepConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = SweepConfig(**data)
    validate_config(cfg)
    return cfg


def validate_config(cfg: SweepConfig) -> None:
    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.theta_scheme not in GRID_SCHEMES:
        raise ConfigError(f"theta_scheme must be one of {GRID_SCHEMES}")
    if cfg.theta_nodes < 1:
        raise ConfigError("theta_nodes must be >= 1")
    if not cfg.m_values:
        raise ConfigError("m_values must be nonempty")
    for m in cfg.m_values:
        if int(m) != m or m < 0:
            raise ConfigError(f"m_values entries must be nonnegative integers, got {m}")
    if cfg.mode == "quantizer" and any(m == LINEAR_M_SENTINEL for m in cfg.m_values):
        raise ConfigError("quantizer mode requires m_values >= 1 (0 is the linear sentinel)")
    if cfg.mc_samples < 1:
        raise ConfigError("mc_samples must be >= 1")


def _effective_m_values(cfg: SweepConfig) -> list[int]:
    if cfg.mode == "linear":
        return [LINEAR_M_SENTINEL]
    return [int(m) for m in cfg.m_values]


def _linear_row(source: SourceSpec, lam: float, seed: int) -> SweepRow:
    alpha = linear.optimal_alpha(source, lam)
    rep = linear.linear_distortions(source, alpha, lam)
    return SweepRow(
        lam=lam,
        M=LINEAR_M_SENTINEL,
        d_e=rep.d_e,
        fidelity=rep.fidelity,
        d_d=rep.d_d,
        d_theta=rep.d_theta,
        alpha=alpha,
        seed=seed,
    )


def _quantizer_row(
    source: SourceSpec,
    grid: ThetaGrid,
    cfg: SweepConfig,
    lam: float,
    m: int,
    seed: int,
) -> SweepRow:
    opts = OptimOptions(
        eps=cfg.eps, max_iters=cfg.max_iters, n_restarts=cfg.n_restarts, seed=seed
    )
    result = multistart(source, grid, m, lam, opts)
    similarity = max_kl(result.quantizer, source, grid)
    row = SweepRow(
        lam=lam,
        M=m,
        d_e=result.report.d_e,
        fidelity=result.report.fidelity,
        d_d=result.report.d_d,
        d_theta=result.report.d_theta,
        d_kl_max=similarity.d_max,
        iterations=result.iterations,
        converged=result.converged,
        restart_winner=result.restart_index,
        seed=seed,
    )
    if cfg.verify:
        mc = monte_carlo_distortions(
            result.quantizer, result.responses, source, grid, lam,
            n_samples=cfg.mc_samples, seed=seed + 777,
        )
        row = replace(
            row,
            mc_fidelity=mc.report.fidelity,
            mc_fidelity_se=mc.se_fidelity,
            mc_d_d=mc.report.d_d,
            mc_d_d_se=mc.se_d_d,
            mc_d_theta=mc.report.d_theta,
            mc_d_theta_se=mc.se_d_theta,
        )
    return row


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """All (lambda, M) rows of a sweep, ordered by (lambda, M)."""
    validate_config(cfg)
    source = make_source(cfg.sigma_x, cfg.r, cfg.rho)
    lambdas = sorted(resolve_lambdas(cfg.lambdas, cfg.lambda_max))
    m_values = sorted(set(_effective_m_values(cfg)))
    needs_grid = any(m >= 1 for m in m_values)
    grid = make_theta_grid(source, cfg.theta_nodes, cfg.theta_scheme) if needs_grid else None

    rows = []
    for index, (lam, m) in enumerate(itertools.product(lambdas, m_values)):
        seed = cfg.seed + index
        try:
            if m == LINEAR_M_SENTINEL:
                row = _linear_row(source, lam, seed)
            else:
                row = _quantizer_row(source, grid, cfg, lam, m, seed)
        except Exception as exc:
            logger.debug("sweep row (lambda=%g, M=%d) failed", lam, m, exc_info=True)
            row = SweepRow(lam=lam, M=m, converged=False, seed=seed,
                           error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    return rows


def _fmt(value, *, json_mode: bool = False):
    """One cell: 12-significant-digit text for CSV, native values for JSON."""
    if value is None:
        return None if json_mode else ""
    if isinstance(value, bool):
        return value if json_mode else ("true" if value else "false")
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value) if json_mode else str(int(value))
    v = float(value)
    if json_mode:
        return "inf" if v == math.inf else ("-inf" if v == -math.inf else v)
    return f"{v:.12g}"


def _row_columns(rows: list[SweepRow]) -> tuple[str, ...]:
    verified = any(r.mc_fidelity is not None for r in rows)
    return CSV_COLUMNS + MC_COLUMNS if verified else CSV_COLUMNS


def _csv_lines(rows: list[SweepRow]):
    """Header and one line per row, without line terminators."""
    columns = _row_columns(rows)
    names = [_ATTR_OF[c] for c in columns]
    yield ",".join(columns)
    for row in rows:
        yield ",".join([_fmt(getattr(row, name)) for name in names])


def emit(rows: list[SweepRow], fmt: str, path: str) -> None:
    """Write rows as CSV or JSON; I/O problems surface with the path attached."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if fmt == "csv":
                fh.writelines(line + "\n" for line in _csv_lines(rows))
            else:
                columns = _row_columns(rows) + ("error",)
                payload = [
                    {c: _fmt(getattr(row, _ATTR_OF[c]), json_mode=True) for c in columns}
                    for row in rows
                ]
                json.dump(payload, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {path!r}: {exc}") from exc


def load_rows(path: str) -> list[SweepRow]:
    """Reload rows emitted as JSON (inverse of emit's json mode)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)

    def num(v):
        if isinstance(v, str):
            return {"inf": math.inf, "-inf": -math.inf}[v]
        return v

    rows = []
    for item in payload:
        values = {}
        for f in fields(SweepRow):
            column = _COLUMN_OF[f.name]
            value = item[column] if f.default is MISSING else item.get(column)
            values[f.name] = num(value) if f.name in _FLOAT_ATTRS else value
        rows.append(SweepRow(**values))
    return rows


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must contain a JSON object")
    return data


def _parse_lambda_flag(text: str):
    text = text.strip()
    if text.startswith("log:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ConfigError("--lambdas log spec must be log:START:STOP:POINTS")
        return {"start": float(parts[1]), "stop": float(parts[2]), "points": int(parts[3])}
    return [v.strip() for v in text.split(",") if v.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strategiq",
        description="Privacy-constrained strategic quantization sweeps and designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a (lambda, M) sweep and write CSV/JSON")
    sweep.add_argument("--config", help="JSON config file; flags override its fields")
    sweep.add_argument("--mode", choices=MODES)
    sweep.add_argument("--lambdas", help='comma list "0,0.5,1" (inf allowed) or log:START:STOP:POINTS')
    sweep.add_argument("--m", help="comma list of M values; 0 = linear (no rate constraint)")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out", help="output path (default: stdout)")
    sweep.add_argument("--format", choices=("csv", "json"))
    sweep.add_argument("--verify", action="store_true", default=None,
                       help="append Monte Carlo cross-check columns")
    for flag, typ in (
        ("--sigma-x", float), ("--r", float), ("--rho", float),
        ("--theta-nodes", int), ("--eps", float),
        ("--max-iters", int), ("--n-restarts", int), ("--mc-samples", int),
        ("--lambda-max", float),
    ):
        sweep.add_argument(flag, type=typ)
    sweep.add_argument("--theta-scheme", choices=GRID_SCHEMES)

    lin = sub.add_parser("linear", help="closed-form rate-unconstrained equilibrium")
    lin.add_argument("--lambda", dest="lam", type=float, required=True)
    lin.add_argument("--rho", type=float, default=SweepConfig.rho)
    lin.add_argument("--r", type=float, default=SweepConfig.r)
    lin.add_argument("--sigma-x", type=float, default=SweepConfig.sigma_x)

    des = sub.add_parser("design", help="design one strategic quantizer and write JSON")
    des.add_argument("--m", type=int, required=True)
    des.add_argument("--lambda", dest="lam", type=float, required=True)
    des.add_argument("--out", required=True)
    des.add_argument("--sigma-x", type=float, default=SweepConfig.sigma_x)
    des.add_argument("--r", type=float, default=SweepConfig.r)
    des.add_argument("--rho", type=float, default=SweepConfig.rho)
    des.add_argument("--theta-nodes", type=int, default=SweepConfig.theta_nodes)
    des.add_argument("--theta-scheme", choices=GRID_SCHEMES, default=SweepConfig.theta_scheme)
    des.add_argument("--seed", type=int, default=SweepConfig.seed)
    des.add_argument("--eps", type=float, default=SweepConfig.eps)
    des.add_argument("--max-iters", type=int, default=SweepConfig.max_iters)
    des.add_argument("--n-restarts", type=int, default=SweepConfig.n_restarts)
    return parser


_SWEEP_FLAGS = (  # flags that set the SweepConfig field of the same name
    "mode", "seed", "out", "format", "sigma_x", "r", "rho", "theta_nodes", "theta_scheme",
    "eps", "max_iters", "n_restarts", "mc_samples", "lambda_max",
)


def _sweep_config_from_args(args: argparse.Namespace) -> SweepConfig:
    data = _load_config_file(args.config) if args.config else {}
    for name in _SWEEP_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    if args.lambdas is not None:
        data["lambdas"] = _parse_lambda_flag(args.lambdas)
    if args.m is not None:
        try:
            data["m_values"] = [int(v) for v in args.m.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"--m must be a comma list of integers: {exc}") from exc
    if args.verify:
        data["verify"] = True
    return config_from_dict(data)


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _sweep_config_from_args(args)
    rows = run_sweep(cfg)
    if cfg.out:
        emit(rows, cfg.format, cfg.out)
        print(f"wrote {len(rows)} rows to {cfg.out}")
    else:
        for line in _csv_lines(rows):
            print(line)
    failed = [row for row in rows if row.error is not None]
    for row in failed:
        print(f"sweep row lambda={row.lam:g} M={row.M} failed: {row.error}", file=sys.stderr)
    return 3 if failed else 0


def _cmd_linear(args: argparse.Namespace) -> int:
    source = make_source(args.sigma_x, args.r, args.rho)
    eq = linear.solve_equilibrium(source, args.lam)
    rep = linear.linear_distortions(source, eq.alpha, args.lam)
    print(
        json.dumps(
            {
                "lambda": args.lam,
                "alpha": eq.alpha,
                "kappa": eq.kappa,
                "nu": eq.nu,
                "d_e": rep.d_e,
                "fidelity": rep.fidelity,
                "d_d": rep.d_d,
                "d_theta": rep.d_theta,
            },
            indent=2,
        )
    )
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    if args.m < 1:
        raise ConfigError("--m must be >= 1 for design (0 is the linear sentinel)")
    source = make_source(args.sigma_x, args.r, args.rho)
    grid = make_theta_grid(source, args.theta_nodes, args.theta_scheme)
    opts = OptimOptions(
        eps=args.eps, max_iters=args.max_iters, n_restarts=args.n_restarts, seed=args.seed
    )
    result = multistart(source, grid, args.m, args.lam, opts)
    payload = design_result_to_dict(result, grid)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write design output to {args.out!r}: {exc}") from exc
    print(
        f"designed M={args.m} quantizer at lambda={args.lam:g}: "
        f"d_e={result.report.d_e:.6g} d_d={result.report.d_d:.6g} "
        f"d_theta={result.report.d_theta:.6g} -> {args.out}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("STRATEGIQ_LOGLEVEL", "WARNING"))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "linear":
            return _cmd_linear(args)
        return _cmd_design(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

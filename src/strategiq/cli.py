"""Sweep orchestration and the `strategiq` command line.

A sweep evaluates one row per (lambda, M) pair: M = 0 is the sentinel for the
rate-unconstrained linear stage (closed form, computed for the whole lambda
grid in one vectorized pass), M >= 1 runs the quantizer design (one descent
from the closed-form start, optimizer.multistart) plus the similarity metric.
Rows run one after another on the calling thread in (lambda, M) order with
deterministic per-row seeds (seed + row index, which also seed --verify's
samples), so identical configs produce byte-identical files.  A failed row
does not abort the sweep: it is recorded with converged=false and the
exception text in its `error` field, and its traceback is logged at DEBUG
level.

CSV schema (fixed order, floats at 12 significant digits, infinities as
"inf", absent fields empty):

    lambda,M,d_e,fidelity,d_d,d_theta,d_kl_max,alpha,iterations,converged,restart_winner,seed

--verify appends Monte Carlo cross-check columns with standard errors.
JSON output carries the same keys per row object plus `error` (null unless
the row failed).  Without --out the rows go to stdout, in --format.

Every subcommand's flags are SweepConfig fields (see _FLAGS).  A config is
checked in one place, validate_config, which run_sweep runs on every config
and `linear` and `design` on the one their flags build, so a value is rejected
the same way whichever subcommand or config file gives it.  n_restarts changes
no number: it fills the restart_winner column of M >= 2 rows.

Exit codes: 0 success, 1 config error (including a malformed flag or an
unknown subcommand), 2 I/O error, 3 at least one sweep row failed (every row
is still written, and each failed row gets one line on stderr) or the one
equilibrium of `linear` or `design` raised (one such line, and no output).
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import numbers
import operator
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import linear_equilibrium as linear
from .gaussian_model import MAX_THETA_NODES, SourceSpec, ThetaGrid, make_source, make_theta_grid
from .metrics import max_kl
from .optimizer import design_result_to_dict, multistart
from .oracle import monte_carlo_distortions
from .quantizer_core import _check_lam, _float_from_json, _json_float

logger = logging.getLogger(__name__)

MODES = ("linear", "quantizer", "sweep")
LINEAR_M_SENTINEL = 0
# the lambda that "inf" in a lambda list stands for
_LAMBDA_INF = 1e7
# the values a SweepConfig string field may take, for its flag and its check
_CHOICES = {"mode": MODES, "format": ("csv", "json")}


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
    n_restarts: int = 8
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    verify: bool = False
    mc_samples: int = 1_000_000


@dataclass
class SweepRow:
    """One (lambda, M) outcome; None marks a field absent for that mode.

    The field order is the column order: the CSV columns, then the --verify
    columns (mc_*), then error.
    """

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
MC_COLUMNS = tuple(c for c in _COLUMN_OF.values() if c.startswith("mc_"))
CSV_COLUMNS = tuple(c for c in _COLUMN_OF.values() if c not in MC_COLUMNS and c != "error")


# the %-spec of a present CSV cell by field type: 12 significant digits for
# floats, and bools through %s once mapped to the words true/false
_CSV_SPEC = {"float": "%.12g", "int": "%d", "bool": "%s"}
# JSON cell formatters by field type: native values, and None as null
_JSON_CELL = {
    "float": _json_float,
    "int": lambda v: None if v is None else int(v),
    "bool": lambda v: v,
    "str": lambda v: v,
}
# the field type of each output column, and its JSON formatter
_KIND_OF = {_COLUMN_OF[f.name]: f.type.split(" | ")[0] for f in fields(SweepRow)}
_JSON_FORMAT = {column: _JSON_CELL[kind] for column, kind in _KIND_OF.items()}


def _lambda_number(value) -> float:
    """float of a number or numeric string (the command line passes strings); no bool."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def resolve_lambdas(spec) -> list[float]:
    """Explicit list (with "inf" standing for 1e7) or log-range dict."""
    if isinstance(spec, dict):
        extra = set(spec) - {"start", "stop", "points"}
        if extra:
            raise ConfigError(f"lambdas range spec has unknown keys {sorted(extra)}")
        try:
            start, stop, points = (_lambda_number(spec[k]) for k in ("start", "stop", "points"))
        except KeyError as exc:
            raise ConfigError(f"lambdas range spec missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"lambdas range spec: {exc}") from exc
        if not points.is_integer():
            raise ConfigError(f"lambdas range spec points must be integral, got {spec['points']!r}")
        if not (0 < start < math.inf and 0 < stop < math.inf) or points < 1:
            raise ConfigError("lambdas range spec needs positive finite start/stop and points >= 1")
        return [float(v) for v in np.logspace(math.log10(start), math.log10(stop), int(points))]
    try:
        values = [_lambda_number(v) for v in spec]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"lambdas must be numbers: {exc}") from exc
    values = [_LAMBDA_INF if v == math.inf else v for v in values]
    if not values:
        raise ConfigError("lambdas must be nonempty")
    try:
        for v in values:
            _check_lam(v)
    except ValueError as exc:
        raise ConfigError(f"lambdas: {exc}") from exc
    return values


def config_from_dict(data: dict) -> SweepConfig:
    """Build a SweepConfig from parsed JSON, naming any unknown field; run_sweep checks it."""
    known = {f.name for f in fields(SweepConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return SweepConfig(**data)


# what a SweepConfig field of each annotated type accepts; bool is no number here
_ACCEPTS = {
    "str": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list),
    "dict": lambda v: isinstance(v, dict),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "None": lambda v: v is None,
}


def _check_field_types(cfg: SweepConfig) -> None:
    """ConfigError naming the first field whose value its annotation does not allow."""
    for f in fields(SweepConfig):
        value = getattr(cfg, f.name)
        kinds = f.type.split(" | ")
        if not any(_ACCEPTS[kind](value) for kind in kinds):
            raise ConfigError(f"{f.name} must be {' or '.join(kinds)}, got {value!r}")


def validate_config(cfg: SweepConfig) -> tuple[SourceSpec, list[float]]:
    """ConfigError unless run_sweep can run cfg; returns cfg's source and resolved lambdas."""
    _check_field_types(cfg)
    for name, allowed in _CHOICES.items():
        if getattr(cfg, name) not in allowed:
            raise ConfigError(f"{name} must be one of {allowed}, got {getattr(cfg, name)!r}")
    if not 1 <= cfg.theta_nodes <= MAX_THETA_NODES:
        raise ConfigError(f"theta_nodes must lie in [1, {MAX_THETA_NODES}], got {cfg.theta_nodes}")
    if not cfg.m_values:
        raise ConfigError("m_values must be nonempty")
    for m in cfg.m_values:
        if not (_ACCEPTS["float"](m) and float(m).is_integer() and m >= 0):
            raise ConfigError(f"m_values entries must be nonnegative integers, got {m!r}")
    if cfg.mode == "quantizer" and any(m == LINEAR_M_SENTINEL for m in cfg.m_values):
        raise ConfigError("quantizer mode requires m_values >= 1 (0 is the linear sentinel)")
    if cfg.mc_samples < 1:
        raise ConfigError("mc_samples must be >= 1")
    if cfg.n_restarts < 1:
        raise ConfigError(f"n_restarts must be >= 1, got {cfg.n_restarts}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    try:
        source = make_source(cfg.sigma_x, cfg.r, cfg.rho)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    # quantizer rows need a spread of X given theta; a mixed sweep fails them row by row
    if cfg.mode == "quantizer" and source.conditional_params(0.0)[1] == 0.0:
        raise ConfigError(f"quantizer mode requires |rho| < 1, got {cfg.rho}")
    return source, resolve_lambdas(cfg.lambdas)


def _quantizer_row(
    source: SourceSpec,
    grid: ThetaGrid,
    cfg: SweepConfig,
    lam: float,
    m: int,
    seed: int,
) -> SweepRow:
    result = multistart(source, grid, m, lam)
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
        # the label the closed-form start had beside n_restarts random ones
        restart_winner=cfg.n_restarts if m >= 2 else 0,
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
    source, lambdas = validate_config(cfg)
    lambdas = sorted(lambdas)
    requested = [LINEAR_M_SENTINEL] if cfg.mode == "linear" else cfg.m_values
    m_values = sorted({int(m) for m in requested})
    needs_grid = any(m >= 1 for m in m_values)
    grid = make_theta_grid(source, cfg.theta_nodes) if needs_grid else None

    if LINEAR_M_SENTINEL in m_values:
        # the whole linear stage in one pass: alpha*, its certificate, distortions
        stage = linear._linear_stage(source, np.array(lambdas))
        certified = stage.certified.tolist()
        t = stage.terms
        linear_values = list(zip(*(a.tolist() for a in (
            t.d_e, t.fidelity, t.d_d, t.d_theta, stage.alpha))))

    rows = []
    for index, (lam, m) in enumerate(itertools.product(lambdas, m_values)):
        seed = cfg.seed + index
        try:
            if m != LINEAR_M_SENTINEL:
                row = _quantizer_row(source, grid, cfg, lam, m, seed)
            else:
                i = index // len(m_values)
                if not certified[i]:
                    raise stage.error(i)
                d_e, fidelity, d_d, d_theta, alpha = linear_values[i]
                # positional, in SweepRow's field order: about half the keyword call's cost
                row = SweepRow(lam, LINEAR_M_SENTINEL, d_e, fidelity, d_d, d_theta, None, alpha,
                               None, None, None, seed)
        except Exception as exc:
            logger.debug("sweep row (lambda=%g, M=%d) failed", lam, m, exc_info=True)
            row = SweepRow(lam=lam, M=m, converged=False, seed=seed, error=_error_text(exc))
        rows.append(row)
    return rows


def _error_text(exc: Exception) -> str:
    """A failed row's error field, and the text after "failed: " on its stderr line."""
    return f"{type(exc).__name__}: {exc}"


def _row_columns(rows: list[SweepRow]) -> tuple[str, ...]:
    verified = any(r.mc_fidelity is not None for r in rows)
    return CSV_COLUMNS + MC_COLUMNS if verified else CSV_COLUMNS


def _csv_lines(rows: list[SweepRow]):
    """The CSV text in pieces: the header line, then one piece per run of rows.

    A run is a maximal run of consecutive rows with the same absent (None)
    cells, formatted by one % call: its line (an empty cell where absent, a
    _CSV_SPEC spec by field type elsewhere) repeated once per row, applied
    to the run's present values with bools mapped to words.
    """
    columns = _row_columns(rows)
    kinds = [_KIND_OF[c] for c in columns]
    values = operator.attrgetter(*(_ATTR_OF[c] for c in columns))
    nones = (None,) * len(columns)
    yield ",".join(columns) + "\n"
    runs = itertools.groupby(map(values, rows),
                             key=lambda cells: tuple(map(operator.is_not, cells, nones)))
    for present, run in runs:
        run = list(run)
        width = sum(present)
        flat = itertools.chain.from_iterable(run)
        cells = list(itertools.compress(flat, itertools.cycle(present)))
        for k, kind in enumerate(itertools.compress(kinds, present)):
            if kind == "bool":
                cells[k::width] = ["true" if v else "false" for v in cells[k::width]]
        line = ",".join([_CSV_SPEC[kind] if kept else "" for kept, kind in zip(present, kinds)])
        yield ((line + "\n") * len(run)) % tuple(cells)


def _write(text: str, path: str | None, what: str) -> None:
    """text to path, or to stdout when path is None; I/O errors name the path."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} output to {path!r}: {exc}") from exc


def emit(rows: list[SweepRow], fmt: str, path: str | None = None) -> None:
    """Write rows as CSV or JSON to path, or to stdout when path is None."""
    if fmt not in _CHOICES["format"]:
        raise ConfigError(f"format must be one of {_CHOICES['format']}, got {fmt!r}")
    if fmt == "csv":
        text = "".join(_csv_lines(rows))
    else:
        columns = _row_columns(rows) + ("error",)
        payload = [{c: _JSON_FORMAT[c](getattr(row, _ATTR_OF[c])) for c in columns} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    _write(text, path, "sweep")


def load_rows(path: str) -> list[SweepRow]:
    """Reload rows emitted as JSON (inverse of emit's json mode)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)

    rows = []
    for item in payload:
        values = {}
        for f in fields(SweepRow):
            column = _COLUMN_OF[f.name]
            value = item[column] if f.default is MISSING else item.get(column)
            values[f.name] = _float_from_json(value) if _KIND_OF[column] == "float" else value
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
        return {"start": parts[1], "stop": parts[2], "points": parts[3]}
    return [v.strip() for v in text.split(",") if v.strip()]


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on a malformed command line (argparse exits 2); subparsers inherit it."""

    def error(self, message):
        raise ConfigError(message)


# the SweepConfig fields each subcommand takes as flags of the same name, with
# "-" for "_"; --lambdas, --m and --verify are written out in _build_parser
_FLAGS = {
    "sweep": ("mode", "seed", "out", "format", "sigma_x", "r", "rho", "theta_nodes",
              "n_restarts", "mc_samples"),
    "linear": ("rho", "r", "sigma_x"),
    "design": ("sigma_x", "r", "rho", "theta_nodes"),
}
_PARSE = {"float": float, "int": int, "str": str}


def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """One flag per field of _FLAGS[command], typed by the field's annotation.

    Every flag defaults to argparse's None, which _flag_fields drops: a value
    that no flag gives comes from the --config file or SweepConfig's default.
    """
    config_fields = {f.name: f for f in fields(SweepConfig)}
    for name in _FLAGS[command]:
        f = config_fields[name]
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=_PARSE[f.type.split(" | ")[0]],
            choices=_CHOICES.get(name),
            help="output path (default: stdout)" if name == "out" else None,
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="strategiq",
        description="Privacy-constrained strategic quantization sweeps and designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a (lambda, M) sweep and write CSV/JSON")
    sweep.add_argument("--config", help="JSON config file; flags override its fields")
    sweep.add_argument("--lambdas", help='comma list "0,0.5,1" (inf allowed) or log:START:STOP:POINTS')
    sweep.add_argument("--m", help="comma list of M values; 0 = linear (no rate constraint)")
    sweep.add_argument("--verify", action="store_true", default=None,
                       help="append Monte Carlo cross-check columns")
    _add_config_flags(sweep, "sweep")

    lin = sub.add_parser("linear", help="closed-form rate-unconstrained equilibrium")
    lin.add_argument("--lambda", dest="lam", type=float, required=True)
    _add_config_flags(lin, "linear")

    des = sub.add_parser("design", help="design one strategic quantizer and write JSON")
    des.add_argument("--m", type=int, required=True)
    des.add_argument("--lambda", dest="lam", type=float, required=True)
    des.add_argument("--out", required=True)
    _add_config_flags(des, "design")
    return parser


def _flag_fields(args: argparse.Namespace) -> dict:
    """The SweepConfig fields that the subcommand's flags set (None: not given)."""
    values = {name: getattr(args, name) for name in _FLAGS[args.command]}
    return {name: value for name, value in values.items() if value is not None}


def _sweep_config_from_args(args: argparse.Namespace) -> SweepConfig:
    data = _load_config_file(args.config) if args.config else {}
    data.update(_flag_fields(args))
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
    emit(rows, cfg.format, cfg.out or None)
    if cfg.out:
        print(f"wrote {len(rows)} rows to {cfg.out}")
    failed = [row for row in rows if row.error is not None]
    for row in failed:
        print(f"sweep row lambda={row.lam:g} M={row.M} failed: {row.error}", file=sys.stderr)
    return 3 if failed else 0


def _failed(what: str, exc: Exception) -> int:
    """One stderr line for a linear or design run that raised, as for a sweep row; exit code 3."""
    logger.debug("%s failed", what, exc_info=exc)
    print(f"{what} failed: {_error_text(exc)}", file=sys.stderr)
    return 3


def _cmd_linear(args: argparse.Namespace) -> int:
    cfg = SweepConfig(**_flag_fields(args), mode="linear", lambdas=[args.lam])
    source, (lam,) = validate_config(cfg)
    try:
        eq = linear.solve_equilibrium(source, lam)
    except Exception as exc:
        return _failed(f"linear lambda={lam:g}", exc)
    print(json.dumps({"lambda": lam, "alpha": eq.alpha, "kappa": eq.kappa, "nu": eq.nu,
                      **asdict(eq.report)}, indent=2))
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    cfg = SweepConfig(**_flag_fields(args), mode="quantizer", m_values=[args.m],
                      lambdas=[args.lam], out=args.out)
    source, (lam,) = validate_config(cfg)
    grid = make_theta_grid(source, cfg.theta_nodes)
    try:
        result = multistart(source, grid, args.m, lam)
    except Exception as exc:
        return _failed(f"design lambda={lam:g} M={args.m}", exc)
    _write(json.dumps(design_result_to_dict(result, grid), indent=2) + "\n", cfg.out, "design")
    print(
        f"designed M={args.m} quantizer at lambda={lam:g}: "
        f"d_e={result.report.d_e:.6g} d_d={result.report.d_d:.6g} "
        f"d_theta={result.report.d_theta:.6g} -> {cfg.out}"
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

"""Sweep orchestration, emission formats, and the command-line surface."""

import contextlib
import io
import json
import math
import operator
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategiq.cli as cli_module
import strategiq.linear_equilibrium as linear_module
import strategiq.optimizer as optimizer_module
from strategiq import make_source, optimal_alpha, solve_equilibrium
from strategiq.cli import (
    _ATTR_OF,
    _COLUMN_OF,
    _KIND_OF,
    CSV_COLUMNS,
    ConfigError,
    SweepConfig,
    SweepRow,
    _build_parser,
    _flag_fields,
    _row_columns,
    config_from_dict,
    emit,
    load_rows,
    main,
    resolve_lambdas,
    run_sweep,
    validate_config,
)

EXPECTED_HEADER = "lambda,M,d_e,fidelity,d_d,d_theta,d_kl_max,alpha,iterations,converged,restart_winner,seed"

FAST_QUANTIZER = dict(
    mode="quantizer",
    m_values=[2],
    theta_nodes=3,
    n_restarts=2,
)

# the per-cell CSV formatter emit used before it formatted runs of rows, one
# call per cell; it is the referee for emit's CSV bytes
_CSV_CELL = {
    "float": lambda v: "" if v is None else f"{v:.12g}",
    "int": lambda v: "" if v is None else str(int(v)),
    "bool": lambda v: "" if v is None else ("true" if v else "false"),
    "str": lambda v: "" if v is None else v,
}
_CSV_FORMAT = {column: _CSV_CELL[kind] for column, kind in _KIND_OF.items()}


def _reference_lines(rows):
    """Header and one line per row, without line terminators."""
    columns = _row_columns(rows)
    values = operator.attrgetter(*(_ATTR_OF[c] for c in columns))
    formats = [_CSV_FORMAT[c] for c in columns]
    yield ",".join(columns)
    for row in rows:
        yield ",".join([fmt(v) for fmt, v in zip(formats, values(row))])


def _reference_csv(rows):
    return "".join([line + "\n" for line in _reference_lines(rows)])


def _emitted_csv(rows):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        emit(rows, "csv")
    return out.getvalue()


def _break_certificate_at(monkeypatch, source, lam):
    """Negate the linear kernel's square root at lam's discriminant: the other root, q' < 0."""
    sqrt = np.sqrt
    seen = []
    monkeypatch.setattr(linear_module.np, "sqrt", lambda x: seen.append(x) or sqrt(x))
    optimal_alpha(source, lam)
    target = seen[-1]
    monkeypatch.setattr(linear_module.np, "sqrt",
                        lambda x: np.where(x == target, -sqrt(x), sqrt(x)))


# a value of each CSV field type, as a sweep or a caller may hand it to emit
_CELL_VALUES = {
    "float": st.floats() | st.floats().map(np.float64) | st.integers(-10**6, 10**6),
    "int": st.integers(-10**9, 10**9) | st.integers(-10**9, 10**9).map(np.int64),
    "bool": st.booleans() | st.booleans().map(np.bool_),
    "str": st.text(max_size=5),
}


class TestConfig:
    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"bogus": 1})

    def test_mode_checked(self):
        # config_from_dict only builds the config; validate_config checks it
        cfg = config_from_dict({"mode": "banana"})
        with pytest.raises(ConfigError, match="mode"):
            validate_config(cfg)

    def test_quantizer_mode_rejects_linear_sentinel(self):
        with pytest.raises(ConfigError):
            validate_config(config_from_dict({"mode": "quantizer", "m_values": [0, 2]}))

    def test_subcommand_defaults_are_sweep_config_defaults(self):
        # a flag that is not given sets no field, so SweepConfig's default stands
        parser = _build_parser()
        for argv in (["design", "--m", "2", "--lambda", "1", "--out", "x"],
                     ["linear", "--lambda", "1"], ["sweep"]):
            assert _flag_fields(parser.parse_args(argv)) == {}, argv[0]

    def test_lambda_log_range(self):
        lams = resolve_lambdas({"start": 0.01, "stop": 100.0, "points": 5})
        assert len(lams) == 5
        assert lams[0] == pytest.approx(0.01)
        assert lams[-1] == pytest.approx(100.0)
        # integral numbers and the command line's numeric strings give the same range
        assert resolve_lambdas({"start": "0.01", "stop": "1e2", "points": "5"}) == lams
        assert resolve_lambdas({"start": 0.01, "stop": 100, "points": 5.0}) == lams

    def test_lambda_inf_capped(self):
        assert resolve_lambdas([0.0, "inf"]) == [0.0, 1e7]

    def test_lambda_rejects_negative_and_empty(self):
        with pytest.raises(ConfigError):
            resolve_lambdas([-1.0])
        with pytest.raises(ConfigError):
            resolve_lambdas([])

    @pytest.mark.parametrize("lambdas", [
        ["abc"],
        [-1],
        [],
        {"start": 0, "stop": 1, "points": 3},
        {"start": 1, "stop": 10, "points": 2.9},
        {"start": 1, "stop": 10, "points": True},
        {"start": True, "stop": 10, "points": 2},
        {"start": 1, "stop": False, "points": 2},
        [True, 2],
    ], ids=repr)
    def test_config_rejects_bad_lambdas(self, lambdas):
        # a config that validates is one run_sweep runs
        with pytest.raises(ConfigError, match="lambdas"):
            validate_config(config_from_dict({"mode": "linear", "lambdas": lambdas}))


class TestRunSweep:
    def test_linear_sweep_decoder_distortion_decreasing(self):
        cfg = SweepConfig(
            mode="linear",
            lambdas={"start": 1e-2, "stop": 1e7, "points": 20},
        )
        rows = run_sweep(cfg)
        assert len(rows) == 20
        d_d = [row.d_d for row in rows]
        assert all(b < a for a, b in zip(d_d, d_d[1:]))
        assert all(row.alpha is not None and row.iterations is None for row in rows)

    def test_quantizer_sweep_row_fields(self):
        cfg = SweepConfig(lambdas=[0.5], **FAST_QUANTIZER)
        row = run_sweep(cfg)[0]
        assert row.M == 2
        assert row.alpha is None
        assert row.iterations is not None
        assert row.restart_winner is not None
        assert row.d_kl_max is not None and row.d_kl_max >= 0.0

    def test_mixed_mode_orders_rows(self):
        cfg = SweepConfig(
            mode="sweep",
            lambdas=[1.0, 0.0],
            m_values=[2, 0],
            theta_nodes=3,
            n_restarts=1,
        )
        rows = run_sweep(cfg)
        assert [(row.lam, row.M) for row in rows] == [(0.0, 0), (0.0, 2), (1.0, 0), (1.0, 2)]

    def test_verify_appends_monte_carlo(self):
        cfg = SweepConfig(lambdas=[0.5], verify=True, mc_samples=50_000, **FAST_QUANTIZER)
        row = run_sweep(cfg)[0]
        assert row.mc_fidelity is not None
        assert abs(row.mc_d_d - row.d_d) < 5.0 * row.mc_d_d_se

    def test_deterministic_rows(self):
        cfg = SweepConfig(lambdas=[0.0, 1.0], **FAST_QUANTIZER)
        assert run_sweep(cfg) == run_sweep(cfg)

    def test_row_failure_is_isolated(self, monkeypatch, tmp_path, capsys):
        # one exploding row must not abort the sweep, but it must show
        import strategiq.cli as cli_mod

        real = cli_mod.multistart

        def flaky(source, grid, m, lam):
            if lam == 1.0:
                raise RuntimeError("forced failure")
            return real(source, grid, m, lam)

        monkeypatch.setattr(cli_mod, "multistart", flaky)
        cfg = SweepConfig(lambdas=[0.0, 1.0], **FAST_QUANTIZER)
        rows = run_sweep(cfg)
        assert rows[0].converged is not False and rows[0].d_e is not None
        assert rows[0].error is None
        assert rows[1].converged is False and rows[1].d_e is None
        assert rows[1].error == "RuntimeError: forced failure"

        args = [
            "sweep", "--mode", "quantizer", "--lambdas", "0,1", "--m", "2",
            "--theta-nodes", "3", "--n-restarts", "2",
        ]
        out_json, out_csv = tmp_path / "rows.json", tmp_path / "rows.csv"
        assert main(args + ["--out", str(out_json), "--format", "json"]) == 3
        payload = json.loads(out_json.read_text())
        assert [item["error"] for item in payload] == [None, "RuntimeError: forced failure"]
        err = capsys.readouterr().err.splitlines()
        assert err == ["sweep row lambda=1 M=2 failed: RuntimeError: forced failure"]

        # the CSV keeps its columns: the failed row is written, its error is not
        assert main(args + ["--out", str(out_csv), "--format", "csv"]) == 3
        lines = out_csv.read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert lines[2] == "1,2,,,,,,,,false,,1"

    def test_certificate_failure_fails_only_its_row(self, monkeypatch, capsys):
        # a sign slip in the kernel's square root at one lambda's discriminant
        # returns the other root there, where q' < 0
        lambdas = [0.5, 1.0, 2.0, 4.0]
        cfg = SweepConfig(mode="linear", lambdas=lambdas, rho=0.3)
        clean = run_sweep(cfg)
        sqrt = np.sqrt
        seen = []
        monkeypatch.setattr(linear_module.np, "sqrt", lambda x: seen.append(x) or sqrt(x))
        optimal_alpha(make_source(1.0, 1.0, 0.3), 2.0)
        target = seen[-1]
        monkeypatch.setattr(linear_module.np, "sqrt",
                            lambda x: np.where(x == target, -sqrt(x), sqrt(x)))
        with pytest.raises(ArithmeticError) as scalar:
            optimal_alpha(make_source(1.0, 1.0, 0.3), 2.0)

        rows = run_sweep(cfg)
        assert rows[2].error == f"ArithmeticError: {scalar.value}"
        assert "is not where J' turns" in rows[2].error
        assert (rows[2].d_e, rows[2].alpha, rows[2].converged) == (None, None, False)
        assert rows[:2] + rows[3:] == clean[:2] + clean[3:]
        assert main(["sweep", "--mode", "linear", "--lambdas", "0.5,1,2,4", "--rho", "0.3"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"sweep row lambda=2 M=0 failed: ArithmeticError: {scalar.value}"]


class TestEmit:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], "csv", str(path))
        assert path.read_text() == EXPECTED_HEADER + "\n"
        assert EXPECTED_HEADER == ",".join(CSV_COLUMNS)

    def test_single_linear_row_schema(self, tmp_path):
        cfg = SweepConfig(mode="linear", lambdas=[1.0])
        rows = run_sweep(cfg)
        path = tmp_path / "one.csv"
        emit(rows, "csv", str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        cells = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert cells["alpha"] != ""
        assert cells["iterations"] == ""
        assert cells["restart_winner"] == ""
        assert cells["lambda"] == "1"
        assert cells["M"] == "0"

    def test_float_formatting_and_inf(self, tmp_path):
        rows = [SweepRow(lam=1 / 3, M=2, d_e=-0.123456789012345, d_kl_max=math.inf, seed=7)]
        path = tmp_path / "fmt.csv"
        emit(rows, "csv", str(path))
        line = path.read_text().splitlines()[1]
        cells = dict(zip(CSV_COLUMNS, line.split(",")))
        assert cells["lambda"] == "0.333333333333"  # 12 significant digits
        assert cells["d_kl_max"] == "inf"
        assert cells["d_e"] == "-0.123456789012"

    def test_json_round_trip_identical(self, tmp_path):
        cfg = SweepConfig(lambdas=[0.5], **FAST_QUANTIZER)
        rows = run_sweep(cfg)
        rows.append(SweepRow(lam=0.5, M=3, d_kl_max=math.inf))
        path = tmp_path / "rows.json"
        emit(rows, "json", str(path))
        assert load_rows(str(path)) == rows

    def test_load_rows_rejects_an_unknown_float_string(self, tmp_path):
        path = tmp_path / "rows.json"
        emit([SweepRow(lam=0.5, M=3, d_kl_max=math.inf)], "json", str(path))
        payload = json.loads(path.read_text())
        assert payload[0]["d_kl_max"] == "inf"
        payload[0]["d_kl_max"] = "nan"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="'nan'"):
            load_rows(str(path))

    def test_json_round_trip_every_row_kind(self, tmp_path):
        linear = run_sweep(SweepConfig(mode="linear", lambdas=[0.0, 2.0, "inf"]))
        quantizer = run_sweep(SweepConfig(lambdas=[0.5], **FAST_QUANTIZER))
        verified = run_sweep(
            SweepConfig(lambdas=[1.0], verify=True, mc_samples=20_000, **FAST_QUANTIZER)
        )
        failed = [SweepRow(lam=2.0, M=2, converged=False, seed=4, error="ValueError: boom")]
        for rows in (linear, quantizer, verified, linear + quantizer + verified + failed):
            path = tmp_path / "rows.json"
            emit(rows, "json", str(path))
            assert load_rows(str(path)) == rows
        assert verified[0].mc_d_theta_se is not None

    def test_csv_is_the_per_cell_referee(self, monkeypatch):
        linear = run_sweep(SweepConfig(mode="linear",
                                       lambdas={"start": 1e-2, "stop": 1e7, "points": 1000}))
        # linear and quantizer rows alternate, so every run has length 1
        mixed = run_sweep(SweepConfig(mode="sweep", lambdas=[0.5, 2.0], m_values=[0, 2],
                                      theta_nodes=5, n_restarts=1))
        quantizer = [row for row in mixed if row.M == 2]
        quantizer += [replace(quantizer[0], converged=not quantizer[0].converged),
                      replace(quantizer[0], restart_winner=0, d_kl_max=math.inf),
                      replace(quantizer[1], restart_winner=None, d_kl_max=-math.inf)]
        verified = run_sweep(SweepConfig(mode="sweep", lambdas=[1.0], m_values=[0, 2],
                                         verify=True, mc_samples=20_000, theta_nodes=3,
                                         n_restarts=1))
        hand_built = [
            SweepRow(lam=2, M=0, d_e=-0.0, fidelity=math.nan, d_d=5e-324, d_theta=1e300,
                     alpha=-1e-300, seed=0),
            SweepRow(lam=np.float64(0.1), M=np.int64(3), d_e=np.float64(-1 / 3),
                     d_kl_max=np.float64(math.inf), iterations=np.int64(12),
                     converged=np.bool_(True), restart_winner=np.int64(0), seed=np.int64(9)),
            SweepRow(lam=1e-300, M=1, converged=np.bool_(False), seed=-1),
        ]
        cases = {"linear": linear, "mixed": mixed, "quantizer": quantizer,
                 "verified": verified, "hand-built": hand_built,
                 "everything": linear[:3] + quantizer + verified + hand_built + linear[3:],
                 "empty": []}

        source = make_source(1.0, 1.0, 0.3)
        _break_certificate_at(monkeypatch, source, 2.0)
        # the failed middle row splits the linear run in two
        cases["failed"] = run_sweep(SweepConfig(mode="linear", lambdas=[0.5, 1.0, 2.0, 4.0],
                                                rho=0.3))
        assert [row.error is None for row in cases["failed"]] == [True, True, False, True]

        for name, rows in cases.items():
            assert _emitted_csv(rows).encode() == _reference_csv(rows).encode(), name

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data(), patterns=st.lists(
        st.lists(st.booleans(), min_size=len(fields(SweepRow)), max_size=len(fields(SweepRow))),
        min_size=1, max_size=3))
    def test_csv_is_the_referee_on_random_none_patterns(self, data, patterns):
        # few patterns over many rows, so runs of equal absent cells form and break
        picks = data.draw(st.lists(st.integers(0, len(patterns) - 1), max_size=12))
        rows = []
        for pick in picks:
            values = {f.name: data.draw(_CELL_VALUES[_KIND_OF[_COLUMN_OF[f.name]]])
                      for f, absent in zip(fields(SweepRow), patterns[pick]) if not absent}
            rows.append(SweepRow(**{"lam": None, "M": None, **values}))
        assert _emitted_csv(rows).encode() == _reference_csv(rows).encode()

    def test_unknown_format_is_config_error(self):
        with pytest.raises(ConfigError, match="format"):
            emit([], "xml")

    def test_io_error_carries_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit([], "csv", str(tmp_path / "no" / "such" / "file.csv"))


class TestCommandLine:
    def test_linear_subcommand(self, capsys):
        assert main(["linear", "--lambda", "0", "--rho", "0", "--r", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == pytest.approx(0.618034, abs=1e-6)
        assert payload["kappa"] == pytest.approx(0.723607, abs=1e-6)

    def test_linear_subcommand_is_one_stage_pass(self, monkeypatch, capsys):
        # one certified stage pass: _terms at alpha* and at the rival root, and
        # the printed fields are solve_equilibrium's
        calls = []
        for name in ("_linear_stage", "_terms"):
            kernel = getattr(linear_module, name)
            monkeypatch.setattr(linear_module, name, lambda *args, _kernel=kernel, _name=name:
                                calls.append(_name) or _kernel(*args))
        assert main(["linear", "--lambda", "2.0", "--rho", "0.3", "--r", "2.0"]) == 0
        assert sorted(calls) == ["_linear_stage", "_terms", "_terms"]
        eq = solve_equilibrium(make_source(1.0, 2.0, 0.3), 2.0)
        assert json.loads(capsys.readouterr().out) == {
            "lambda": 2.0, "alpha": eq.alpha, "kappa": eq.kappa, "nu": eq.nu,
            **asdict(eq.report),
        }

    def test_sweep_without_out_prints_csv(self, capsys):
        assert main(["sweep", "--mode", "linear", "--lambdas", "0,1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 3

    def test_sweep_without_out_prints_format(self, tmp_path, capsys):
        # stdout carries what emit writes to a file, in --format
        args = ["sweep", "--mode", "linear", "--lambdas", "0,1", "--format", "json"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        payload = json.loads(printed)
        assert isinstance(payload, list) and len(payload) == 2
        out = tmp_path / "rows.json"
        assert main(args + ["--out", str(out)]) == 0
        written = json.loads(out.read_text())
        assert [sorted(item) for item in payload] == [sorted(item) for item in written]
        assert printed == out.read_text()

    def test_sweep_subcommand_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--mode", "quantizer", "--lambdas", "0.5", "--m", "2",
            "--theta-nodes", "3", "--n-restarts", "1",
            "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 2

    def test_sweep_config_file_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "mode": "linear",
            "lambdas": [0.0, 2.0],
        }))
        out = tmp_path / "rows.json"
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out), "--format", "json"])
        assert code == 0
        rows = load_rows(str(out))
        assert [row.lam for row in rows] == [0.0, 2.0]

    def test_bad_json_config_is_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_unknown_config_field_is_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"mystery": True}))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert "mystery" in capsys.readouterr().err

    def test_removed_workers_field_is_exit_1(self, tmp_path, capsys):
        # removed knobs are unknown fields: rows always run serially, the
        # stopping bound is the optimizer's constant, "inf" always means 1e7
        # and theta is always on the Gauss-Hermite grid
        cfg_path = tmp_path / "cfg.json"
        for field, value in (("workers", 2), ("eps", 1e-9), ("lambda_max", 1e7),
                             ("theta_scheme", "gauss-hermite")):
            cfg_path.write_text(json.dumps({"mode": "linear", field: value}))
            assert main(["sweep", "--config", str(cfg_path)]) == 1
            assert field in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        [{"mode": "linear"}],
        {"mode": "linear", "lambdas": {"start": 1, "stop": 10, "points": 2, "base": 2}},
        {"mode": "linear", "lambdas": {"start": 1, "stop": 10}},
        {"mode": "sweep", "m_values": []},
        {"mode": "linear", "format": "xml"},
    ], ids=json.dumps)
    def test_bad_config_file_is_config_error(self, config, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n-restarts", "0"],
        ["sweep", "--theta-nodes", "0"],
        # numpy's Gauss-Hermite weights overflow from 371 nodes on
        ["sweep", "--theta-nodes", "400"],
        ["design", "--lambda", "1", "--theta-nodes", "371"],
        ["sweep", "--m", "-1"],
        ["sweep", "--m", "2,x"],
        ["sweep", "--mc-samples", "0"],
        ["sweep", "--lambdas", "nan"],
        ["sweep", "--lambdas=-inf"],
        ["sweep", "--lambdas", "abc"],
        ["sweep", "--lambdas", "log:a:1:2"],
        ["sweep", "--lambdas", "log:1:2"],
        ["sweep", "--config", "no-such-dir/cfg.json"],
        ["sweep", "--sigma-x", "-1"],
        ["sweep", "--rho", "nan"],
        # numpy's generators take no negative seed
        ["sweep", "--seed", "-1"],
        # quantizer rows need a spread of X given theta
        ["sweep", "--rho", "-1"],
        ["design", "--lambda", "nan"],
        ["design", "--lambda", "1", "--rho", "2"],
        ["design", "--lambda", "1", "--rho", "1"],
        ["design", "--lambda", "1", "--m", "0"],
        ["linear", "--lambda", "nan"],
        ["linear", "--lambda", "-1"],
        ["linear", "--lambda", "1", "--sigma-x", "-1"],
        # malformed command lines: argparse's own exit 2 is the I/O error's code
        ["sweep", "--seed", "abc"],
        ["sweep", "--mode", "banana"],
        ["design", "--lambda", "1", "--m", "x"],
        ["linear"],
        ["sweep", "--bogus", "1"],
        # the stopping bound is a constant, so --eps is an unknown flag
        ["sweep", "--eps", "-1"],
        ["sweep", "--eps", "inf"],
        ["design", "--lambda", "1", "--eps", "-1"],
        # Gauss-Hermite is the only theta grid, so --theta-scheme is an unknown flag
        ["sweep", "--theta-scheme", "gauss-hermite"],
        ["frobnicate"],
    ], ids=" ".join)
    def test_bad_input_is_config_error(self, argv, tmp_path, capsys):
        # one "config error:" line and exit 1: no traceback, no failed rows
        # a fast quantizer run, unless the case's own flags (given last) override it
        fast = ["--m", "2", "--theta-nodes", "3"]
        if argv[0] == "sweep":
            argv = [argv[0], "--mode", "quantizer", *fast, "--n-restarts", "1", *argv[1:]]
        elif argv[0] == "design":
            argv = [argv[0], "--out", str(tmp_path / "q.json"), *fast, *argv[1:]]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")

    @pytest.mark.parametrize("argv, config, named", [
        (["sweep", "--max-iters", "5"], None, "--max-iters"),
        (["design", "--m", "2", "--lambda", "1", "--seed", "1"], None, "--seed"),
        (["design", "--m", "2", "--lambda", "1", "--n-restarts", "2"], None, "--n-restarts"),
        (["sweep"], {"mode": "linear", "max_iters": 20000}, "max_iters"),
    ], ids=["sweep --max-iters", "design --seed", "design --n-restarts", "config max_iters"])
    def test_removed_descent_options_are_config_errors(self, argv, config, named, tmp_path,
                                                       capsys):
        # no option changes the one descent from the closed-form start, so
        # the cap, design's seed and design's restart count are gone
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        if argv[0] == "design":
            argv = [*argv, "--out", str(tmp_path / "q.json")]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "q.json").exists()
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")
        assert named in err

    def test_a_sweep_checks_its_config_once(self, monkeypatch, tmp_path):
        # run_sweep is the one check: building the config from flags checks nothing
        calls = []
        validate = cli_module.validate_config
        monkeypatch.setattr(cli_module, "validate_config",
                            lambda cfg: calls.append(cfg) or validate(cfg))
        argv = ["sweep", "--lambdas", "log:0.01:1e7:20", "--m", "0,2,8",
                "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_restart_winner_is_n_restarts_from_m_two(self):
        # the label the closed-form start had beside n_restarts random starts
        cfg = SweepConfig(mode="quantizer", lambdas=[0.5], m_values=[1, 2, 8], theta_nodes=3,
                          n_restarts=5)
        assert [(row.M, row.restart_winner) for row in run_sweep(cfg)] == [(1, 0), (2, 5), (8, 5)]

    def test_mixed_sweep_at_rho_one_fails_only_its_quantizer_rows(self, capsys):
        # the linear stage is defined at |rho| = 1, so its rows are still written
        argv = ["sweep", "--m", "0,2", "--lambdas", "1", "--rho", "1", "--theta-nodes", "3",
                "--n-restarts", "1"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] == ["1,0,1,1,0,0,,-0,,,,0", "1,2,,,,,,,,false,,1"]
        assert err.startswith("sweep row lambda=1 M=2 failed: ValueError: ")
        assert main(["linear", "--lambda", "1", "--rho", "1"]) == 0

    @pytest.mark.parametrize("field,value", [
        ("theta_nodes", "3"),
        ("mc_samples", "x"),
        ("m_values", 2),
        ("theta_nodes", 2.5),
        ("seed", "7"),
        ("n_restarts", 2.5),
    ])
    def test_wrongly_typed_config_field_is_config_error(self, field, value, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mode": "linear", field: value}))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: {field} must be ") and len(err.splitlines()) == 1

    def test_a_failed_linear_is_reported_like_its_sweep_row(self, capsys):
        # at rho = -1 and r = 1, E[Z^2] is 0 at alpha*
        source = ["--rho", "-1", "--r", "1"]
        assert main(["sweep", "--mode", "linear", "--lambdas", "2", *source]) == 3
        row_error = capsys.readouterr().err.split(" failed: ", 1)[1]
        assert row_error.startswith("ValueError: E[Z^2] must be positive")
        assert main(["linear", "--lambda", "2", *source]) == 3
        assert capsys.readouterr() == ("", f"linear lambda=2 failed: {row_error}")

    def test_a_failed_design_is_one_line_and_exit_3(self, monkeypatch, tmp_path, capsys):
        # a sign slip in the stage's square root fails alpha*'s certificate
        # (test_uncertified_linear_stage_raises_before_any_descent)
        real_stage, sqrt = linear_module._linear_stage, np.sqrt

        def slipped_stage(source, lam):
            with monkeypatch.context() as patch:
                patch.setattr(linear_module.np, "sqrt", lambda x: -sqrt(x))
                return real_stage(source, lam)

        monkeypatch.setattr(optimizer_module, "_linear_stage", slipped_stage)
        error = slipped_stage(make_source(1.0, 1.0, 0.3), np.float64(2.0)).error()
        out = tmp_path / "q.json"
        argv = ["design", "--m", "2", "--lambda", "2", "--rho", "0.3", "--theta-nodes", "3",
                "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr() == (
            "", f"design lambda=2 M=2 failed: ArithmeticError: {error}\n")
        assert not out.exists()

    def test_unwritable_output_is_exit_2(self, tmp_path):
        code = main([
            "sweep", "--mode", "linear", "--lambdas", "1",
            "--out", str(tmp_path / "missing" / "dir" / "x.csv"),
        ])
        assert code == 2

    def test_design_subcommand_schema(self, tmp_path):
        out = tmp_path / "q.json"
        code = main([
            "design", "--m", "2", "--lambda", "1.0", "--out", str(out),
            "--theta-nodes", "3",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("M", "theta_nodes", "boundaries", "y", "theta_hat",
                    "d_e", "d_d", "d_theta", "iterations", "converged",
                    "stop_reason", "kkt_residual", "evals"):
            assert key in payload
        assert payload["M"] == 2
        assert payload["boundaries"][0][0] == "-inf"
        assert payload["evals"] >= payload["iterations"] + 1

    def test_byte_identical_sweeps(self, tmp_path):
        args = [
            "sweep", "--mode", "quantizer", "--lambdas", "0,1", "--m", "2",
            "--theta-nodes", "3", "--n-restarts", "2",
            "--seed", "11", "--format", "csv",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

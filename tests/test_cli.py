"""Sweep orchestration, emission formats, and the command-line surface."""

import json
import math

import numpy as np
import pytest

from strategiq import OptimOptions
from strategiq.cli import (
    CSV_COLUMNS,
    ConfigError,
    SweepConfig,
    SweepRow,
    _build_parser,
    config_from_dict,
    emit,
    load_rows,
    main,
    resolve_lambdas,
    run_sweep,
)

EXPECTED_HEADER = "lambda,M,d_e,fidelity,d_d,d_theta,d_kl_max,alpha,iterations,converged,restart_winner,seed"

FAST_QUANTIZER = dict(
    mode="quantizer",
    m_values=[2],
    theta_nodes=3,
    n_restarts=2,
    max_iters=800,
)


class TestConfig:
    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"bogus": 1})

    def test_mode_checked(self):
        with pytest.raises(ConfigError, match="mode"):
            config_from_dict({"mode": "banana"})

    def test_quantizer_mode_rejects_linear_sentinel(self):
        with pytest.raises(ConfigError):
            config_from_dict({"mode": "quantizer", "m_values": [0, 2]})

    def test_subcommand_defaults_are_sweep_config_defaults(self):
        cfg = SweepConfig()
        opts = OptimOptions()
        assert (cfg.eps, cfg.max_iters, cfg.n_restarts, cfg.seed) == (
            opts.eps, opts.max_iters, opts.n_restarts, opts.seed)
        parser = _build_parser()
        design = parser.parse_args(["design", "--m", "2", "--lambda", "1", "--out", "x"])
        linear = parser.parse_args(["linear", "--lambda", "1"])
        for name in ("sigma_x", "r", "rho", "theta_nodes", "theta_scheme",
                     "seed", "eps", "max_iters", "n_restarts"):
            assert getattr(design, name) == getattr(cfg, name), name
        for name in ("sigma_x", "r", "rho"):
            assert getattr(linear, name) == getattr(cfg, name), name

    def test_lambda_log_range(self):
        lams = resolve_lambdas({"start": 0.01, "stop": 100.0, "points": 5}, 1e7)
        assert len(lams) == 5
        assert lams[0] == pytest.approx(0.01)
        assert lams[-1] == pytest.approx(100.0)

    def test_lambda_inf_capped(self):
        assert resolve_lambdas([0.0, "inf"], 1e7) == [0.0, 1e7]

    def test_lambda_rejects_negative_and_empty(self):
        with pytest.raises(ConfigError):
            resolve_lambdas([-1.0], 1e7)
        with pytest.raises(ConfigError):
            resolve_lambdas([], 1e7)


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
            max_iters=400,
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

        def flaky(source, grid, m, lam, opts):
            if lam == 1.0:
                raise RuntimeError("forced failure")
            return real(source, grid, m, lam, opts)

        monkeypatch.setattr(cli_mod, "multistart", flaky)
        cfg = SweepConfig(lambdas=[0.0, 1.0], **FAST_QUANTIZER)
        rows = run_sweep(cfg)
        assert rows[0].converged is not False and rows[0].d_e is not None
        assert rows[0].error is None
        assert rows[1].converged is False and rows[1].d_e is None
        assert rows[1].error == "RuntimeError: forced failure"

        args = [
            "sweep", "--mode", "quantizer", "--lambdas", "0,1", "--m", "2",
            "--theta-nodes", "3", "--n-restarts", "2", "--max-iters", "800",
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

    def test_io_error_carries_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit([], "csv", str(tmp_path / "no" / "such" / "file.csv"))


class TestCommandLine:
    def test_linear_subcommand(self, capsys):
        assert main(["linear", "--lambda", "0", "--rho", "0", "--r", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == pytest.approx(0.618034, abs=1e-6)
        assert payload["kappa"] == pytest.approx(0.723607, abs=1e-6)

    def test_sweep_without_out_prints_csv(self, capsys):
        assert main(["sweep", "--mode", "linear", "--lambdas", "0,1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 3

    def test_sweep_subcommand_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--mode", "quantizer", "--lambdas", "0.5", "--m", "2",
            "--theta-nodes", "3", "--n-restarts", "1", "--max-iters", "300",
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
        # rows always run serially; the old thread-pool knob is an unknown field
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mode": "linear", "workers": 2}))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert "workers" in capsys.readouterr().err

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
            "--theta-nodes", "3", "--n-restarts", "1", "--max-iters", "300",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("M", "theta_nodes", "boundaries", "y", "theta_hat",
                    "d_e", "d_d", "d_theta", "iterations", "converged"):
            assert key in payload
        assert payload["M"] == 2
        assert payload["boundaries"][0][0] == "-inf"

    def test_byte_identical_sweeps(self, tmp_path):
        args = [
            "sweep", "--mode", "quantizer", "--lambdas", "0,1", "--m", "2",
            "--theta-nodes", "3", "--n-restarts", "2", "--max-iters", "500",
            "--seed", "11", "--format", "csv",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

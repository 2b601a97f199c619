import json
import math
import os
from pathlib import Path

import jsonschema
import pytest

from graceperiod.cli import main

DOCS = Path(__file__).resolve().parent.parent / "docs"

SIM_CONFIG = {
    "n_threads": 4,
    "mode": "requestor_wins",
    "policy": {"variant": "randomized_unconstrained", "B": 100.0},
    "length_model": {"kind": "exponential", "mean": 20.0},
    "conflict_schedule": {"kind": "random_rate", "rate": 0.2},
    "horizon": 500.0,
    "seed": 17,
}


def run_to_file(args, out):
    rc = main(args + ["--out", str(out)])
    return rc, out.read_bytes()


class TestBenchCommand:
    def test_csv_output_and_determinism(self, tmp_path):
        args = ["bench-synthetic", "--B", "2000", "--mu", "500", "--trials", "4000",
                "--seed", "3", "--dist", "exponential", "--dist", "uniform"]
        rc1, out1 = run_to_file(args, tmp_path / "a.csv")
        rc2, out2 = run_to_file(args, tmp_path / "b.csv")
        assert rc1 == rc2 == 0
        assert out1 == out2
        lines = out1.decode().split("\r\n")
        assert lines[0] == "distribution,strategy,trials,avg_cost,avg_opt,ratio,stderr"
        assert len(lines) == 1 + 2 * 6 + 1

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"B": 100.0, "mu": 25.0, "trials": 500,
                                   "distributions": ["uniform"], "seed": 9}))
        rc, data = run_to_file(
            ["bench-synthetic", "--config", str(cfg), "--trials", "800"],
            tmp_path / "c.csv",
        )
        assert rc == 0
        assert ",800," in data.decode()  # flag wins over file

    def test_unknown_distribution_is_an_error(self, tmp_path, capsys):
        rc = main(["bench-synthetic", "--dist", "zipf", "--trials", "10"])
        assert rc == 2
        assert "zipf" in capsys.readouterr().err


    @pytest.mark.parametrize("field,value", [
        ("seed", 1.7), ("seed", True), ("seed", "1"),
        ("trials", 10.5), ("trials", "5"), ("trials", False),
        ("distributions", "uniform"), ("distributions", 3),
        ("strategies", "OPT"), ("strategies", None), ("B", "100"), ("mu", None),
    ])
    def test_bad_config_field_is_named(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"trials": 10, field: value}))
        assert main(["bench-synthetic", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{field}'" in err

class TestSimulateCommand:
    def test_json_output_schema_and_determinism(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(SIM_CONFIG))
        args = ["simulate", "--config", str(cfg), "--campaign-seeds", "50"]
        rc1, out1 = run_to_file(args, tmp_path / "a.json")
        rc2, out2 = run_to_file(args, tmp_path / "b.json")
        assert rc1 == rc2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        schema = json.loads((DOCS / "simulate_output.schema.json").read_text())
        jsonschema.validate(doc, schema)
        assert doc["online"]["schedule_digest"] == doc["offline"]["schedule_digest"]
        assert doc["online"]["global_ratio"] >= 1.0 - 1e-9

    def test_schedule_built_once(self, tmp_path, monkeypatch):
        from graceperiod import simulator

        built = []
        original = simulator.build_schedule
        monkeypatch.setattr(
            simulator, "build_schedule", lambda config: built.append(config) or original(config)
        )
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(SIM_CONFIG))
        rc, _ = run_to_file(
            ["simulate", "--config", str(cfg), "--campaign-seeds", "20"], tmp_path / "a.json"
        )
        assert rc == 0
        assert len(built) == 1

    def test_bundled_configs_resolve(self, tmp_path):
        rc, data = run_to_file(
            ["simulate", "--config", "stress_low.json"], tmp_path / "s.json"
        )
        assert rc == 0
        doc = json.loads(data)
        assert doc["config"]["n_threads"] == 8

    def test_env_dir_search_path(self, tmp_path, monkeypatch):
        cfgdir = tmp_path / "configs"
        cfgdir.mkdir()
        (cfgdir / "mine.json").write_text(json.dumps(SIM_CONFIG))
        monkeypatch.setenv("GRACEPERIOD_CONFIG_DIR", str(cfgdir))
        monkeypatch.chdir(tmp_path)
        rc, _ = run_to_file(["simulate", "--config", "mine.json"], tmp_path / "out.json")
        assert rc == 0

    def test_trace_config_replays_identically(self, tmp_path):
        trace = tmp_path / "conflicts.trace"
        trace.write_text("12.5 0 2\n300 1 3\n420 2 2\n")
        cfg = tmp_path / "trace_sim.json"
        cfg.write_text(json.dumps({
            "n_threads": 3, "mode": "requestor_wins",
            "policy": {"variant": "randomized_unconstrained", "B": 100.0},
            "length_model": {"kind": "uniform", "mean": 60.0},
            "conflict_schedule": {"kind": "trace", "path": str(trace)},
            "horizon": 500.0, "seed": 23,
        }))
        args = ["simulate", "--config", str(cfg)]
        rc1, out1 = run_to_file(args, tmp_path / "a.json")
        rc2, out2 = run_to_file(args, tmp_path / "b.json")
        assert rc1 == rc2 == 0 and out1 == out2
        doc = json.loads(out1)
        assert doc["online"]["n_conflicts"] == 3

    def test_bad_json_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"n_threads": 2,\n  "mode": }')
        rc = main(["simulate", "--config", str(cfg)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_field_reports_name(self, tmp_path, capsys):
        bad = dict(SIM_CONFIG)
        del bad["horizon"]
        cfg = tmp_path / "missing.json"
        cfg.write_text(json.dumps(bad))
        rc = main(["simulate", "--config", str(cfg)])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err


class TestVerifyCommand:
    def test_clean_build_exits_zero(self, tmp_path):
        rc, data = run_to_file(["verify"], tmp_path / "report.json")
        assert rc == 0
        report = json.loads(data)
        schema = json.loads((DOCS / "verify_report.schema.json").read_text())
        jsonschema.validate(report, schema)
        assert report["passed"] and report["n_checks"] >= 30


class TestStrategyTableCommand:
    def test_uniform_three_points(self, tmp_path):
        rc, data = run_to_file(
            ["strategy-table", "--mode", "requestor_wins",
             "--strategy-variant", "randomized_unconstrained",
             "--k", "2", "--B", "100", "--points", "3"],
            tmp_path / "t.csv",
        )
        assert rc == 0
        assert data.decode() == "x,pdf,cdf\r\n0,0.01,0\r\n50,0.01,0.5\r\n100,0.01,1\r\n"

    def test_atom_single_row(self, tmp_path):
        rc, data = run_to_file(
            ["strategy-table", "--mode", "requestor_wins",
             "--strategy-variant", "deterministic", "--k", "5", "--B", "100"],
            tmp_path / "t.csv",
        )
        assert rc == 0
        assert data.decode() == "x,pdf,cdf\r\n25,1,atom\r\n"

    def test_discrete_rows(self, tmp_path):
        rc, data = run_to_file(
            ["strategy-table", "--mode", "requestor_aborts",
             "--strategy-variant", "discrete_classic", "--k", "2", "--B", "3"],
            tmp_path / "t.csv",
        )
        assert rc == 0
        lines = data.decode().strip().split("\r\n")
        assert len(lines) == 4
        day1 = lines[1].split(",")
        assert float(day1[1]) == pytest.approx(4.0 / 19.0, rel=1e-11)

    def test_constrained_table_starts_at_zero_density(self, tmp_path):
        rc, data = run_to_file(
            ["strategy-table", "--mode", "requestor_aborts",
             "--strategy-variant", "randomized_constrained",
             "--k", "2", "--B", "100", "--mu", "10", "--points", "5"],
            tmp_path / "t.csv",
        )
        assert rc == 0
        first = data.decode().split("\r\n")[1].split(",")
        assert first == ["0", "0", "0"]

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from graceperiod import strategy as strategy_module
from graceperiod.cli import main
from graceperiod.config import quote
from graceperiod.simulator import config_from_dict

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


# each config field the simulate parser once took wrongly: a bool read from a
# string or a number, a list or a string in a float field (a TypeError, or a
# message without the field), true read as 1.0, a missing or null trace path
BAD_SIM_FIELDS = [
    ("dynamic_b", {"dynamic_b": "false"}),
    ("dynamic_b", {"dynamic_b": 2}),
    ("doubling_backoff", {"doubling_backoff": "no"}),
    ("conflict_schedule.rate", {"conflict_schedule": {"kind": "random_rate", "rate": [0.2]}}),
    ("conflict_schedule.rate", {"conflict_schedule": {"kind": "random_rate", "rate": "x"}}),
    ("conflict_schedule.path", {"conflict_schedule": {"kind": "trace"}}),
    ("conflict_schedule.path", {"conflict_schedule": {"kind": "trace", "path": None}}),
    ("policy.B", {"policy": {"variant": "randomized_unconstrained", "B": [100.0]}}),
    ("policy.B", {"policy": {"variant": "randomized_unconstrained", "B": True}}),
    # outside [1e-250, 1e250]: 1e308 ended in a ZeroDivisionError traceback
    ("policy.B", {"policy": {"variant": "randomized_constrained", "B": 1e308, "mu": 1.0}}),
    ("policy.B", {"policy": {"variant": "randomized_unconstrained", "B": 5e-324}}),
    ("length_model.mean", {"length_model": {"kind": "exponential", "mean": [20.0]}}),
    ("length_model.sigma",
     {"length_model": {"kind": "normal_truncated", "mean": 20.0, "sigma": [5.0]}}),
    # a field the kind does not read
    ("length_model.sigma", {"length_model": {"kind": "exponential", "mean": 20.0, "sigma": 5}}),
    # under 1% of the mass above zero: rejected by the first draw, naming no field
    ("length_model.sigma",
     {"length_model": {"kind": "normal_truncated", "mean": 1.0, "sigma": 3.0}}),
    ("length_model.value", {"length_model": {"kind": "uniform", "mean": 20.0, "value": 3.0}}),
    # a field the variant does not read
    ("policy.mu", {"policy": {"variant": "randomized_unconstrained", "B": 100.0, "mu": 10.0}}),
    ("policy.mu", {"policy": {"variant": "deterministic", "B": 100.0, "mu": 0.0}}),
    ("cleanup_cost", {"cleanup_cost": [1.0]}),
    ("cleanup_cost", {"cleanup_cost": "abc"}),
    ("cleanup_cost", {"cleanup_cost": True}),
    ("horizon", {"horizon": True}),
]


def run_script(script, cwd=None):
    """The standard output of ``python -c script`` with ``src`` on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True)
    return out.stdout


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

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        # a misspelled key used to be ignored: "trails" ran the default 100000 trials
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"trails": 10, "trials": 10}))
        assert main(["bench-synthetic", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: config field 'trails' is not a known field\n"

    def test_huge_normal_mean_runs(self, tmp_path):
        # its calibration overflowed and exited 2 with an error naming no field
        rc, data = run_to_file(
            ["bench-synthetic", "--mu", "1e200", "--dist", "normal", "--trials", "3"],
            tmp_path / "n.csv",
        )
        assert rc == 0
        rows = [line.split(",") for line in data.decode().split("\r\n")[1:-1]]
        assert len(rows) == 6
        assert all(math.isfinite(float(v)) for row in rows for v in row[3:])

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

    @pytest.mark.parametrize("flag,value", [
        ("--B", "-1"), ("--B", "inf"), ("--B", "1e308"), ("--B", "5e-324"),
        ("--mu", "0"), ("--mu", "nan"),
    ])
    def test_out_of_range_flag_names_its_field(self, capsys, flag, value):
        assert main(["bench-synthetic", "--trials", "10", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{flag[2:]}'"), err


    def test_mean_a_distribution_cannot_take_fails_before_scoring(self, capsys, monkeypatch):
        from graceperiod import bench

        monkeypatch.setattr(bench, "run_bench", None)  # reached only after the config
        rc = main(["bench-synthetic", "--dist", "uniform", "--dist", "poisson", "--mu", "1.0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'mu': ") and "(distribution poisson)" in err


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
        # one schedule and one offline baseline serve the pair and the campaign
        from graceperiod import simulator

        built, baselines = [], []
        original = simulator.build_schedule
        monkeypatch.setattr(
            simulator, "build_schedule", lambda config: built.append(config) or original(config)
        )
        offline = simulator.run_offline_baseline
        monkeypatch.setattr(
            simulator, "run_offline_baseline",
            lambda config, sched: baselines.append(sched) or offline(config, sched),
        )
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(SIM_CONFIG))
        rc, _ = run_to_file(
            ["simulate", "--config", str(cfg), "--campaign-seeds", "20"], tmp_path / "a.json"
        )
        assert rc == 0
        assert len(built) == 1
        assert len(baselines) == 1

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

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_campaign_seeds_below_one_rejected(self, tmp_path, capsys, value):
        # -5 used to run no campaign and exit 0
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(SIM_CONFIG))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--campaign-seeds", value])
        assert exc.value.code == 2
        assert "--campaign-seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("field,overrides", BAD_SIM_FIELDS,
                             ids=[json.dumps(o) for _, o in BAD_SIM_FIELDS])
    def test_bad_config_field_is_named(self, tmp_path, capsys, field, overrides):
        data = dict(SIM_CONFIG, **overrides)
        with pytest.raises(ValueError, match=re.escape(f"config field '{field}'")):
            config_from_dict(data)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(cfg)]) == 2  # any other error propagates
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"config field '{field}'" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "bench-synthetic"])
    def test_config_must_be_an_object(self, tmp_path, capsys, command):
        # a JSON list used to fail with an AttributeError or a TypeError
        cfg = tmp_path / "list.json"
        cfg.write_text("[1]")
        assert main([command, "--config", str(cfg)]) == 2
        assert "a config must be a JSON object" in capsys.readouterr().err

    def test_null_optional_fields_and_bool_flags_accepted(self):
        config = config_from_dict(dict(
            SIM_CONFIG, dynamic_b=False, doubling_backoff=True,
            policy={"variant": "randomized_unconstrained", "B": 100, "mu": None},
            length_model={"kind": "normal_truncated", "mean": 20, "sigma": None, "value": None},
        ))
        assert config.policy.mu is None and config.length_model.sigma == 5.0
        for kind in ("exponential", "point_mass"):  # null is unset for every kind
            config_from_dict(dict(
                SIM_CONFIG, length_model={"kind": kind, "mean": 20, "sigma": None, "value": None}
            ))
        assert config.dynamic_b is False and config.doubling_backoff is True

    def test_missing_field_reports_name(self, tmp_path, capsys):
        bad = dict(SIM_CONFIG)
        del bad["horizon"]
        cfg = tmp_path / "missing.json"
        cfg.write_text(json.dumps(bad))
        rc = main(["simulate", "--config", str(cfg)])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, named", [
        # rejected as the config is read
        ({"dynamic_b": True, "cleanup_cost": 1e300}, "cleanup_cost 1e+300 plus horizon"),
        # rejected by the build: a second conflict doubles policy.B past the range
        ({"policy": {"variant": "deterministic", "B": 1e250}, "doubling_backoff": True,
          "length_model": {"kind": "point_mass", "mean": 1e245}, "horizon": 1e240,
          "conflict_schedule": {"kind": "random_rate", "rate": 1e-236},
          "chain_size": 2**52, "n_threads": 1}, "on thread 0 costs policy.B times"),
    ], ids=["cleanup_cost", "policy.B doubled"])
    def test_abort_cost_past_its_range_names_its_source(self, tmp_path, capsys, overrides, named):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(dict(SIM_CONFIG, **overrides)))
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and named in err and "Traceback" not in err, err


def _sim_text(extra: str) -> str:
    # SIM_CONFIG as JSON text, with raw text added before its closing brace
    return json.dumps(SIM_CONFIG)[:-1] + ", " + extra + "}"


class TestConfigFile:
    """What both file-driven commands share: the loader and the field readers."""

    @pytest.mark.parametrize("command,text,key", [
        # json keeps the last value: seed 5, weight 5 and 20 trials ran unreported
        ("simulate", _sim_text('"seed": 5'), "seed"),
        ("simulate", _sim_text('"chain_size": {"2": 1, "2": 5}'), "2"),
        ("bench-synthetic", '{"trials": 10, "trials": 20}', "trials"),
    ], ids=["simulate-seed", "simulate-chain_size", "bench-trials"])
    def test_repeated_key_is_rejected(self, tmp_path, capsys, command, text, key):
        cfg = tmp_path / "twice.json"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {quote(str(cfg))}: key {key!r} appears twice in one object\n", err

    @pytest.mark.parametrize("command", ["simulate", "bench-synthetic"])
    def test_deep_nesting_is_rejected(self, tmp_path, capsys, command):
        # 100,000 nested arrays ended in a RecursionError traceback and exit 1
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {quote(str(cfg))}: nested too deeply\n"

    @pytest.mark.parametrize("value", [1.5, True])
    def test_bad_value_reads_alike_in_both_commands(self, value):
        from graceperiod import bench

        wording = re.escape(f"config field 'seed': must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=wording):
            bench.config_from_dict({"trials": 10, "seed": value})
        with pytest.raises(ValueError, match=wording):
            config_from_dict(dict(SIM_CONFIG, seed=value))

    LONG = "x" * 100_000
    DEEP = "[" * 500 + "]" * 500  # spliced in as JSON text; a config may nest about 990

    @pytest.mark.parametrize("command,config,field", [
        ("bench-synthetic", {"trials": LONG}, "'trials'"),
        ("bench-synthetic", {"mu": [LONG]}, "'mu'"),
        ("bench-synthetic", {"trials": 10, "strategies": LONG}, "'strategies'"),
        ("bench-synthetic", {"trials": 10, "distributions": [LONG]}, "'distributions'"),
        ("bench-synthetic", {"trials": DEEP}, "'trials'"),
        ("simulate", dict(SIM_CONFIG, mode=LONG), "'mode'"),
        ("simulate", dict(SIM_CONFIG, policy={"variant": LONG, "B": 100.0}), "'policy.variant'"),
        ("simulate", dict(SIM_CONFIG, length_model={"kind": LONG}), "'length_model'"),
        ("simulate", dict(SIM_CONFIG, dynamic_b=LONG), "'dynamic_b'"),
        ("simulate", dict(SIM_CONFIG, seed=DEEP), "'seed'"),
        ("simulate", dict(SIM_CONFIG, conflict_schedule={"kind": "trace", "path": [LONG]}),
         "'conflict_schedule.path'"),
    ], ids=["trials", "mu", "strategies", "distributions", "trials-deep", "mode",
            "policy.variant", "length_model.kind", "dynamic_b", "seed-deep", "path"])
    def test_echoed_value_is_cut_short(self, tmp_path, capsys, command, config, field):
        # a 100,000-character value was echoed whole, in one 100 KB error line
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps(config).replace(json.dumps(self.DEEP), self.DEEP))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err and len(err) < 250, err[:300]

    KEY = "k" * 100_000

    @pytest.mark.parametrize("text,field", [
        (_sim_text(f'"{KEY}": 1'), "is not a known field"),
        (_sim_text(f'"chain_size": {{"{KEY}": 1}}'), "'chain_size'"),
        (_sim_text(f'"{KEY}": 1, "{KEY}": 2'), "appears twice"),
        (json.dumps(dict(SIM_CONFIG, conflict_schedule={"kind": "trace", "path": KEY})),
         quote(KEY)),
    ], ids=["unknown-key", "chain_size-key", "repeated-key", "trace-path"])
    def test_echoed_key_or_path_is_cut_short(self, tmp_path, capsys, text, field):
        # each was echoed whole, in one error line of about 100 KB
        cfg = tmp_path / "long.json"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
        assert field in err and len(err.encode()) < 250, err[:300]

    def test_long_config_path_is_cut_short(self, capsys):
        # a 5,000-character --config path was echoed whole by open()'s error
        path = "p" * 5_000
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
        # the line names the path given, cut short, not a config directory it
        # was looked up in
        assert err.endswith(f": {quote(path)}\n") and len(err.encode()) < 250, err[:300]

    def test_bench_does_not_import_simulator(self):
        # bench reads its config through graceperiod.config, not the simulator's casts
        script = "import sys, graceperiod.bench\nprint('graceperiod.simulator' in sys.modules)\n"
        assert run_script(script) == "False\n"

    def test_commands_load_neither_openssl_nor_decimal(self, tmp_path):
        # hashlib maps OpenSSL's libcrypto (+3.6 MB of peak RSS) and fractions
        # pulls in decimal (+0.4 MB); no command needs either
        script = (
            "import contextlib, io, sys\n"
            "import graceperiod\n"
            "from graceperiod import cli\n"
            "for argv in (['bench-synthetic', '--trials', '1000'],\n"
            "             ['simulate', '--config', 'stress_low.json'], ['verify'],\n"
            "             ['strategy-table', '--mode', 'requestor_aborts', '--strategy-variant',\n"
            "              'discrete_classic', '--k', '2', '--B', '3']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print(sorted({'hashlib', '_hashlib', 'fractions', 'decimal'} & sys.modules.keys()))\n"
        )
        assert run_script(script, cwd=tmp_path) == "[]\n"


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

    def test_constrained_past_the_mean_threshold_is_the_unconstrained_table(self, tmp_path):
        # at requestor aborts, k = 3, B = 100 the mean threshold is 45.85: mu = 50 falls back
        args = ["strategy-table", "--mode", "requestor_aborts", "--k", "3", "--B", "100"]
        rc1, constrained = run_to_file(
            [*args, "--strategy-variant", "randomized_constrained", "--mu", "50"],
            tmp_path / "c.csv",
        )
        rc2, unconstrained = run_to_file(
            [*args, "--strategy-variant", "randomized_unconstrained"], tmp_path / "u.csv"
        )
        assert rc1 == rc2 == 0
        assert constrained == unconstrained

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

    def test_discrete_classic_abort_cost_is_bounded(self, capsys, monkeypatch):
        # 1e10 days used to ask for two 80 GB tables; now the spec is refused
        monkeypatch.setattr(strategy_module, "_discrete_classic_pmf", None)
        rc = main(["strategy-table", "--mode", "requestor_aborts",
                   "--strategy-variant", "discrete_classic", "--B", "1e10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1 <= B <= 1e+06" in err, err

    @pytest.mark.parametrize("value", ["1e308", "5e-324", "1.1e250", "nan"])
    def test_abort_cost_outside_its_range_rejected(self, capsys, value):
        # 1e308 used to end in a ZeroDivisionError traceback, 5e-324 in an
        # infinite density
        with pytest.raises(SystemExit) as exc:
            main(["strategy-table", "--mode", "requestor_wins",
                  "--strategy-variant", "randomized_constrained", "--B", value, "--mu", "1"])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "argument --B: abort cost B" in errors[0], errors

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_points_below_one_rejected(self, capsys, value):
        # 0 used to print a header-only table and exit 0
        with pytest.raises(SystemExit) as exc:
            main(["strategy-table", "--mode", "requestor_wins",
                  "--strategy-variant", "randomized_unconstrained",
                  "--B", "100", "--points", value])
        assert exc.value.code == 2
        assert "--points" in capsys.readouterr().err

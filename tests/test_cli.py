"""Tests for the command-line interface: subcommands, exit codes, file output."""

import csv
import json
import math

import numpy as np
import pytest

from neuralbandit import cli, harness
from neuralbandit.cli import main


def no_run(*args, **kwargs):
    raise AssertionError("a repetition ran before the output directory was checked")


def no_gram(*args, **kwargs):
    raise AssertionError("the Gram matrix was computed before --out was checked")


def write_config(tmp_path, **overrides):
    config = {
        "environment": {"kind": "h1", "dimension": 4, "num_actions": 3,
                        "horizon": 15, "noise_scale": 0.5},
        "policy": {"algorithm": "neural_ucb", "width": 4, "depth": 2,
                   "gamma": 0.1, "eta": 0.001, "cadence": 10,
                   "batch_size": None, "j_steps": 5},
        "repetitions": 2,
        "base_seed": 7,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestRun:
    def test_smoke_writes_three_files(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "rounds.csv").is_file()
        assert (out / "summary.csv").is_file()
        assert (out / "config.json").is_file()
        assert "mean final cumulative regret" in capsys.readouterr().out

    def test_seed_override_changes_output(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(out_a),
                     "--seed", "123"]) == 0
        assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "rounds.csv").read_bytes() != (out_b / "rounds.csv").read_bytes()
        snapshot = json.loads((out_a / "config.json").read_text())
        assert snapshot["seeds"][0] == 123

    # null selects NeuralUCB's theoretical width
    @pytest.mark.parametrize("gamma", [0.1, None])
    def test_repeat_run_is_byte_identical(self, tmp_path, gamma):
        data = json.loads(write_config(tmp_path).read_text())
        data["policy"]["gamma"] = gamma
        config = write_config(tmp_path, **data)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
        for name in ("rounds.csv", "summary.csv", "config.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert json.loads((out_a / "config.json").read_text())["policy"]["gamma"] == gamma

    @pytest.mark.parametrize("environment,policy,top,field_name", [
        pytest.param({"horizon": 0}, {}, {}, "environment.horizon", id="horizon"),
        pytest.param({"dimension": 5}, {"preprocess": False}, {}, "policy.preprocess",
                     id="odd-dimension-unpreprocessed"),
        pytest.param({}, {"gamma_inputs": {}}, {}, "policy.gamma_inputs",
                     id="removed-gamma-inputs"),
        pytest.param({}, {"algorithm": "lin_ucb", "alpha": 1.0}, {}, "policy.alpha: unknown key",
                     id="removed-alpha"),
        pytest.param({}, {"algorithm": "kernel_ucb", "kernel_beta": 1.0}, {},
                     "policy.kernel_beta: unknown key", id="removed-kernel-beta"),
        pytest.param({}, {}, {"repetitions": "2"}, "repetitions", id="string-repetitions"),
        pytest.param({"horizon": 5.5}, {}, {}, "environment.horizon", id="fractional-horizon"),
        pytest.param({"num_actions": 2.5}, {}, {}, "environment.num_actions",
                     id="fractional-num-actions"),
        pytest.param({}, {"cadence": 2.5}, {}, "policy.cadence", id="fractional-cadence"),
        pytest.param({}, {"depth": 2.5}, {}, "policy.depth", id="fractional-depth"),
        pytest.param({"noise_scale": "0.5"}, {}, {}, "environment.noise_scale",
                     id="string-noise-scale"),
        pytest.param({"noise_scale": math.nan}, {}, {}, "environment.noise_scale",
                     id="nan-noise-scale"),
        pytest.param({}, {"gamma": math.nan}, {}, "policy.gamma", id="nan-gamma"),
        pytest.param({}, {"lam": math.nan}, {}, "policy.lam", id="nan-lam"),
        pytest.param({}, {"eta": "0.1"}, {}, "policy.eta", id="string-eta"),
        pytest.param({}, {}, {"base_seed": True}, "base_seed", id="bool-base-seed"),
        pytest.param({}, {"preprocess": "false"}, {}, "policy.preprocess",
                     id="string-preprocess"),
        pytest.param({"shuffle": "no"}, {}, {}, "environment.shuffle", id="string-shuffle"),
        pytest.param({}, {}, {"output": "o"}, "output: unknown key", id="removed-output"),
        pytest.param({"kind": "dataset", "dataset_path": 5, "label_column": "label"}, {}, {},
                     "environment.dataset_path", id="int-dataset-path"),
    ])
    def test_invalid_config_exits_one_naming_field(self, tmp_path, capsys,
                                                   environment, policy, top, field_name):
        data = json.loads(write_config(tmp_path).read_text())
        data["environment"].update(environment)
        data["policy"].update(policy)
        data.update(top)
        config = write_config(tmp_path, **data)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert field_name in capsys.readouterr().err

    @pytest.mark.parametrize("csv_text", [
        pytest.param("a,b,label\n1,2,x\nabc,4,y\n", id="non-numeric-cell"),
        pytest.param("a,b,class\n1,2,x\n3,4,y\n", id="missing-label-column"),
        pytest.param("label\nx\ny\nx\n", id="no-feature-column"),
    ])
    def test_dataset_load_error_exits_one_naming_path(self, tmp_path, capsys, csv_text):
        dataset = tmp_path / "data.csv"
        dataset.write_text(csv_text, encoding="utf-8")
        config = write_config(
            tmp_path,
            environment={"kind": "dataset", "dataset_path": str(dataset),
                         "label_column": "label", "horizon": 2},
            policy={"algorithm": "random"},
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "environment.dataset_path" in err and str(dataset) in err

    def test_dataset_policy_is_checked_against_the_context_dimension(self, tmp_path, capsys):
        # 3 features and 3 classes give 9-dimensional contexts, which the
        # symmetric network cannot take unpreprocessed
        dataset = tmp_path / "data.csv"
        dataset.write_text("a,b,c,label\n1,2,3,x\n4,5,6,y\n7,8,9,z\n", encoding="utf-8")
        config = write_config(
            tmp_path,
            environment={"kind": "dataset", "dataset_path": str(dataset),
                         "label_column": "label", "horizon": 3},
            policy={"algorithm": "neural_ucb", "width": 4, "preprocess": False},
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "policy.preprocess" in err and "got 9" in err

    def test_missing_output_location_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 1
        assert "--out" in capsys.readouterr().err

    def test_out_naming_a_file_exits_one_before_any_run(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        monkeypatch.setattr(harness, "run_single", no_run)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert "--out:" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 1

    def test_unknown_flag_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--frobnicate"]) == 1

    # the far ends of the float range: a square that underflows to 0, a power of
    # lam that overflows, and a square that overflows to inf, which is allowed
    @pytest.mark.parametrize("policy,code,message", [
        ({"algorithm": "kernel_ucb", "kernel_bandwidth": 1e-200}, 1,
         "policy.kernel_bandwidth: must have a nonzero square"),
        ({"algorithm": "neural_ucb", "width": 4, "gamma": None, "lam": 1e-190}, 1,
         "policy.lam: must be large enough"),
        ({"algorithm": "neural_ucb", "width": 4, "gamma": None, "lam": 1e-150,
          "design_mode": "diagonal"}, 1, "policy.lam: must be large enough that the width"),
        ({"algorithm": "kernel_ucb", "kernel_bandwidth": 1e200}, 0, ""),
    ])
    def test_extreme_float_settings_exit_codes(self, tmp_path, capsys, policy, code, message):
        config = write_config(tmp_path, policy=policy, repetitions=1)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == code
        assert message in capsys.readouterr().err


class TestGrid:
    def test_grid_smoke(self, tmp_path, capsys):
        config = write_config(tmp_path, policy={"algorithm": "lin_ucb", "gamma": 1.0},
                              repetitions=1)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"policy.gamma": [0.1, 1.0]}), encoding="utf-8")
        out = tmp_path / "grid_out"
        assert main(["grid", "--config", str(config), "--grid", str(grid),
                     "--out", str(out)]) == 0
        assert (out / "grid_table.csv").is_file()
        assert (out / "best_config.json").is_file()
        assert "best" in capsys.readouterr().out

    def test_diverging_combination_is_reported_and_skipped(self, tmp_path, capsys):
        config = write_config(tmp_path, repetitions=1)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"policy.eta": [0.001, 50.0]}), encoding="utf-8")
        out = tmp_path / "grid_out"
        assert main(["grid", "--config", str(config), "--grid", str(grid),
                     "--out", str(out)]) == 0
        header, *rows = (out / "grid_table.csv").read_text().strip().splitlines()
        assert header == "policy.eta,mean_final_regret,std_final_regret,status"
        assert len(rows) == 2
        assert rows[0].endswith(",ok") and rows[1] == "50.0,nan,nan,diverged"
        assert json.loads((out / "best_config.json").read_text())["policy"]["eta"] == 0.001
        printed = capsys.readouterr().out
        assert "diverged: training loss is non-finite" in printed

    # at lam = 1e-20 the full design's Sherman-Morrison update breaks in round 19
    DESIGN_BREAKS = dict(
        environment={"kind": "h1", "dimension": 4, "num_actions": 4, "horizon": 300},
        policy={"algorithm": "neural_ucb", "width": 4, "gamma": 1.0, "design_mode": "full",
                "preprocess": False},
        repetitions=1)

    def test_combination_whose_design_breaks_is_reported_and_skipped(self, tmp_path, capsys):
        config = write_config(tmp_path, **self.DESIGN_BREAKS)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"policy.lam": [1e-20, 1e-12]}), encoding="utf-8")
        out = tmp_path / "grid_out"
        assert main(["grid", "--config", str(config), "--grid", str(grid),
                     "--out", str(out)]) == 0
        header, *rows = (out / "grid_table.csv").read_text().strip().splitlines()
        assert header == "policy.lam,mean_final_regret,std_final_regret,status"
        assert len(rows) == 2
        assert rows[0] == "1e-20,nan,nan,diverged" and rows[1].endswith(",ok")
        assert json.loads((out / "best_config.json").read_text())["policy"]["lam"] == 1e-12
        printed = capsys.readouterr().out
        assert "{'policy.lam': 1e-20}: diverged: rank-one update 19 at lam = 1e-20" in printed

    def test_override_holding_a_comma_stays_one_cell(self, tmp_path):
        paths = [tmp_path / "plain.csv", tmp_path / "d,a.csv"]
        for path in paths:
            path.write_text("a,b,label\n1,2,x\n3,4,y\n5,6,x\n", encoding="utf-8")
        config = write_config(tmp_path, environment={
            "kind": "dataset", "dataset_path": str(paths[0]), "label_column": "label",
            "horizon": 3}, policy={"algorithm": "random"}, repetitions=1)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"environment.dataset_path": [str(p) for p in paths],
                                    "environment.horizon": [2, 3]}), encoding="utf-8")
        out = tmp_path / "grid_out"
        assert main(["grid", "--config", str(config), "--grid", str(grid),
                     "--out", str(out)]) == 0
        with open(out / "grid_table.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["environment.dataset_path", "environment.horizon",
                          "mean_final_regret", "std_final_regret", "status"]
        assert [len(row) for row in rows] == [5, 5, 5, 5]
        assert [row[0] for row in rows] == [str(p) for p in paths for _ in range(2)]
        assert all(row[4] == "ok" for row in rows)

    @pytest.mark.parametrize("section", ["environment", "policy"])
    def test_grid_path_naming_a_section_exits_one(self, tmp_path, capsys, section):
        config = write_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({section: [1]}), encoding="utf-8")
        assert main(["grid", "--config", str(config), "--grid", str(grid)]) == 1
        assert f"grid: unknown parameter path '{section}'" in capsys.readouterr().err

    def test_out_below_a_file_exits_one_before_any_run(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, policy={"algorithm": "lin_ucb"}, repetitions=1)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"policy.gamma": [0.1, 1.0]}), encoding="utf-8")
        (tmp_path / "taken").write_text("", encoding="utf-8")
        monkeypatch.setattr(harness, "run_single", no_run)
        assert main(["grid", "--config", str(config), "--grid", str(grid),
                     "--out", str(tmp_path / "taken" / "sub")]) == 1
        assert "--out:" in capsys.readouterr().err

    def test_bad_grid_json_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text("not json", encoding="utf-8")
        assert main(["grid", "--config", str(config), "--grid", str(grid)]) == 1

    @pytest.mark.parametrize("flag", ["--config", "--grid"])
    def test_json_file_that_is_not_utf8_exits_one(self, tmp_path, capsys, flag):
        files = {"--config": write_config(tmp_path), "--grid": tmp_path / "grid.json"}
        files["--grid"].write_text(json.dumps({"policy.gamma": [0.1]}), encoding="utf-8")
        files[flag].write_bytes(b"\xff\xfe{}")
        assert main(["grid", "--config", str(files["--config"]),
                     "--grid", str(files["--grid"])]) == 1
        err = capsys.readouterr().err
        assert f"{flag}: invalid JSON in {str(files[flag])!r}: 'utf-8' codec can't decode" in err

    def test_grid_holding_a_list_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"policy.gamma": [0.1]}]), encoding="utf-8")
        assert main(["grid", "--config", str(config), "--grid", str(grid)]) == 1
        assert "--grid: must be a JSON object" in capsys.readouterr().err

    # the first combination's error is raised
    @pytest.mark.parametrize("fields,grid,messages", [
        pytest.param({"repetitions": 1}, {"policy.eta": [50.0, 60.0]},
                     ["training loss is non-finite", "eta=50.0"], id="training-diverges"),
        pytest.param(DESIGN_BREAKS, {"policy.lam": [1e-20, 1e-21]},
                     ["rank-one update 19 at lam = 1e-20"], id="design-breaks"),
    ])
    def test_every_combination_diverging_exits_two(self, tmp_path, capsys, fields, grid,
                                                   messages):
        config = write_config(tmp_path, **fields)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid), encoding="utf-8")
        assert main(["grid", "--config", str(config), "--grid", str(grid_path)]) == 2
        err = capsys.readouterr().err
        assert all(message in err for message in messages), err


class TestNtk:
    def test_orthogonal_contexts_emit_known_off_diagonal(self, tmp_path, capsys):
        contexts = tmp_path / "ctx.csv"
        contexts.write_text("1,0\n0,1\n", encoding="utf-8")
        assert main(["ntk", "--contexts", str(contexts), "--depth", "2",
                     "--lambda", "1.0", "--tk", "4"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        off_diag = float(lines[0].split(",")[1])
        assert off_diag == pytest.approx(1.0 / np.pi, abs=1e-9)
        assert lines[2].startswith("effective_dimension,")

    def test_rewards_add_norm_proxy(self, tmp_path, capsys):
        contexts = tmp_path / "ctx.csv"
        contexts.write_text("1,0\n0,1\n", encoding="utf-8")
        rewards = tmp_path / "rew.csv"
        rewards.write_text("1\n0\n", encoding="utf-8")
        assert main(["ntk", "--contexts", str(contexts), "--depth", "2",
                     "--lambda", "1.0", "--tk", "4",
                     "--rewards", str(rewards)]) == 0
        out = capsys.readouterr().out
        assert "rkhs_norm_proxy," in out

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_reward_exits_one(self, tmp_path, capsys, bad):
        contexts = tmp_path / "ctx.csv"
        contexts.write_text("1,0\n0,1\n", encoding="utf-8")
        rewards = tmp_path / "rew.csv"
        rewards.write_text(f"1\n{bad}\n", encoding="utf-8")
        assert main(["ntk", "--contexts", str(contexts), "--depth", "2",
                     "--lambda", "1.0", "--tk", "4", "--rewards", str(rewards)]) == 1
        captured = capsys.readouterr()
        assert "rewards must be finite" in captured.err
        assert "rkhs_norm_proxy" not in captured.out

    def test_output_file_option(self, tmp_path, capsys):
        contexts = tmp_path / "ctx.csv"
        contexts.write_text("1,0\n0,1\n", encoding="utf-8")
        target = tmp_path / "gram.csv"
        assert main(["ntk", "--contexts", str(contexts), "--depth", "2",
                     "--lambda", "1.0", "--tk", "4", "--out", str(target)]) == 0
        assert "effective_dimension" in target.read_text()

    @pytest.mark.parametrize("target", [
        pytest.param(".", id="existing-directory"),
        pytest.param("taken/gram.csv", id="below-a-file"),
    ])
    def test_unusable_out_exits_one_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    target):
        contexts = tmp_path / "ctx.csv"
        contexts.write_text("1,0\n0,1\n", encoding="utf-8")
        (tmp_path / "taken").write_text("", encoding="utf-8")
        monkeypatch.setattr(cli, "ntk_gram", no_gram)
        assert main(["ntk", "--contexts", str(contexts), "--depth", "2", "--lambda", "1.0",
                     "--tk", "4", "--out", str(tmp_path / target)]) == 1
        assert "--out:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        pytest.param("1,1\n0,0\n", "rows [1] have a zero or non-finite norm", id="zero-row"),
        pytest.param("", "--contexts: no values in", id="empty-file"),
    ])
    def test_unusable_contexts_exit_one(self, tmp_path, capsys, text, message):
        contexts = tmp_path / "ctx.csv"
        contexts.write_text(text, encoding="utf-8")
        assert main(["ntk", "--contexts", str(contexts), "--depth", "2",
                     "--lambda", "1.0", "--tk", "4"]) == 1
        assert message in capsys.readouterr().err

    def test_non_unit_contexts_scale_the_gram(self, tmp_path, capsys):
        contexts = tmp_path / "ctx.csv"
        contexts.write_text("2,0\n0,3\n", encoding="utf-8")
        assert main(["ntk", "--contexts", str(contexts), "--depth", "2",
                     "--lambda", "1.0", "--tk", "4"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[:2]]
        assert float(rows[0][0]) == pytest.approx(1.5 * 4, rel=1e-12)
        assert float(rows[0][1]) == pytest.approx(6.0 / np.pi, rel=1e-9)

    @pytest.mark.parametrize("flag,value,message", [
        pytest.param("--depth", "1", "depth must be >= 2", id="depth-1"),
        pytest.param("--lambda", "0", "lam must be positive", id="lambda-0"),
        pytest.param("--lambda", "nan", "lam must be finite", id="lambda-nan"),
        pytest.param("--lambda", "inf", "lam must be finite", id="lambda-inf"),
        pytest.param("--lambda", "1e-308", "lam must be large enough", id="lambda-1e-308"),
        pytest.param("--lambda", "1e-320", "lam must be large enough", id="lambda-1e-320"),
        pytest.param("--tk", "0", "tk must be >= 1", id="tk-0"),
    ])
    def test_bad_depth_exits_one(self, tmp_path, capsys, flag, value, message):
        contexts = tmp_path / "ctx.csv"
        contexts.write_text("1,0\n", encoding="utf-8")
        argv = ["ntk", "--contexts", str(contexts), "--depth", "2", "--lambda", "1.0",
                "--tk", "4"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "effective_dimension" not in captured.out


class TestCheck:
    def test_check_passes_and_prints_lines(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out


class TestHelp:
    def test_top_level_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("sub", ["run", "grid", "ntk", "check"])
    def test_subcommand_help_exits_zero(self, sub, capsys):
        assert main([sub, "--help"]) == 0

"""The repository's entry points outside the package: the synthetic script and configs/paper/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from neuralbandit.cli import main
from neuralbandit.harness import ALGORITHMS, ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent


def test_run_synthetic_script_runs_every_algorithm(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic.py"),
         "--horizon", "60", "--reps", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "best on h1" in done.stdout
    algorithms = sorted(p.name for p in tmp_path.iterdir())
    assert len(algorithms) == 7
    for name in algorithms:
        assert (tmp_path / name / "rounds.csv").is_file()


PAPER = ROOT / "configs" / "paper"
# the base config each grid file varies, as acceptance criterion 9 pairs them
GRID_BASES = {"gamma_grid.json": "neural_ucb", "epsilon_grid.json": "neural_greedy",
              "lin_ucb_gamma_grid.json": "lin_ucb"}


def paper_file(name):
    return json.loads((PAPER / name).read_text(encoding="utf-8"))


def test_paper_configs_are_one_per_algorithm_plus_the_grids():
    assert {p.name for p in PAPER.glob("*.json")} == {f"{a}.json" for a in ALGORITHMS} | set(GRID_BASES)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_paper_config_validates(algorithm):
    data = paper_file(f"{algorithm}.json")
    assert data["policy"]["algorithm"] == algorithm
    assert ExperimentConfig.from_dict(data).validate() == []


@pytest.mark.parametrize("grid_name", sorted(GRID_BASES))
def test_paper_grid_runs_on_its_base_config(grid_name, tmp_path, capsys):
    data = paper_file(f"{GRID_BASES[grid_name]}.json")
    data["environment"]["horizon"] = 60
    data["repetitions"] = 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "grid"
    assert main(["grid", "--config", str(config), "--grid", str(PAPER / grid_name),
                 "--out", str(out)]) == 0
    rows = (out / "grid_table.csv").read_text(encoding="utf-8").strip().splitlines()
    (values,) = paper_file(grid_name).values()
    assert len(rows) == 1 + len(values)
    assert all(row.endswith(",ok") for row in rows[1:])
    assert "best" in capsys.readouterr().out


def test_benchmark_protocol_matches_the_paper_configs():
    common = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))["common"]
    for algorithm in ("neural_ucb", "neural_greedy"):
        data = paper_file(f"{algorithm}.json")
        for key, section in (("neural_protocol", "policy"), ("environment", "environment")):
            assert common[key] == {k: data[section][k] for k in common[key]}, (algorithm, key)

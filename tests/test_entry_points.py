"""The repository's entry points outside the package: the synthetic script and configs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from neuralbandit.cli import main
from neuralbandit.harness import ExperimentConfig

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


@pytest.mark.parametrize("name", ["h1_lin_ucb.json", "h1_neural_ucb.json"])
def test_committed_config_validates(name):
    data = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
    assert ExperimentConfig.from_dict(data).validate() == []


def test_committed_gamma_grid_runs(tmp_path, capsys):
    data = json.loads((ROOT / "configs" / "h1_neural_ucb.json").read_text(encoding="utf-8"))
    data["environment"]["horizon"] = 60
    data["repetitions"] = 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    grid = ROOT / "configs" / "gamma_grid.json"
    out = tmp_path / "grid"
    assert main(["grid", "--config", str(config), "--grid", str(grid), "--out", str(out)]) == 0
    rows = (out / "grid_table.csv").read_text(encoding="utf-8").strip().splitlines()
    assert len(rows) == 1 + len(json.loads(grid.read_text(encoding="utf-8"))["policy.gamma"])
    assert "best" in capsys.readouterr().out

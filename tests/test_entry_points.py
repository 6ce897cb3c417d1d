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


def source_env() -> dict:
    """This environment with the package's source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_run_synthetic_script_runs_every_algorithm(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic.py"),
         "--horizon", "60", "--reps", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, env=source_env(), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "best on h1" in done.stdout
    algorithms = sorted(p.name for p in tmp_path.iterdir())
    assert len(algorithms) == 7
    for name in algorithms:
        assert (tmp_path / name / "rounds.csv").is_file()


PAPER = ROOT / "configs" / "paper"
# the base configs each grid file varies: acceptance criterion 9's pairs, and
# NeuralUCB0 tuned on NeuralUCB's gamma grid
GRID_BASES = {"gamma_grid.json": ("neural_ucb", "neural_ucb0"),
              "epsilon_grid.json": ("neural_greedy",), "lin_ucb_gamma_grid.json": ("lin_ucb",)}


def paper_file(name):
    return json.loads((PAPER / name).read_text(encoding="utf-8"))


def test_paper_configs_are_one_per_algorithm_plus_the_grids():
    assert {p.name for p in PAPER.glob("*.json")} == {f"{a}.json" for a in ALGORITHMS} | set(GRID_BASES)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_paper_config_validates(algorithm):
    data = paper_file(f"{algorithm}.json")
    assert data["policy"]["algorithm"] == algorithm
    assert ExperimentConfig.from_dict(data).validate() == []


@pytest.mark.parametrize("grid_name,base", [
    pytest.param(grid_name, base, id=grid_name if base == bases[0] else f"{grid_name}-{base}")
    for grid_name, bases in sorted(GRID_BASES.items()) for base in bases])
def test_paper_grid_runs_on_its_base_config(grid_name, base, tmp_path, capsys):
    data = paper_file(f"{base}.json")
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


# Run in a fresh interpreter, since other tests load scipy.linalg in this one.  It
# validates every paper config, which builds a KernelUCB and full designs without
# using them, then runs a few rounds of each algorithm that needs numpy alone, and
# then of the one named by its argument, printing whether scipy.linalg was loaded.
SCIPY_GUARD = """
import json, sys
from pathlib import Path

import neuralbandit, neuralbandit.cli
from neuralbandit.harness import ALGORITHMS, ExperimentConfig, run_experiment

paper, algorithm, policy = sys.argv[1:]

def load(name):
    return json.loads((Path(paper) / f"{name}.json").read_text(encoding="utf-8"))

def run(name, **policy):
    data = load(name)
    data["policy"].update(policy)
    data["environment"]["horizon"] = 3
    data["repetitions"] = 1
    run_experiment(ExperimentConfig.from_dict(data))

for name in ALGORITHMS:
    assert ExperimentConfig.from_dict(load(name)).validate() == [], name
run("neural_ucb", design_mode="diagonal")
run("neural_greedy")
run("random")
print("scipy.linalg" in sys.modules)
run(algorithm, **json.loads(policy))
print("scipy.linalg" in sys.modules)
"""


@pytest.mark.parametrize("algorithm,policy", [
    pytest.param("neural_ucb", {"design_mode": "full"}, id="neural-ucb-full-design"),
    pytest.param("kernel_ucb", {}, id="kernel-ucb"),
])
def test_only_the_full_design_and_kernel_ucb_load_scipy_linalg(algorithm, policy):
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, str(PAPER), algorithm, json.dumps(policy)],
        capture_output=True, text=True, env=source_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_benchmark_protocol_matches_the_paper_configs():
    common = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))["common"]
    for algorithm in ("neural_ucb", "neural_greedy"):
        data = paper_file(f"{algorithm}.json")
        for key, section in (("neural_protocol", "policy"), ("environment", "environment")):
            assert common[key] == {k: data[section][k] for k in common[key]}, (algorithm, key)

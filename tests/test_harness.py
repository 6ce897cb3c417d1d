"""Tests for experiment orchestration, grids, and result emission."""

import dataclasses
import itertools
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from neuralbandit import harness, policies
from neuralbandit.confidence import NeuralWidth, RidgeWidth
from neuralbandit.network import NetworkShape
from neuralbandit.harness import (
    ConfigError,
    EnvironmentConfig,
    ExperimentConfig,
    PolicyConfig,
    emit_results,
    grid_search,
    run_experiment,
    run_single,
)


class OraclePolicy:
    """Plays argmax of the true mean reward of an environment fed raw contexts."""

    def __init__(self, environment):
        self.environment = environment

    def select(self, contexts):
        means = self.environment.mean_rewards(contexts)
        return int(np.argmax(means)), means

    def update(self, context, reward) -> None:
        pass


def linear_linucb_config(horizon=40, reps=2, seed=3, noise=0.1):
    return ExperimentConfig(
        environment=EnvironmentConfig(kind="linear", dimension=5, num_actions=4,
                                      horizon=horizon, noise_scale=noise),
        policy=PolicyConfig(algorithm="lin_ucb", gamma=1.0),
        repetitions=reps,
        base_seed=seed,
    )


def two_row_dataset_errors(tmp_path, **env_fields):
    """validate()'s errors for one round of random play with a two-row CSV as dataset_path."""
    path = tmp_path / "tiny.csv"
    path.write_text("a,b,label\n1,2,x\n3,4,y\n", encoding="utf-8")
    env = EnvironmentConfig(horizon=1, dataset_path=str(path), label_column="label", **env_fields)
    return ExperimentConfig(environment=env, policy=PolicyConfig(algorithm="random"),
                            repetitions=1).validate()


def tiny_neural_config(**env_overrides):
    env = dict(kind="h1", dimension=4, num_actions=3, horizon=20, noise_scale=0.5)
    env.update(env_overrides)
    return ExperimentConfig(
        environment=EnvironmentConfig(**env),
        policy=PolicyConfig(algorithm="neural_ucb", width=4, depth=2, gamma=0.1,
                            eta=1e-3, cadence=10, batch_size=None, j_steps=5),
        repetitions=2,
        base_seed=9,
    )


class TestRunExperiment:
    def test_oracle_policy_has_zero_regret_on_noiseless_environment(self):
        config = tiny_neural_config(noise_scale=0.0)
        factory = lambda env, rng: (OraclePolicy(env), False)
        results = run_experiment(config, policy_factory=factory)
        for res in results:
            assert np.all(res.instant_regret == 0.0)
            assert res.final_regret == 0.0

    def test_same_seed_gives_identical_trajectories(self):
        config = tiny_neural_config()
        first = run_experiment(config)
        second = run_experiment(config)
        for a, b in zip(first, second):
            assert np.array_equal(a.instant_regret, b.instant_regret)
            assert np.array_equal(a.cum_regret, b.cum_regret)

    def test_repetition_seeds_offset_from_base(self):
        results = run_experiment(linear_linucb_config(reps=3, seed=11))
        assert [r.seed for r in results] == [11, 12, 13]

    def test_cumulative_is_prefix_sum_and_nondecreasing(self):
        results = run_experiment(linear_linucb_config())
        for res in results:
            assert np.allclose(res.cum_regret, np.cumsum(res.instant_regret), atol=0)
            assert np.all(np.diff(res.cum_regret) >= 0.0)

    def test_repetition_does_not_depend_on_the_others(self):
        config = dataclasses.replace(tiny_neural_config(), repetitions=4)
        four = run_experiment(config)
        two = run_experiment(dataclasses.replace(config, repetitions=2))
        for a, b in zip(four[:2], two, strict=True):
            assert a.seed == b.seed
            assert np.array_equal(a.instant_regret, b.instant_regret)
            assert np.array_equal(a.cum_regret, b.cum_regret)

    def test_validation_errors_are_exhaustive(self):
        config = ExperimentConfig(
            environment=EnvironmentConfig(kind="h1", horizon=0, noise_scale=-1.0),
            policy=PolicyConfig(algorithm="neural_ucb", width=7),
            repetitions=0,
            base_seed=-1,
        )
        with pytest.raises(ConfigError) as exc_info:
            run_experiment(config)
        text = str(exc_info.value)
        assert "environment.horizon" in text
        assert "environment.noise_scale" in text
        assert "policy.width" in text
        assert "repetitions" in text
        assert "base_seed: must be >= 0, got -1" in text

    def test_dataset_horizon_longer_than_rows_rejected(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,label\n1,2,x\n3,4,y\n", encoding="utf-8")
        config = ExperimentConfig(
            environment=EnvironmentConfig(kind="dataset", dataset_path=str(path),
                                          label_column="label", horizon=5),
            policy=PolicyConfig(algorithm="random"),
            repetitions=1,
        )
        with pytest.raises(ConfigError, match="exceeds"):
            run_experiment(config)

    def test_random_policy_on_dataset_bandit(self, tmp_path):
        rng = np.random.default_rng(13)
        rows = ["a,b,label"] + [
            f"{rng.standard_normal():.4f},{rng.standard_normal():.4f},c{rng.integers(4)}"
            for _ in range(400)
        ]
        path = tmp_path / "synth.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = ExperimentConfig(
            environment=EnvironmentConfig(kind="dataset", dataset_path=str(path),
                                          label_column="label", horizon=400),
            policy=PolicyConfig(algorithm="random"),
            repetitions=3,
            base_seed=21,
        )
        results = run_experiment(config)
        mean_final = np.mean([r.final_regret for r in results])
        assert mean_final == pytest.approx(0.75 * 400, rel=0.12)

    def test_every_config_algorithm_runs(self, tmp_path):
        for algorithm in ("neural_ucb", "neural_greedy", "neural_ucb0",
                          "neural_greedy0", "lin_ucb", "kernel_ucb", "random"):
            config = ExperimentConfig(
                environment=EnvironmentConfig(kind="h3", dimension=4, num_actions=3,
                                              horizon=8, noise_scale=0.2),
                policy=PolicyConfig(algorithm=algorithm, width=4, depth=2,
                                    eta=1e-3, cadence=5, batch_size=None, j_steps=3),
                repetitions=1,
                base_seed=5,
            )
            results = run_experiment(config)
            assert results[0].instant_regret.shape == (8,)


# one out-of-range value per PolicyConfig field, and the fields each algorithm reads;
# preprocess=False is out of range for the odd dimension the test environment uses
BAD_POLICY_VALUES = {
    "width": 7, "depth": 1, "lam": 0.0, "design_mode": "sparse",
    "preprocess": False, "gamma": -1.0, "epsilon": 1.5,
    "nu": 0.0, "delta": 1.0, "s_norm": 0.0, "eta": 0.0, "j_steps": -1,
    "batch_size": 0, "cadence": 0, "train_start": -1, "kernel_bandwidth": 0.0,
    "kernel_cap": 0,
}
NETWORK_FIELDS = ("width", "depth", "lam", "preprocess")
DESIGN_FIELDS = ("design_mode",)
TRAINING_FIELDS = ("eta", "j_steps", "batch_size", "cadence", "train_start")
FIELDS_READ = {
    "neural_ucb": NETWORK_FIELDS + DESIGN_FIELDS + TRAINING_FIELDS + ("gamma",),
    "neural_greedy": NETWORK_FIELDS + TRAINING_FIELDS + ("epsilon",),
    "neural_ucb0": NETWORK_FIELDS + DESIGN_FIELDS + ("nu", "delta", "s_norm"),
    "neural_greedy0": NETWORK_FIELDS + DESIGN_FIELDS + ("epsilon",),
    "lin_ucb": ("lam", "gamma"),
    "kernel_ucb": ("lam", "kernel_bandwidth", "gamma", "kernel_cap"),
    "random": (),
}


PAPER_CONFIGS = Path(__file__).resolve().parent.parent / "configs" / "paper"


# a non-integer value for each integer PolicyConfig field; some pass the range checks
NON_INTEGER_POLICY_VALUES = {
    "width": 4.0, "depth": 2.5, "j_steps": 3.0, "batch_size": 2.5,
    "cadence": 2.5, "train_start": True, "kernel_cap": 10.0,
}


# the real-valued PolicyConfig fields; each must be a finite number
REAL_POLICY_FIELDS = ("lam", "gamma", "epsilon", "nu", "delta", "s_norm", "eta",
                      "kernel_bandwidth")
NON_FINITE_OR_NON_NUMBER = {"nan": (math.nan, "must be finite"),
                            "inf": (math.inf, "must be finite"),
                            "huge-int": (10**400, "must be finite"),
                            "string": ("0.5", "must be a real number")}


def policy_errors(algorithm, field_name, value):
    policy = PolicyConfig(algorithm=algorithm, **{field_name: value})
    config = ExperimentConfig(
        environment=EnvironmentConfig(kind="h1", dimension=5, horizon=5),
        policy=policy, repetitions=1,
    )
    return config.validate()


# <section>.<field>: <rule>, or <field>: <rule> for a top-level field
FIELD_ERROR = re.compile(r"^((environment|policy)\.)?(\w+): (.*)$")


class TestValidation:
    # harness rules, constructor checks under the field's own name and under
    # another name (the constructor parameter is last), and top-level rules
    @pytest.mark.parametrize("fields,field_name,parameter", [
        pytest.param({"environment": EnvironmentConfig(horizon=0)}, "horizon", "horizon",
                     id="horizon"),
        pytest.param({"environment": EnvironmentConfig(horizon="5")}, "horizon", "horizon",
                     id="string-horizon"),
        pytest.param({"environment": EnvironmentConfig(noise_scale=-1.0)}, "noise_scale",
                     "noise_scale", id="noise-scale"),
        pytest.param({"policy": PolicyConfig(cadence=0)}, "cadence", "cadence", id="cadence"),
        pytest.param({"policy": PolicyConfig(algorithm="kernel_ucb", kernel_cap=0)},
                     "kernel_cap", "cap", id="kernel-cap"),
        pytest.param({"policy": PolicyConfig(algorithm="kernel_ucb", kernel_bandwidth=1e-200)},
                     "kernel_bandwidth", "bandwidth", id="kernel-bandwidth-square-underflows"),
        pytest.param({"policy": PolicyConfig(design_mode="sparse")}, "design_mode", "mode",
                     id="design-mode"),
        pytest.param({"repetitions": 0}, "repetitions", "repetitions", id="repetitions"),
        pytest.param({"base_seed": -1}, "base_seed", "base_seed", id="base-seed"),
        pytest.param({"base_seed": True}, "base_seed", "base_seed", id="bool-base-seed"),
    ])
    def test_every_error_reads_field_colon_rule(self, fields, field_name, parameter):
        config = ExperimentConfig(**{"environment": EnvironmentConfig(dimension=4, horizon=5),
                                     "repetitions": 1, **fields})
        with pytest.raises(ConfigError) as exc_info:
            run_experiment(config)
        (error,) = exc_info.value.errors
        match = FIELD_ERROR.match(error)
        assert match and match.group(3) == field_name, error
        assert not {field_name, parameter} & set(re.findall(r"\w+", match.group(4))), error

    def test_every_policy_field_is_read_by_some_algorithm(self):
        read = set(itertools.chain.from_iterable(FIELDS_READ.values()))
        fields = {f.name for f in dataclasses.fields(PolicyConfig)} - {"algorithm"}
        assert read == fields == set(BAD_POLICY_VALUES)

    @pytest.mark.parametrize("algorithm", FIELDS_READ)
    def test_paper_config_sets_only_fields_its_algorithm_reads(self, algorithm):
        data = json.loads((PAPER_CONFIGS / f"{algorithm}.json").read_text(encoding="utf-8"))
        assert set(data["policy"]) - {"algorithm"} <= set(FIELDS_READ[algorithm])

    @pytest.mark.parametrize("algorithm,field_name", [
        (algorithm, name) for algorithm, names in FIELDS_READ.items() for name in names
    ])
    def test_out_of_range_field_is_named(self, algorithm, field_name):
        errors = policy_errors(algorithm, field_name, BAD_POLICY_VALUES[field_name])
        assert len(errors) == 1 and f"policy.{field_name}" in errors[0], errors

    @pytest.mark.parametrize("algorithm,field_name", [
        (algorithm, name) for algorithm, names in FIELDS_READ.items() for name in names
        if name in NON_INTEGER_POLICY_VALUES
    ])
    def test_non_integer_count_field_is_named(self, algorithm, field_name):
        errors = policy_errors(algorithm, field_name, NON_INTEGER_POLICY_VALUES[field_name])
        assert len(errors) == 1 and f"policy.{field_name}" in errors[0], errors
        assert "must be an integer" in errors[0]

    @pytest.mark.parametrize("algorithm,field_name,kind", [
        (algorithm, name, kind) for algorithm, names in FIELDS_READ.items() for name in names
        if name in REAL_POLICY_FIELDS for kind in NON_FINITE_OR_NON_NUMBER
        # an infinite kernel bandwidth is the constant-kernel limit KernelUCB accepts
        if (name, kind) != ("kernel_bandwidth", "inf")
    ])
    def test_non_finite_or_non_number_real_field_is_named(self, algorithm, field_name, kind):
        value, message = NON_FINITE_OR_NON_NUMBER[kind]
        errors = policy_errors(algorithm, field_name, value)
        assert len(errors) == 1 and f"policy.{field_name}" in errors[0], errors
        assert message in errors[0]

    @pytest.mark.parametrize("algorithm", FIELDS_READ)
    @pytest.mark.parametrize("value", ["false", 0, 1])
    def test_non_bool_preprocess_is_named(self, algorithm, value):
        errors = policy_errors(algorithm, "preprocess", value)
        assert errors == [f"policy.preprocess: must be true or false, got {value!r}"]

    @pytest.mark.parametrize("kind", ["h1", "dataset"])
    def test_non_bool_shuffle_is_named(self, kind, tmp_path):
        errors = two_row_dataset_errors(tmp_path, kind=kind, shuffle="no")
        assert errors == ["environment.shuffle: must be true or false, got 'no'"]

    @pytest.mark.parametrize("field_name,value", [
        ("noise_scale", "abc"), ("dimension", -3), ("num_actions", 2.5)])
    def test_dataset_rejects_a_synthetic_only_value(self, field_name, value, tmp_path):
        errors = two_row_dataset_errors(tmp_path, kind="dataset", **{field_name: value})
        assert len(errors) == 1 and errors[0].startswith(f"environment.{field_name}:"), errors

    @pytest.mark.parametrize("policy_fields,field_name,message", [
        pytest.param({"nu": math.nan}, "policy.nu", "must be finite", id="policy-nan-nu"),
        pytest.param({"nu": 0.0}, "policy.nu", "must be positive", id="policy-zero-nu"),
        pytest.param({"delta": 2.0}, "policy.delta", "must lie in (0, 1)", id="policy-delta"),
        pytest.param({"s_norm": "1"}, "policy.s_norm", "must be a real number",
                     id="policy-string-s-norm"),
        pytest.param({"lam": math.inf}, "policy.lam", "must be finite", id="policy-inf-lam"),
        pytest.param({"eta": math.nan}, "policy.eta", "must be finite", id="policy-nan-eta"),
        pytest.param({"j_steps": -1}, "policy.j_steps", "must be >= 0", id="policy-j-steps"),
        pytest.param({"eta": 1.0}, "policy.eta", "eta*width*lam", id="policy-step-too-large"),
        pytest.param({"lam": 1e-190}, "policy.lam", "lam^(-5/3) is finite",
                     id="policy-lam-powers-overflow"),
        pytest.param({"lam": 1e-150}, "policy.lam", "the width is finite at t = 5",
                     id="policy-width-infinite-by-the-horizon"),
    ])
    def test_theoretical_width_error_names_the_policy_field(self, policy_fields,
                                                           field_name, message):
        config = ExperimentConfig(
            environment=EnvironmentConfig(kind="h1", dimension=4, horizon=5),
            policy=PolicyConfig(algorithm="neural_ucb", gamma=None, **policy_fields),
            repetitions=1,
        )
        errors = config.validate()
        assert len(errors) == 1 and errors[0].startswith(field_name), errors
        assert message in errors[0], errors

    # at lam = 1e-140 the width is finite through round 5 and overflows by round
    # 2000; a horizon that is not a round count is reported alone
    @pytest.mark.parametrize("horizon,expected", [
        (5, []),
        (2000, ["policy.lam: must be large enough that the width is finite at t = 2000, "
                "got 1e-140 (width inf)"]),
        ("2000", ["environment.horizon: must be an integer, got '2000'"]),
    ])
    def test_theoretical_width_is_checked_at_the_horizon(self, horizon, expected):
        config = ExperimentConfig(
            environment=EnvironmentConfig(kind="h1", dimension=4, horizon=horizon),
            policy=PolicyConfig(algorithm="neural_ucb", gamma=None, lam=1e-140),
            repetitions=1,
        )
        assert config.validate() == expected

    @pytest.mark.parametrize("fields", [
        pytest.param({}, id="defaults"),
        pytest.param({"j_steps": 30, "lam": 0.5, "nu": 0.3, "s_norm": 2.0}, id="policy-fields"),
    ])
    def test_null_gamma_builds_the_theoretical_width_from_the_policy_fields(self, fields):
        policy = PolicyConfig(algorithm="neural_ucb", width=4, gamma=None, **fields)
        built = harness._build_policy(policy, SimpleNamespace(d=2), np.random.default_rng(0))
        expected = NeuralWidth(RidgeWidth(policy.nu, policy.delta, policy.s_norm, policy.lam),
                               NetworkShape(input_dim=4, width=policy.width, depth=policy.depth),
                               harness._training_config(policy))
        assert isinstance(built.width_provider, NeuralWidth)
        assert built.gamma == expected(0, 0.0)
        assert built.width_provider(7, 1.5) == expected(7, 1.5)


class TestEmitResults:
    def test_round_count_and_prefix_sums(self, tmp_path):
        results = run_experiment(linear_linucb_config(horizon=3, reps=2))
        files = emit_results(results, tmp_path)
        lines = files[0].read_text().strip().splitlines()
        assert lines[0] == "round,rep,instant_regret,cum_regret"
        assert len(lines) == 1 + 3 * 2
        running = 0.0
        for line in lines[1:4]:
            _, rep, instant, cum = line.split(",")
            assert rep == "0"
            running += float(instant)
            assert float(cum) == pytest.approx(running, rel=1e-10)

    def test_reemission_is_byte_identical(self, tmp_path):
        config = linear_linucb_config()
        results = run_experiment(config)
        first = emit_results(results, tmp_path / "a")
        second = emit_results(run_experiment(config), tmp_path / "b")
        for f1, f2 in zip(first, second):
            assert f1.read_bytes() == f2.read_bytes()

    def test_config_snapshot_contains_seeds(self, tmp_path):
        results = run_experiment(linear_linucb_config(reps=2, seed=30))
        files = emit_results(results, tmp_path)
        snapshot = json.loads(files[2].read_text())
        assert snapshot["seeds"] == [30, 31]
        assert snapshot["policy"]["algorithm"] == "lin_ucb"
        assert snapshot["policy"]["preprocess"] is False

    def test_summary_row(self, tmp_path):
        results = run_experiment(linear_linucb_config(reps=2))
        files = emit_results(results, tmp_path)
        header, row = files[1].read_text().strip().splitlines()
        assert header.startswith("algorithm,repetitions,horizon")
        cells = row.split(",")
        assert cells[0] == "lin_ucb"
        assert cells[1] == "2"
        finals = [r.final_regret for r in results]
        assert float(cells[3]) == pytest.approx(np.mean(finals), rel=1e-10)


class TestGridSearch:
    def test_single_point_grid_returns_that_config(self):
        config = linear_linucb_config(horizon=10, reps=1)
        best, table = grid_search(config, {"policy.gamma": [0.5]})
        assert best.policy.gamma == 0.5
        assert len(table) == 1
        assert table[0].overrides == {"policy.gamma": 0.5}

    def test_best_has_minimal_mean_and_appears_in_table(self):
        config = linear_linucb_config(horizon=30, reps=2)
        best, table = grid_search(config, {"policy.gamma": [0.1, 1.0, 10.0]})
        means = [e.mean_final_regret for e in table]
        winner = table[int(np.argmin(means))]
        assert best.policy.gamma == winner.overrides["policy.gamma"]
        assert winner.mean_final_regret == min(means)

    def test_duplicate_grid_points_resolve_to_first(self):
        config = linear_linucb_config(horizon=10, reps=1)
        best, table = grid_search(config, {"policy.gamma": [0.7, 0.7]})
        assert len(table) == 2
        assert table[0].mean_final_regret == table[1].mean_final_regret
        assert best.policy.gamma == 0.7

    def test_cap_exceeded_names_product_size(self):
        config = linear_linucb_config()
        grid = {"policy.gamma": list(np.linspace(0.1, 1.0, 20)),
                "policy.lam": list(np.linspace(0.5, 2.0, 20))}
        with pytest.raises(ConfigError, match="400"):
            grid_search(config, grid)

    def test_unknown_parameter_path_rejected(self):
        config = linear_linucb_config()
        with pytest.raises(ConfigError, match="parameter path"):
            grid_search(config, {"policy.no_such_knob": [1]})

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            grid_search(linear_linucb_config(), {})

    @staticmethod
    def _no_run(*args, **kwargs):
        raise AssertionError("run_single called before the grid was validated")

    def test_invalid_combination_stops_the_grid_before_any_run(self, monkeypatch):
        monkeypatch.setattr(harness, "run_single", self._no_run)
        with pytest.raises(ConfigError) as exc_info:
            grid_search(tiny_neural_config(), {"policy.width": [4, 7],
                                               "policy.cadence": [10, 0]})
        errors = exc_info.value.errors
        assert len(errors) == 3, errors
        assert errors[0].startswith("grid {'policy.width': 4, 'policy.cadence': 0}: "
                                    "policy.cadence")
        assert errors[1].startswith("grid {'policy.width': 7, 'policy.cadence': 10}: "
                                    "policy.width")
        assert errors[2].startswith("grid {'policy.width': 7, 'policy.cadence': 0}: ")

    def test_dataset_horizon_beyond_the_rows_stops_the_grid_before_any_run(
            self, tmp_path, monkeypatch):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,label\n1,2,x\n3,4,y\n", encoding="utf-8")
        config = ExperimentConfig(
            environment=EnvironmentConfig(kind="dataset", dataset_path=str(path),
                                          label_column="label", horizon=2),
            policy=PolicyConfig(algorithm="random"), repetitions=1,
        )
        monkeypatch.setattr(harness, "run_single", self._no_run)
        with pytest.raises(ConfigError) as exc_info:
            grid_search(config, {"environment.horizon": [2, 5]})
        assert exc_info.value.errors == [
            "grid {'environment.horizon': 5}: environment.horizon: 5 exceeds the "
            "dataset's 2 rows"]

    def test_each_combination_reads_its_dataset_once(self, tmp_path, monkeypatch):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,label\n1,2,x\n3,4,y\n4,1,x\n", encoding="utf-8")
        config = ExperimentConfig(
            environment=EnvironmentConfig(kind="dataset", dataset_path=str(path),
                                          label_column="label", horizon=3),
            policy=PolicyConfig(algorithm="random"), repetitions=2,
        )
        reads = []
        load_csv = harness.environments.load_csv
        monkeypatch.setattr(harness.environments, "load_csv",
                            lambda *args: reads.append(args) or load_csv(*args))
        _, table = grid_search(config, {"environment.horizon": [2, 3],
                                        "environment.shuffle": [True, False]})
        assert [e.error for e in table] == [None] * 4
        assert len(reads) == 1

    def test_top_level_paths_set_the_seed_and_the_repetitions(self):
        config = linear_linucb_config(horizon=10, reps=1)
        _, table = grid_search(config, {"base_seed": [3, 4], "repetitions": [1, 2]})
        assert [e.overrides for e in table] == [
            {"base_seed": seed, "repetitions": reps} for seed in (3, 4) for reps in (1, 2)]
        for entry in table:
            cfg = dataclasses.replace(config, **entry.overrides)
            finals = [run_single(cfg, rep).final_regret for rep in range(cfg.repetitions)]
            assert entry.mean_final_regret == np.mean(finals)
        assert table[0].mean_final_regret != table[2].mean_final_regret

    def test_every_combination_diverging_raises_the_first_divergence(self):
        config = dataclasses.replace(tiny_neural_config(), repetitions=1)
        with pytest.raises(policies.DivergenceError, match=r"\(eta=50\.0\)$"):
            grid_search(config, {"policy.eta": [50.0, 60.0]})

    def test_nested_environment_override(self):
        config = linear_linucb_config(horizon=10, reps=1)
        best, table = grid_search(config, {"environment.noise_scale": [0.0, 0.5]})
        assert len(table) == 2
        assert best.environment.noise_scale in (0.0, 0.5)


class TestConfigSerialization:
    def test_from_dict_round_trip(self):
        data = {
            "environment": {"kind": "h2", "dimension": 6, "num_actions": 5,
                            "horizon": 100, "noise_scale": 0.3},
            "policy": {"algorithm": "neural_greedy", "width": 8, "epsilon": 0.05},
            "repetitions": 4,
            "base_seed": 17,
        }
        config = ExperimentConfig.from_dict(data)
        assert config.environment.kind == "h2"
        assert config.policy.epsilon == 0.05
        assert config.repetitions == 4
        snapshot = config.to_dict()
        assert snapshot["policy"]["preprocess"] is True

    def test_unknown_keys_rejected_with_paths(self):
        data = {"environment": {"kind": "h1", "horizont": 5},
                "policy": {"algorithm": "lin_ucb", "alhpa": 2},
                "bogus": 1}
        with pytest.raises(ConfigError) as exc_info:
            ExperimentConfig.from_dict(data)
        text = str(exc_info.value)
        assert "environment.horizont" in text
        assert "policy.alhpa" in text
        assert "bogus" in text

    def test_preprocess_override_survives(self):
        config = ExperimentConfig.from_dict({
            "environment": {"kind": "h1", "horizon": 5},
            "policy": {"algorithm": "lin_ucb", "preprocess": True},
        })
        assert config.policy.resolved_preprocess() is True


class TestRunSingle:
    def test_wall_clock_recorded(self):
        res = run_single(linear_linucb_config(horizon=5, reps=1), 0)
        assert res.wall_clock > 0.0
        assert res.seed == 3

    def test_a_horizon_too_large_to_allocate_still_plays(self):
        class Stop(Exception):
            pass

        class StopAtThirdUpdate(OraclePolicy):
            updates = 0

            def update(self, context, reward) -> None:
                self.updates += 1
                if self.updates == 3:
                    raise Stop

        factory = lambda env, rng: (StopAtThirdUpdate(env), False)
        with pytest.raises(Stop):
            run_single(tiny_neural_config(horizon=10**40), 0, policy_factory=factory)

    def test_secret_shared_across_reps(self):
        config = tiny_neural_config()
        # identical reward functions mean identical oracle means per context
        factory = lambda env, rng: (OraclePolicy(env), False)
        r0 = run_single(config, 0, policy_factory=factory)
        r1 = run_single(config, 1, policy_factory=factory)
        assert r0.seed != r1.seed
        # different context streams, but both runs are valid oracle runs
        assert r0.final_regret == r1.final_regret == 0.0

"""Experiment orchestration: configs, seeded runs, grids, and result files.

A run is defined by a JSON-serializable ExperimentConfig.  Repetition i uses
seed base_seed + i for its context/noise and policy streams, while the
environment's hidden reward parameters are drawn from a stream keyed by the
base seed alone, so all repetitions share one reward function.  Regret is
recorded against the true means (pseudo-regret), never the noisy rewards.

Validation builds the configured environment and policy through the same
constructors a run uses, so their checks are the only copy of those rules.
"""

import csv
import dataclasses
import itertools
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from neuralbandit import environments, policies
from neuralbandit.confidence import NeuralWidth, RidgeWidth
from neuralbandit.network import NetworkShape, check_flag, check_integer, check_real, check_string

__all__ = [
    "EnvironmentConfig",
    "PolicyConfig",
    "ExperimentConfig",
    "RunResult",
    "GridEntry",
    "ConfigError",
    "run_experiment",
    "run_single",
    "grid_search",
    "emit_results",
    "emit_grid_table",
]

GRID_CAP = 256

NEURAL_ALGORITHMS = ("neural_ucb", "neural_greedy", "neural_ucb0", "neural_greedy0")
ALGORITHMS = NEURAL_ALGORITHMS + ("lin_ucb", "kernel_ucb", "random")


class ConfigError(ValueError):
    """Raised with the complete list of configuration problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"- {e}" for e in self.errors))


@dataclass(frozen=True)
class EnvironmentConfig:
    kind: str = "h1"
    dimension: int = 20
    num_actions: int = 4
    horizon: int = 2000
    noise_scale: float = 1.0
    dataset_path: str | None = None
    label_column: str | None = None
    shuffle: bool = True

    def validate(self) -> list:
        """The problems no environment constructor sees; _checked builds one for the rest."""
        errors = []
        kinds = environments.SYNTHETIC_KINDS + ("dataset",)
        if self.kind not in kinds:
            errors.append(f"environment.kind: unknown kind {self.kind!r}, choose from {kinds}")
        errors += _rule_errors("environment", self, [
            (check_integer, "horizon", 1), (check_flag, "shuffle"),
            (check_string, "dataset_path"), (check_string, "label_column")])
        if self.kind == "dataset":
            if not self.dataset_path:
                errors.append("environment.dataset_path: required for dataset environments")
            elif isinstance(self.dataset_path, str) and not Path(self.dataset_path).is_file():
                errors.append(f"environment.dataset_path: no such file {self.dataset_path!r}")
            if not self.label_column:
                errors.append("environment.label_column: required for dataset environments")
            # the CSV decides these, so another value would only be copied into config.json
            for name in ("dimension", "num_actions", "noise_scale"):
                value, default = getattr(self, name), _ENVIRONMENT_DEFAULTS[name]
                if type(value) is not type(default) or value != default:
                    errors.append(f"environment.{name}: not used by dataset environments, "
                                  f"leave it at {default!r}, got {value!r}")
        return errors


@dataclass(frozen=True)
class PolicyConfig:
    algorithm: str = "neural_ucb"
    # network
    width: int = 20
    depth: int = 2
    lam: float = 1.0
    design_mode: str = "full"
    preprocess: bool | None = None  # None: on for neural algorithms, off otherwise
    # exploration
    gamma: float | None = 0.1  # every UCB width; null gives each UCB its theoretical one
    epsilon: float = 0.1
    nu: float = 1.0
    delta: float = 0.1
    s_norm: float = 1.0
    # training
    eta: float = 0.01
    j_steps: int | None = None
    batch_size: int | None = 50
    cadence: int = 50
    train_start: int = 0
    # kernel
    kernel_bandwidth: float = 1.0
    kernel_cap: int = 1000

    def resolved_preprocess(self) -> bool:
        if self.preprocess is not None:
            return self.preprocess
        return self.algorithm in NEURAL_ALGORITHMS


@dataclass(frozen=True)
class ExperimentConfig:
    environment: EnvironmentConfig = field(default_factory=EnvironmentConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    repetitions: int = 10
    base_seed: int = 0

    def validate(self) -> list:
        """Every problem with the config; a dataset environment's CSV is read."""
        return _checked(self)[1]

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["policy"]["preprocess"] = self.policy.resolved_preprocess()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(["config root must be a JSON object"])
        known = {f.name for f in dataclasses.fields(cls)}
        errors = [f"{key}: unknown key" for key in data if key not in known]
        env = _dataclass_from_dict(EnvironmentConfig, data.get("environment", {}), "environment", errors)
        pol = _dataclass_from_dict(PolicyConfig, data.get("policy", {}), "policy", errors)
        if errors:
            raise ConfigError(errors)
        return cls(**{**data, "environment": env, "policy": pol})


def _dataclass_from_dict(cls, data, prefix, errors):
    if not isinstance(data, dict):
        errors.append(f"{prefix}: must be a JSON object")
        return cls()
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = [k for k in data if k not in known]
    errors.extend(f"{prefix}.{k}: unknown key" for k in unknown)
    return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class RunResult:
    """One repetition's regret trajectory plus provenance."""

    instant_regret: np.ndarray
    cum_regret: np.ndarray
    wall_clock: float
    seed: int
    config: dict

    @property
    def final_regret(self) -> float:
        return float(self.cum_regret[-1])


def _secret_rng(base_seed: int) -> np.random.Generator:
    return np.random.default_rng([base_seed, 0x5EC])


def _build_environment(cfg: EnvironmentConfig, rng, secret_rng, dataset=None):
    if cfg.kind == "dataset":
        if dataset is None:
            dataset = environments.load_csv(cfg.dataset_path, cfg.label_column)
        return environments.DatasetBandit(
            dataset.features, dataset.labels, dataset.num_classes,
            rng=rng if cfg.shuffle else None,
        )
    return environments.SyntheticBandit(
        cfg.kind, cfg.dimension, cfg.num_actions, cfg.noise_scale, rng,
        secret_rng=secret_rng,
    )


def _build_policy(cfg: PolicyConfig, env, rng):
    algo = cfg.algorithm
    dim = 2 * env.d if cfg.resolved_preprocess() else env.d
    if algo == "random":
        return policies.UniformRandomPolicy(rng)
    if algo == "kernel_ucb":
        check_real("gamma", cfg.gamma, low=0)  # no kernel schedule; null would leave it greedy
        return policies.KernelUCB(cfg.kernel_bandwidth, cfg.gamma, lam=cfg.lam,
                                  cap=cfg.kernel_cap)
    # a number is a constant width, and null the algorithm's schedule; the
    # greedy algorithms play the config's epsilon with no width
    width, epsilon = cfg.gamma, 0.0
    if algo in ("neural_greedy", "neural_greedy0"):
        width, epsilon = None, cfg.epsilon
    elif width is None:
        width = RidgeWidth(cfg.nu, cfg.delta, cfg.s_norm, cfg.lam)  # OFUL's, for lin_ucb
    if algo == "lin_ucb":
        return policies.NeuralUCB0(lambda x: x, dim, cfg.lam, width)
    shape = NetworkShape(input_dim=dim, width=cfg.width, depth=cfg.depth)
    if algo in ("neural_ucb", "neural_greedy"):
        if isinstance(width, RidgeWidth):  # neural_ucb's schedule inflates the ridge width
            width = NeuralWidth(width, shape, cfg.eta, cfg.j_steps)
        return policies.NeuralUCB(shape, cfg.lam, width, rng, eta=cfg.eta, j_steps=cfg.j_steps,
                                  batch_size=cfg.batch_size, cadence=cfg.cadence,
                                  train_start=cfg.train_start, design_mode=cfg.design_mode,
                                  epsilon=epsilon)
    if algo in ("neural_ucb0", "neural_greedy0"):
        return policies.NeuralUCB0(*policies.gradient_feature_map(shape, rng), cfg.lam, width,
                                   design_mode=cfg.design_mode, epsilon=epsilon, rng=rng)
    raise ConfigError([f"policy.algorithm: unknown algorithm {algo!r}"])


def _checked(config: ExperimentConfig, datasets=None) -> tuple:
    """(the dataset environment's loaded CSV or None, every config problem).

    The environment and the policy are built as a run builds them, so their
    constructors' checks are the only copy of their rules.  The seed does not
    matter to any check, so a fixed one is used.  A CSV found in datasets,
    keyed by (path, label column), is not read again; one that is read is
    added to it.
    """
    datasets = {} if datasets is None else datasets
    env = config.environment
    errors = env.validate()
    dataset = None
    if env.kind == "dataset" and not errors:
        key = (env.dataset_path, env.label_column)
        try:
            dataset = datasets[key] if key in datasets else environments.load_csv(*key)
        except (ValueError, OSError) as exc:
            errors.append(f"environment.dataset_path: {exc}")
        else:
            datasets[key] = dataset
            rows = dataset.features.shape[0]
            if env.horizon > rows:
                errors.append(f"environment.horizon: {env.horizon} exceeds the dataset's "
                              f"{rows} rows")
    built = None
    if env.kind in environments.SYNTHETIC_KINDS or dataset is not None:
        rng = np.random.default_rng(0)
        try:
            built = _build_environment(env, rng, rng, dataset)
        except (TypeError, ValueError) as exc:
            errors.append(_field_error("environment", exc, _ENVIRONMENT_FIELDS,
                                       {"d": "dimension"}))
    # a horizon with its own error stands in as round 1 for the policy's checks
    horizon = 1 if any(e.startswith("environment.horizon:") for e in errors) else env.horizon
    errors += _policy_errors(config.policy, built, horizon)
    errors += _rule_errors(None, config, [
        (check_integer, "repetitions", 1), (check_integer, "base_seed", 0)])
    return dataset, errors


_ENVIRONMENT_FIELDS = frozenset(f.name for f in dataclasses.fields(EnvironmentConfig))
_ENVIRONMENT_DEFAULTS = {f.name: f.default for f in dataclasses.fields(EnvironmentConfig)}
_POLICY_FIELDS = frozenset(f.name for f in dataclasses.fields(PolicyConfig))
# constructor parameters whose PolicyConfig field has another name
_RENAMED_FIELDS = {"input_dim": "preprocess", "mode": "design_mode",
                   "bandwidth": "kernel_bandwidth", "cap": "kernel_cap"}


def _field_error(section, exc, fields, renamed) -> str:
    """A checker's error as `<section>.<field>: <rule>`, or `<field>: <rule>` with no section.

    Checker messages start with the parameter they reject, which names the
    field directly or through renamed; the name is dropped from the rule when
    a space follows it.  A message that names no field is kept whole.
    """
    message = str(exc)
    name = re.match(r"\w*", message).group()
    field_name = renamed.get(name, name)
    if field_name not in fields:
        return f"{section}: {message}"
    if message[len(name):].startswith(" "):
        message = message[len(name) + 1:]
    return f"{section}.{field_name}: {message}" if section else f"{field_name}: {message}"


def _rule_errors(section, config, rules) -> list:
    """The errors of each (checker, field, *bound) rule on the config's field value.

    A field whose default is None may be left None.
    """
    errors = []
    defaults = {f.name: f.default for f in dataclasses.fields(config)}
    for check, name, *bound in rules:
        value = getattr(config, name)
        if value is None and defaults[name] is None:
            continue
        try:
            check(name, value, *bound)
        except (TypeError, ValueError) as exc:
            errors.append(_field_error(section, exc, {name}, {}))
    return errors


def _policy_errors(policy: PolicyConfig, environment, horizon: int) -> list:
    """What the constructors of the policy a run would build on environment reject."""
    if policy.algorithm not in ALGORITHMS:
        return [f"policy.algorithm: unknown algorithm {policy.algorithm!r}, choose from {ALGORITHMS}"]
    # an environment that could not be built is an environment error, and a
    # context dimension of 2 stands in for it since it passes every dimension check
    if environment is None:
        environment = SimpleNamespace(d=2)
    # checked for every algorithm, since kernel_ucb and random never read it; a
    # non-bool leaves the input dimension unknown, so nothing is built
    errors = _rule_errors("policy", policy, [(check_flag, "preprocess")])
    if errors:
        return errors
    try:
        built = _build_policy(policy, environment, np.random.default_rng(0))
        # every term of a schedule is nondecreasing in the round, so the
        # horizon, at a zero log-det, stands for every earlier round
        if built.schedule is not None:
            built.schedule(horizon, 0.0)
    except (TypeError, ValueError) as exc:
        return [_field_error("policy", exc, _POLICY_FIELDS, _RENAMED_FIELDS)]
    return []


def run_single(config: ExperimentConfig, rep: int, dataset=None,
               policy_factory=None) -> RunResult:
    """Run one repetition; rep i is seeded with base_seed + i."""
    seed = config.base_seed + rep
    env_rng = np.random.default_rng([seed, 0])
    policy_rng = np.random.default_rng([seed, 1])
    env = _build_environment(config.environment, env_rng, _secret_rng(config.base_seed),
                             dataset=dataset)
    if policy_factory is not None:
        policy, preprocess = policy_factory(env, policy_rng)
    else:
        policy = _build_policy(config.policy, env, policy_rng)
        preprocess = config.policy.resolved_preprocess()
    regrets = []
    start = time.perf_counter()
    for _ in range(config.environment.horizon):
        contexts = env.next_round()
        means = env.mean_rewards(contexts)
        feats = environments.preprocess_batch(contexts) if preprocess else contexts
        action, _ = policy.select(feats)
        reward = env.noisy_reward(float(means[action]))
        policy.update(feats[action], reward)
        regrets.append(float(np.max(means) - means[action]))
    elapsed = time.perf_counter() - start
    instant = np.array(regrets)
    snapshot = config.to_dict()
    snapshot["seed"] = seed
    return RunResult(
        instant_regret=instant,
        cum_regret=np.cumsum(instant),
        wall_clock=elapsed,
        seed=seed,
        config=snapshot,
    )


def run_experiment(config: ExperimentConfig, policy_factory=None) -> list:
    """Run every repetition in order on the calling thread; result i is repetition i."""
    dataset, errors = _checked(config)
    if errors:
        raise ConfigError(errors)
    return [run_single(config, rep, dataset=dataset, policy_factory=policy_factory)
            for rep in range(config.repetitions)]


@dataclass
class GridEntry:
    """One grid combination; a diverged one has nan statistics and its error."""

    overrides: dict
    mean_final_regret: float
    std_final_regret: float
    error: str | None = None
    best: bool = False


def _apply_override(config: ExperimentConfig, path: str, value) -> ExperimentConfig:
    """config with the field at path set to value; a path names one field, not a section."""
    parts = path.split(".")
    if len(parts) == 1 and parts[0] in ("repetitions", "base_seed"):
        return dataclasses.replace(config, **{parts[0]: value})
    if len(parts) == 2 and parts[0] in ("environment", "policy"):
        section = getattr(config, parts[0])
        if parts[1] in {f.name for f in dataclasses.fields(section)}:
            section = dataclasses.replace(section, **{parts[1]: value})
            return dataclasses.replace(config, **{parts[0]: section})
    raise ConfigError([f"grid: unknown parameter path {path!r}"])


def grid_search(config: ExperimentConfig, grid: dict):
    """Evaluate the cross product of a parameter grid.

    Returns (best_config, table).  Every combination is validated before any
    runs, and the problems of each invalid one are raised together, named by
    its overrides; a dataset read by validation is kept for the runs.  Best
    is the combination with the lowest mean final cumulative regret; ties go
    to the earliest combination in declared order.
    A combination whose training diverges, or whose design breaks with a
    LinAlgError, is kept in the table with nan statistics and does not stop
    the others; if every one fails, the first error is raised.
    """
    if not grid:
        raise ConfigError(["grid: must contain at least one parameter"])
    for path, values in grid.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError([f"grid: values for {path!r} must be a nonempty list"])
    size = math.prod(len(v) for v in grid.values())
    if size > GRID_CAP:
        raise ConfigError([f"grid: cross product has {size} combinations, cap is {GRID_CAP}"])
    paths = list(grid)
    combos = []
    errors = []
    datasets = {}  # each CSV is read and kept once, however many combinations use it
    for combo in itertools.product(*(grid[p] for p in paths)):
        cfg = config
        for path, value in zip(paths, combo):
            cfg = _apply_override(cfg, path, value)
        overrides = dict(zip(paths, combo))
        dataset, problems = _checked(cfg, datasets)
        errors += [f"grid {overrides}: {e}" for e in problems]
        combos.append((overrides, cfg, dataset))
    if errors:
        raise ConfigError(errors)
    table = []
    best = None
    best_config = None
    first_error = None
    for overrides, cfg, dataset in combos:
        try:
            finals = np.array([run_single(cfg, rep, dataset=dataset).final_regret
                               for rep in range(cfg.repetitions)])
            entry = GridEntry(overrides, float(finals.mean()), float(finals.std()))
        except (policies.DivergenceError, np.linalg.LinAlgError) as exc:
            first_error = first_error or exc
            entry = GridEntry(overrides, math.nan, math.nan, error=str(exc))
        table.append(entry)
        # a nan or infinite mean never compares below the bar
        if entry.mean_final_regret < (best.mean_final_regret if best else math.inf):
            best = entry
            best_config = cfg
    if best is None:
        raise first_error
    best.best = True
    return best_config, table


def _fmt(x: float) -> str:
    return "%.12g" % x


def emit_results(results: list, out_dir, label: str | None = None) -> list:
    """Write rounds.csv, summary.csv and config.json; byte-stable for fixed inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not results:
        raise ValueError("no results to emit")
    if label is None:
        label = results[0].config.get("policy", {}).get("algorithm", "unknown")

    rounds_path = out / "rounds.csv"
    with open(rounds_path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("round,rep,instant_regret,cum_regret\n")
        for rep, res in enumerate(results):
            for t in range(res.instant_regret.size):
                fh.write(
                    f"{t + 1},{rep},{_fmt(res.instant_regret[t])},{_fmt(res.cum_regret[t])}\n"
                )

    finals = np.array([r.final_regret for r in results])
    summary_path = out / "summary.csv"
    with open(summary_path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("algorithm,repetitions,horizon,mean_final_regret,std_final_regret\n")
        fh.write(
            f"{label},{len(results)},{results[0].instant_regret.size},"
            f"{_fmt(finals.mean())},{_fmt(finals.std())}\n"
        )

    config_path = out / "config.json"
    snapshot = dict(results[0].config)
    snapshot.pop("seed", None)
    snapshot["seeds"] = [r.seed for r in results]
    with open(config_path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return [rounds_path, summary_path, config_path]


def emit_grid_table(table: list, best_config: ExperimentConfig, out_dir) -> list:
    """Write the grid table and the winning configuration."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = list(table[0].overrides) if table else []
    table_path = out / "grid_table.csv"
    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(paths + ["mean_final_regret", "std_final_regret", "status"])
        for entry in table:
            status = "ok" if entry.error is None else "diverged"
            writer.writerow([str(entry.overrides[p]) for p in paths] + [
                _fmt(entry.mean_final_regret), _fmt(entry.std_final_regret), status])
    best_path = out / "best_config.json"
    with open(best_path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(best_config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [table_path, best_path]

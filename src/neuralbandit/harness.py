"""Experiment orchestration: configs, seeded runs, grids, and result files.

A run is defined by a JSON-serializable ExperimentConfig.  Repetition i uses
seed base_seed + i for its context/noise and policy streams, while the
environment's hidden reward parameters are drawn from a stream keyed by the
base seed alone, so all repetitions share one reward function.  Regret is
recorded against the true means (pseudo-regret), never the noisy rewards.

Validation builds the configured policy through the same constructors a run
uses, so their checks are the only copy of the policy rules.
"""

import dataclasses
import itertools
import json
import math
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from neuralbandit import environments, policies
from neuralbandit.confidence import ConstantWidth, GammaInputs, RidgeWidth, TheoreticalWidth
from neuralbandit.network import NetworkShape

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

THREADS_ENV_VAR = "NEURAL_BANDIT_THREADS"
GRID_CAP_DEFAULT = 256

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
    num_classes: int | None = None
    shuffle: bool = True

    def validate(self) -> list:
        errors = []
        kinds = environments.SYNTHETIC_KINDS + ("dataset",)
        if self.kind not in kinds:
            errors.append(f"environment.kind: unknown kind {self.kind!r}, choose from {kinds}")
        if self.horizon < 1:
            errors.append(f"environment.horizon: must be >= 1, got {self.horizon}")
        if self.noise_scale < 0:
            errors.append(f"environment.noise_scale: must be >= 0, got {self.noise_scale}")
        if self.kind == "dataset":
            if not self.dataset_path:
                errors.append("environment.dataset_path: required for dataset environments")
            elif not Path(self.dataset_path).is_file():
                errors.append(f"environment.dataset_path: no such file {self.dataset_path!r}")
            if not self.label_column:
                errors.append("environment.label_column: required for dataset environments")
        else:
            if self.dimension < 1:
                errors.append(f"environment.dimension: must be >= 1, got {self.dimension}")
            if self.num_actions < 1:
                errors.append(f"environment.num_actions: must be >= 1, got {self.num_actions}")
        return errors


@dataclass(frozen=True)
class PolicyConfig:
    algorithm: str = "neural_ucb"
    # network
    width: int = 20
    depth: int = 2
    lam: float = 1.0
    design_mode: str = "full"
    refresh_every: int = 512
    preprocess: bool | None = None  # None: on for neural algorithms, off otherwise
    # exploration
    gamma: float | None = 0.1
    gamma_inputs: dict | None = None
    epsilon: float = 0.1
    alpha: float = 1.0
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
    kernel_beta: float = 1.0
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
    output: str | None = None

    def validate(self) -> list:
        errors = self.environment.validate() + _policy_errors(self)
        if self.repetitions < 1:
            errors.append(f"repetitions: must be >= 1, got {self.repetitions}")
        if not isinstance(self.base_seed, int) or self.base_seed < 0:
            errors.append(f"base_seed: must be a non-negative integer, got {self.base_seed!r}")
        return errors

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["policy"]["preprocess"] = self.policy.resolved_preprocess()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(["config root must be a JSON object"])
        errors = []
        known = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                errors.append(f"unknown top-level key {key!r}")
        env = _dataclass_from_dict(EnvironmentConfig, data.get("environment", {}), "environment", errors)
        pol = _dataclass_from_dict(PolicyConfig, data.get("policy", {}), "policy", errors)
        if errors:
            raise ConfigError(errors)
        return cls(
            environment=env,
            policy=pol,
            repetitions=data.get("repetitions", 10),
            base_seed=data.get("base_seed", 0),
            output=data.get("output"),
        )


def _dataclass_from_dict(cls, data, prefix, errors):
    if not isinstance(data, dict):
        errors.append(f"{prefix}: must be a JSON object")
        return cls()
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = [k for k in data if k not in known]
    errors.extend(f"{prefix}.{k}: unknown key" for k in unknown)
    kwargs = {k: v for k, v in data.items() if k in known}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"{prefix}: {exc}")
        return cls()


def _gamma_inputs_from_dict(policy: PolicyConfig, data: dict) -> GammaInputs:
    """GammaInputs from the gamma_inputs mapping, defaulting to the policy's fields."""
    try:
        data = dict(data)
        j = data.pop("j_steps", policy.j_steps if policy.j_steps is not None else math.inf)
        if isinstance(j, str) and j.lower() in ("inf", "infinity"):
            j = math.inf
        return GammaInputs(
            nu=data.pop("nu", policy.nu),
            delta=data.pop("delta", policy.delta),
            s_norm=data.pop("s_norm", policy.s_norm),
            lam=data.pop("lam", policy.lam),
            width=data.pop("width", policy.width),
            depth=data.pop("depth", policy.depth),
            t=0,
            eta=data.pop("eta", policy.eta),
            j_steps=j,
            c1=data.pop("c1", 1.0),
            c2=data.pop("c2", 1.0),
            c3=data.pop("c3", 1.0),
            **data,
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"gamma_inputs: {exc}") from None


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
            dataset = environments.load_csv(cfg.dataset_path, cfg.label_column, cfg.num_classes)
        env = environments.DatasetBandit(
            dataset.features, dataset.labels, dataset.num_classes,
            rng=rng if cfg.shuffle else None, shuffle=cfg.shuffle,
        )
        if cfg.horizon > env.rounds_available:
            raise ConfigError([
                f"environment.horizon: {cfg.horizon} exceeds the dataset's "
                f"{env.rounds_available} rows"
            ])
        return env
    return environments.SyntheticBandit(
        cfg.kind, cfg.dimension, cfg.num_actions, cfg.noise_scale, rng,
        secret_rng=secret_rng,
    )


def _network_shape(policy: PolicyConfig, raw_dim: int) -> NetworkShape:
    input_dim = 2 * raw_dim if policy.resolved_preprocess() else raw_dim
    return NetworkShape(input_dim=input_dim, width=policy.width, depth=policy.depth)


def _build_policy(cfg: PolicyConfig, env, rng):
    raw_dim = env.d
    algo = cfg.algorithm
    if algo == "random":
        return policies.UniformRandomPolicy(rng)
    if algo == "lin_ucb":
        dim = 2 * raw_dim if cfg.resolved_preprocess() else raw_dim
        return policies.LinUCB(dim, cfg.alpha, lam=cfg.lam)
    if algo == "kernel_ucb":
        return policies.KernelUCB(cfg.kernel_bandwidth, cfg.kernel_beta,
                                  lam=cfg.lam, cap=cfg.kernel_cap)
    shape = _network_shape(cfg, raw_dim)
    if algo == "neural_ucb":
        if cfg.gamma_inputs is not None:
            width = TheoreticalWidth(_gamma_inputs_from_dict(cfg, cfg.gamma_inputs))
        else:
            width = ConstantWidth(cfg.gamma)
        train = _training_config(cfg)
        return policies.NeuralUCB(shape, cfg.lam, width, rng, train=train,
                                  design_mode=cfg.design_mode,
                                  refresh_every=cfg.refresh_every)
    if algo == "neural_greedy":
        train = _training_config(cfg)
        return policies.NeuralEpsilonGreedy(shape, cfg.lam, cfg.epsilon, rng, train=train)
    if algo == "neural_ucb0":
        width = RidgeWidth(cfg.nu, cfg.delta, cfg.s_norm, cfg.lam)
        return policies.NeuralUCB0(cfg.lam, width, rng=rng, shape=shape,
                                   design_mode=cfg.design_mode,
                                   refresh_every=cfg.refresh_every)
    if algo == "neural_greedy0":
        return policies.NeuralEpsilonGreedy0(cfg.lam, cfg.epsilon, rng, shape=shape,
                                             design_mode=cfg.design_mode,
                                             refresh_every=cfg.refresh_every)
    raise ConfigError([f"policy.algorithm: unknown algorithm {algo!r}"])


def _training_config(cfg: PolicyConfig) -> policies.TrainingConfig:
    return policies.TrainingConfig(
        eta=cfg.eta, j_steps=cfg.j_steps, batch_size=cfg.batch_size,
        cadence=cfg.cadence, train_start=cfg.train_start,
    )


_POLICY_FIELDS = frozenset(f.name for f in dataclasses.fields(PolicyConfig))
# constructor parameters whose PolicyConfig field has another name
_RENAMED_FIELDS = {"input_dim": "preprocess", "mode": "design_mode",
                   "bandwidth": "kernel_bandwidth", "beta": "kernel_beta", "cap": "kernel_cap"}


def _policy_errors(config: ExperimentConfig) -> list:
    """Build the policy a run would build and report what its constructors reject.

    Constructor messages start with the parameter they reject, which names
    the PolicyConfig field directly or through _RENAMED_FIELDS.  The seed
    does not matter to any check, so a fixed one is used.
    """
    policy, env = config.policy, config.environment
    if policy.algorithm not in ALGORITHMS:
        return [f"policy.algorithm: unknown algorithm {policy.algorithm!r}, choose from {ALGORITHMS}"]
    # a dataset's dimension is known only once its file is read, and a bad
    # synthetic one is an environment error; 2 passes every dimension check
    raw_dim = env.dimension if env.kind != "dataset" and env.dimension >= 1 else 2
    try:
        _build_policy(policy, SimpleNamespace(d=raw_dim), np.random.default_rng(0))
    except (TypeError, ValueError) as exc:
        message = str(exc)
        name = re.match(r"\w*", message).group()
        field_name = _RENAMED_FIELDS.get(name, name)
        if field_name not in _POLICY_FIELDS:
            return [f"policy: {message}"]
        return [f"policy.{message}" if field_name == name else f"policy.{field_name}: {message}"]
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
    horizon = config.environment.horizon
    instant = np.zeros(horizon)
    start = time.perf_counter()
    for t in range(horizon):
        contexts = env.next_round()
        means = env.mean_rewards(contexts)
        feats = environments.preprocess_batch(contexts) if preprocess else contexts
        action, _ = policy.select(feats)
        reward = env.noisy_reward(float(means[action]))
        policy.update(feats[action], reward)
        instant[t] = float(np.max(means) - means[action])
    elapsed = time.perf_counter() - start
    snapshot = config.to_dict()
    snapshot["seed"] = seed
    return RunResult(
        instant_regret=instant,
        cum_regret=np.cumsum(instant),
        wall_clock=elapsed,
        seed=seed,
        config=snapshot,
    )


def _worker_count(repetitions: int) -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError([f"{THREADS_ENV_VAR}: not an integer: {raw!r}"]) from None
        if cap < 1:
            raise ConfigError([f"{THREADS_ENV_VAR}: must be >= 1, got {cap}"])
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, repetitions))


def run_experiment(config: ExperimentConfig, policy_factory=None) -> list:
    """Run every repetition; results are ordered by repetition index."""
    errors = config.validate()
    if errors:
        raise ConfigError(errors)
    dataset = None
    env = config.environment
    if env.kind == "dataset":
        try:
            dataset = environments.load_csv(env.dataset_path, env.label_column, env.num_classes)
        except (ValueError, OSError) as exc:
            raise ConfigError([f"environment.dataset_path: {exc}"]) from None
    reps = config.repetitions
    workers = _worker_count(reps)
    if workers == 1:
        return [run_single(config, rep, dataset=dataset, policy_factory=policy_factory)
                for rep in range(reps)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_single, config, rep, dataset, policy_factory)
                   for rep in range(reps)]
        return [f.result() for f in futures]


@dataclass
class GridEntry:
    overrides: dict
    mean_final_regret: float
    std_final_regret: float


def _apply_override(config: ExperimentConfig, path: str, value) -> ExperimentConfig:
    parts = path.split(".")
    if len(parts) == 1:
        if parts[0] not in {f.name for f in dataclasses.fields(ExperimentConfig)}:
            raise ConfigError([f"grid: unknown parameter path {path!r}"])
        return dataclasses.replace(config, **{parts[0]: value})
    if len(parts) == 2 and parts[0] in ("environment", "policy"):
        section = getattr(config, parts[0])
        if parts[1] not in {f.name for f in dataclasses.fields(type(section))}:
            raise ConfigError([f"grid: unknown parameter path {path!r}"])
        return dataclasses.replace(config, **{parts[0]: dataclasses.replace(section, **{parts[1]: value})})
    raise ConfigError([f"grid: unknown parameter path {path!r}"])


def grid_search(config: ExperimentConfig, grid: dict, cap: int = GRID_CAP_DEFAULT):
    """Evaluate the cross product of a parameter grid.

    Returns (best_config, table).  Best is the combination with the lowest
    mean final cumulative regret; ties go to the earliest combination in
    declared order.
    """
    if not grid:
        raise ConfigError(["grid: must contain at least one parameter"])
    for path, values in grid.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError([f"grid: values for {path!r} must be a nonempty list"])
    size = math.prod(len(v) for v in grid.values())
    if size > cap:
        raise ConfigError([f"grid: cross product has {size} combinations, cap is {cap}"])
    paths = list(grid)
    table = []
    best = None
    best_config = None
    for combo in itertools.product(*(grid[p] for p in paths)):
        cfg = config
        for path, value in zip(paths, combo):
            cfg = _apply_override(cfg, path, value)
        results = run_experiment(cfg)
        finals = np.array([r.final_regret for r in results])
        entry = GridEntry(
            overrides=dict(zip(paths, combo)),
            mean_final_regret=float(finals.mean()),
            std_final_regret=float(finals.std()),
        )
        table.append(entry)
        if best is None or entry.mean_final_regret < best:
            best = entry.mean_final_regret
            best_config = cfg
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
    with open(table_path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(paths + ["mean_final_regret", "std_final_regret"]) + "\n")
        for entry in table:
            cells = [str(entry.overrides[p]) for p in paths]
            cells += [_fmt(entry.mean_final_regret), _fmt(entry.std_final_regret)]
            fh.write(",".join(cells) + "\n")
    best_path = out / "best_config.json"
    with open(best_path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(best_config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [table_path, best_path]

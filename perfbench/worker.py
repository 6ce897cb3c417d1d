"""One benchmark process: set up, then run the workload once (or twice).

    python3 perfbench/worker.py '<json spec>'

Set-up is the import, parsing and validating the config, and building the
environment and policy of repetition 0 (by running one round); its time is
reported as setup_s.  The spec names a mode:

- "timed": set up, then run the workload once through `run_experiment`
  with no wrappers installed, timing each round from `select` to `update`.
- "trace": set up, run the workload once as "timed" does, then again with
  every public layer function wrapped in a span, and derive the per-layer
  metrics, the exact-count checks and the numerics-health check.

The result is one JSON object on stdout.  The process pins BLAS to one
thread before numpy is imported.
"""

import time

_START = time.perf_counter()  # setup time includes every import below

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import hashlib
import json
import math
import resource
import sys
import traceback
from time import perf_counter

import numpy as np
import scipy

from neuralbandit import confidence, environments, harness, policies

import tracer as tracing

NETWORK_FUNCTIONS = ("forward_batch", "gradient_batch", "gradient_weighted_sum", "unflatten")
DESIGN_METHODS = ("rank_one_update", "quadratic_form", "solve", "refresh")
ENVIRONMENT_METHODS = ("next_round", "mean_rewards", "noisy_reward")
# the tolerances of checks.check_sherman_morrison_drift
SM_RESIDUAL_TOL = 1e-8
LOGDET_TOL = 1e-6


def set_up(raw):
    """Parse and validate, then build repetition 0's environment and policy."""
    config = harness.ExperimentConfig.from_dict(raw)
    errors = config.validate()
    if errors:
        raise harness.ConfigError(errors)
    probe = dataclasses.replace(
        config, repetitions=1,
        environment=dataclasses.replace(config.environment, horizon=1))
    harness.run_single(probe, 0)
    return config


class RoundClock:
    """Forwards select/update to a policy and times each round between them."""

    def __init__(self, policy):
        self.policy = policy
        self.round_ms = []
        self._start = 0.0

    def select(self, contexts):
        self._start = perf_counter()
        return self.policy.select(contexts)

    def update(self, context, reward):
        self.policy.update(context, reward)
        self.round_ms.append((perf_counter() - self._start) * 1e3)


def run_clocked(config, tracer=None):
    """One run_experiment call; returns results, wall seconds and round times."""
    clocks = []

    def factory(env, rng):
        # the harness's own builder, so results match a factory-free run
        clock = RoundClock(harness._build_policy(config.policy, env, rng))
        clocks.append(clock)
        return clock, config.policy.resolved_preprocess()

    start = perf_counter()
    if tracer is None:
        results = harness.run_experiment(config, policy_factory=factory)
    else:
        results = tracer.run_root("harness.run_experiment", harness.run_experiment,
                                  config, policy_factory=factory)
    wall = perf_counter() - start
    return results, wall, [ms for clock in clocks for ms in clock.round_ms]


def rep_records(results, ceiling):
    records = []
    for res in results:
        regret = np.ascontiguousarray(res.instant_regret, dtype=np.float64)
        final = res.final_regret
        records.append({
            "seed": res.seed,
            "final_regret": final,
            "digest": hashlib.sha256(regret.tobytes()).hexdigest(),
            "ok": math.isfinite(final) and final < ceiling,
        })
    return records


def install_spans(tracer, steps, designs):
    """Wrap the public layer functions; collect train_nn's j_steps and the designs."""
    for name in NETWORK_FUNCTIONS:
        tracer.patch(policies, name, f"network.{name}")

    def count_steps(args, kwargs):
        steps.append(args[2] if len(args) > 2 else kwargs["j_steps"])

    tracer.patch(policies, "train_nn", "policies.train_nn", on_call=count_steps)
    for cls in vars(policies).values():
        if isinstance(cls, type) and cls.__module__ == policies.__name__:
            for method in ("select", "update"):
                if method in cls.__dict__:
                    tracer.patch(cls, method, f"policies.{method}")
    for method in DESIGN_METHODS:
        on_call = (lambda args, kwargs: designs.append(args[0])) \
            if method == "rank_one_update" else None
        tracer.patch(confidence.DesignMatrix, method, f"confidence.{method}", on_call=on_call)
    for method in ENVIRONMENT_METHODS:
        tracer.patch(environments.SyntheticBandit, method, f"environments.{method}")
    tracer.patch(harness, "run_single", "harness.run_single", rep_arg=1)


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(summary, steps):
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "threads": set()}

    def get(name):
        return summary.get(name, empty)

    out = {}
    for name in NETWORK_FUNCTIONS:
        span = get(f"network.{name}")
        out[f"network.{name}.calls"] = span["calls"]
        out[f"network.{name}.self_s"] = span["self_s"]
    train = get("policies.train_nn")
    out["policies.train_nn.calls"] = train["calls"]
    out["policies.train_nn.self_s"] = train["self_s"]
    out["policies.train_nn.s"] = train["s"]
    out["policies.train_nn.sgd_steps"] = steps
    out["policies.train_nn.us_per_step"] = train["s"] / steps * 1e6 if steps else 0.0
    for name in ("select", "update"):
        us = [d * 1e6 for d in get(f"policies.{name}")["durations"]]
        out[f"policies.{name}.us.p50"] = _pct(us, 50)
        out[f"policies.{name}.us.p99"] = _pct(us, 99)
    for name in DESIGN_METHODS:
        span = get(f"confidence.{name}")
        out[f"confidence.{name}.calls"] = span["calls"]
        out[f"confidence.{name}.self_s"] = span["self_s"]
    out["confidence.rank_one_update.us.p50"] = _pct(
        [d * 1e6 for d in get("confidence.rank_one_update")["durations"]], 50)
    for name in ENVIRONMENT_METHODS:
        out[f"environments.{name}.self_s"] = get(f"environments.{name}")["self_s"]
    single = get("harness.run_single")
    out["harness.run_experiment.s"] = get("harness.run_experiment")["s"]
    out["harness.run_single.s.sum"] = single["s"]
    out["harness.loop_self_s"] = single["self_s"]
    out["harness.workers"] = len(single["threads"])
    return out


def expected_counts(config):
    """Closed forms for the exact counts of one traced run."""
    policy, horizon, reps = config.policy, config.environment.horizon, config.repetitions
    rounds = horizon * reps
    counts = {"policies.select.calls": rounds, "policies.update.calls": rounds}
    neural = policy.algorithm in ("neural_ucb", "neural_ucb0")
    counts["confidence.rank_one_update.calls"] = rounds if neural else 0
    if policy.algorithm == "neural_ucb":
        first = max(policy.train_start, 1)
        ts = [t for t in range(policy.cadence, horizon + 1, policy.cadence) if t >= first]
        per_rep = sum(ts) if policy.j_steps is None else policy.j_steps * len(ts)
        counts["policies.train_nn.calls"] = len(ts) * reps
        counts["policies.train_nn.sgd_steps"] = per_rep * reps
    else:
        counts["policies.train_nn.calls"] = 0
        counts["policies.train_nn.sgd_steps"] = 0
    return counts


def design_health(designs, lam):
    """Worst Sherman-Morrison residual and log-det error over the designs."""
    residual = logdet_err = 0.0
    for design in {id(d): d for d in designs}.values():
        z, z_inv = design.matrix, design.inverse
        residual = max(residual, float(np.max(np.abs(z_inv @ z - np.eye(z.shape[0])))))
        _, logdet = np.linalg.slogdet(z)
        direct = logdet - z.shape[0] * math.log(lam)
        logdet_err = max(logdet_err, abs(design.log_det_ratio() - float(direct)))
    return residual, logdet_err


def trace_iteration(config, ceiling, trace_path):
    base_results, base_wall, _ = run_clocked(config)
    base_reps = rep_records(base_results, ceiling)

    tracer = tracing.Tracer()
    steps, designs = [], []
    install_spans(tracer, steps, designs)
    try:
        results, wall, _ = run_clocked(config, tracer)
    finally:
        tracer.restore()
    reps = rep_records(results, ceiling)
    summary = tracing.summarize(tracer.spans)
    metrics = layer_metrics(summary, int(sum(steps)))
    rounds = config.environment.horizon * config.repetitions
    residual, logdet_err = design_health(designs, config.policy.lam)
    metrics["confidence.sm_residual"] = residual
    metrics["confidence.logdet_err"] = logdet_err
    metrics["trace.untraced_rounds_per_s"] = rounds / base_wall
    metrics["trace.rounds_per_s"] = rounds / wall
    metrics["trace.overhead_ratio"] = wall / base_wall

    observed = {f"{name}.calls": span["calls"] for name, span in summary.items()}
    observed["policies.train_nn.sgd_steps"] = metrics["policies.train_nn.sgd_steps"]
    checks = []
    for name, want in expected_counts(config).items():
        got = observed.get(name, 0)
        checks.append({"check": f"{name} == {want}", "ok": got == want, "observed": got})
    checks.append({"check": f"confidence.sm_residual <= {SM_RESIDUAL_TOL}",
                   "ok": residual <= SM_RESIDUAL_TOL})
    checks.append({"check": f"confidence.logdet_err <= {LOGDET_TOL}",
                   "ok": logdet_err <= LOGDET_TOL})
    checks.append({"check": "traced regret identical to untraced",
                   "ok": [r["digest"] for r in reps] == [r["digest"] for r in base_reps]})
    tracer.write(trace_path)
    return {"per_layer": metrics, "checks": checks, "reps": base_reps + reps,
            "wall_s": [base_wall, wall], "traced_wall_s": wall, "spans": len(tracer.spans),
            "installed_spans": sorted(tracer.installed)}


def versions():
    out = {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__}
    try:
        out["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        out["openblas"] = None
    return out


def main():
    spec = json.loads(sys.argv[1])
    out = {"mode": spec["mode"], "reps": [], "error": None}
    try:
        config = set_up(spec["config"])
        out["setup_s"] = perf_counter() - _START
        out["versions"] = versions()
        if spec["mode"] == "timed":
            results, wall, round_ms = run_clocked(config)
            out.update(reps=rep_records(results, spec["ceiling"]), wall_s=[wall],
                       round_ms=round_ms)
        elif spec["mode"] == "trace":
            out.update(trace_iteration(config, spec["ceiling"], spec["trace_path"]))
    except Exception:  # a diverged or broken run is a failed operation, not a crash
        out["error"] = traceback.format_exc()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

"""NeuralUCB online-loop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads are defined in `perfbench/workloads.json`.  Every
iteration is a fresh worker process (`perfbench/worker.py`) with BLAS pinned
to one thread.

--trace 0 measures the end-to-end metrics with no layer wrappers installed:
timed iterations until the next one would not end within --seconds (at
least one), each setting up afresh.  The only instrumentation is a round
clock: run_experiment gets a policy_factory that builds the harness's own
policy and reads perf_counter when select starts and when update returns.
Reported values are medians over the iterations (setup_s, peak_rss_mb),
the rounds of all iterations over their summed run_experiment wall time
(rounds_per_s), and percentiles over every round of the run (round_ms.p50,
round_ms.p99); the result file records the sample counts.

--trace 1 runs one worker that runs the workload untraced, then traced, and
reports the per-layer metrics.  Spans go to .perfbench_out/<workload>-trace.jsonl.

Every repetition is an operation.  A repetition fails when its run raises
(DivergenceError included), when its final regret is not finite or not
below the workload's ceiling, or when a check of its iteration fails
(determinism across iterations, exact counts and numerics health in the
traced run).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 1 when any
operation failed.  A result file with provenance goes to
.perfbench_out/<workload>-seed<N>-trace<0|1>.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKER_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=int, default=None,
                        help="override the horizon (for the smoke test only)")
    return parser.parse_args(argv)


def load_spec():
    with open(BENCH_DIR / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def workload_config(spec, name, seed, horizon=None):
    """The ExperimentConfig dict of one workload at one seed."""
    workload = spec["workloads"][name]
    common = spec["common"]
    env = {**common["environment"], **workload["config"]["environment"]}
    if horizon is not None:
        env["horizon"] = horizon
    policy = dict(workload["config"]["policy"])
    if workload.get("neural_protocol"):
        policy = {**common["neural_protocol"], **policy}
    return {"environment": env, "policy": policy,
            "repetitions": workload["config"]["repetitions"], "base_seed": seed}


def nproc():
    return len(os.sched_getaffinity(0))


def worker_env():
    env = dict(os.environ)
    # the harness's default worker count, capped at the CPUs this process may use
    env["NEURAL_BANDIT_THREADS"] = str(nproc())
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(spec, env, timeout):
    """Run one worker process to completion and return its parsed result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s", "reps": []}, \
            time.perf_counter() - started
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                  "reps": []}
    return result, elapsed


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """The checkout's commit, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def reference_status(name, seed, iterations, horizon_overridden):
    """True/False against the committed reference digests, None if there is none."""
    if horizon_overridden:
        return None
    with open(BENCH_DIR / "reference_digests.json", encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"].get(name, {}).get(str(seed))
    if reference is None:
        return None
    want = reference["digests"]
    for it in iterations:
        digests = [r["digest"] for r in it.get("reps", [])]
        # a traced worker reports its untraced and its traced repetitions
        chunks = [digests[i:i + len(want)] for i in range(0, len(digests), len(want))]
        if any(chunk != want for chunk in chunks):
            return False
    return True


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self, reps_per_iteration):
        self.reps = reps_per_iteration
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def iteration(self, result, label):
        self.attempted += self.reps
        if result.get("error"):
            self.failed += self.reps
            self.reasons.append(f"{label}: {result['error'].strip().splitlines()[-1]}")
            return
        bad = [r for r in result["reps"] if not r["ok"]]
        failed_checks = [c["check"] for c in result.get("checks", []) if not c["ok"]]
        if failed_checks:
            self.failed += self.reps
            self.reasons.append(f"{label}: failed checks {failed_checks}")
        elif bad:
            self.failed += len(bad)
            self.reasons.append(f"{label}: final regret {[r['final_regret'] for r in bad]} "
                                "not finite or not below the ceiling")

    def fail_all(self, reason):
        self.failed = self.attempted
        self.reasons.append(reason)


def timed_run(args, config, ceiling, env, tally, started):
    setups, peaks, walls, round_ms, iterations = [], [], [], [], []
    spec = {"mode": "timed", "config": config, "ceiling": ceiling}
    last = 0.0
    while not iterations or (time.perf_counter() - started) + last <= args.seconds:
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        if remaining < last:
            break
        result, last = run_worker(spec, env, min(WORKER_TIMEOUT_S, remaining))
        tally.iteration(result, f"iteration {len(iterations)}")
        iterations.append(result)
        if result.get("error"):
            break
        setups.append(result["setup_s"])
        peaks.append(result["peak_rss_mb"])
        walls.append(result["wall_s"][0])
        round_ms.extend(result["round_ms"])
    if not walls:
        return None, iterations
    digests = {tuple(r["digest"] for r in it["reps"]) for it in iterations if not it.get("error")}
    if len(digests) > 1:
        tally.fail_all("iterations of one seed gave different regret vectors")
    rounds = config["environment"]["horizon"] * config["repetitions"]
    cuts = statistics.quantiles(round_ms, n=100, method="inclusive")
    metrics = {
        "setup_s": statistics.median(setups),
        "rounds_per_s": rounds * len(walls) / sum(walls),
        "round_ms.p50": cuts[49],
        "round_ms.p99": cuts[98],
        "peak_rss_mb": statistics.median(peaks),
    }
    samples = {"setup_s": len(setups), "rounds_per_s": len(walls),
               "round_ms": len(round_ms), "peak_rss_mb": len(peaks)}
    return (metrics, samples), iterations


def trace_run(args, config, ceiling, env, tally, started):
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"{args.workload}-trace.jsonl"
    spec = {"mode": "trace", "config": config, "ceiling": ceiling,
            "trace_path": str(trace_path)}
    result, _ = run_worker(spec, env, RUN_LIMIT_S - (time.perf_counter() - started))
    tally.iteration(result, "untraced and traced pair")
    if result.get("error"):
        return None, [result]
    return (result["per_layer"], {"spans": result["spans"]}), [result]


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "neuralbandit" / "__init__.py").is_file():
        print(f"error: no neuralbandit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    workload = spec["workloads"][args.workload]
    config = workload_config(spec, args.workload, args.seed, args.horizon)
    ceiling = workload["regret_ceiling"]
    env = worker_env()
    # a traced worker runs the workload twice: untraced, then traced
    tally = Tally(config["repetitions"] * (2 if args.trace else 1))

    if args.trace:
        measured, iterations = trace_run(args, config, ceiling, env, tally, started)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        measured, iterations = timed_run(args, config, ceiling, env, tally, started)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if measured is None:
        for reason in tally.reasons:
            print(f"  FAILED {reason}")
        print(f"error: {args.workload} produced no measurement", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": {}}))
        return 1
    values, samples = measured
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    reps = [r for it in iterations for r in it.get("reps", [])]
    first = next((it for it in iterations if "versions" in it), {})
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "config": config, "regret_ceiling": ceiling,
        "provenance": {
            "nproc": nproc(), "cpu_model": cpu_model(), "platform": platform.platform(),
            **first.get("versions", {}), "git_commit": git_commit(),
            "seed": args.seed, "workers": min(nproc(), config["repetitions"]),
            "blas_threads": 1,
        },
        "metrics": metrics, "samples": samples,
        "iterations": len(iterations),
        "wall_s": [w for it in iterations for w in it.get("wall_s", [])],
        "final_regret": [r["final_regret"] for r in reps],
        "regret_digests": sorted({r["digest"] for r in reps}),
        "regret_identical": reference_status(args.workload, args.seed, iterations,
                                             args.horizon is not None),
        "checks": [c for it in iterations for c in it.get("checks", [])],
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.reasons,
        "elapsed_s": time.perf_counter() - started,
    }
    if args.trace:
        report.update(traced_wall_s=iterations[0]["traced_wall_s"],
                      installed_spans=iterations[0]["installed_spans"],
                      trace_file=str((OUT_DIR / f"{args.workload}-trace.jsonl").relative_to(ROOT)))
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(iterations)} worker run(s), samples {samples}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    first_reps = iterations[0]["reps"][:config["repetitions"]]
    print(f"  regret_identical {json.dumps(report['regret_identical'])}; final regret "
          f"{[round(r['final_regret'], 3) for r in first_reps]}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    print(f"  result file {result_path.relative_to(ROOT)}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate perfbench/reference_digests.json from the current sources.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  For every workload and every seed
in 0-63 it calls run_experiment with no policy factory and no wrappers, and
stores the SHA-256 of each repetition's instant-regret vector (float64
bytes) and the final regrets.  The file is written afresh, so every digest
in it comes from one version of the code.  The benchmark compares its runs
against these digests and reports regret_identical.  Regenerate them only
in a change that is meant to alter results, and say why in that change.
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))
os.environ["NEURAL_BANDIT_THREADS"] = "1"  # results do not depend on the worker count

import worker  # noqa: E402  (pins BLAS to one thread before numpy is imported)

import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402

import run  # noqa: E402
from neuralbandit import harness  # noqa: E402

SEEDS = range(64)


def digest_one(name, seed):
    raw = run.workload_config(run.load_spec(), name, seed)
    results = harness.run_experiment(harness.ExperimentConfig.from_dict(raw))
    reps = worker.rep_records(results, math.inf)
    return name, seed, {"digests": [r["digest"] for r in reps],
                        "final_regret": [r["final_regret"] for r in reps]}


def main():
    names = sorted(run.load_spec()["workloads"])
    data = {"workloads": {name: {} for name in names}}
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=run.nproc(), mp_context=ctx) as pool:
        futures = [pool.submit(digest_one, n, s) for n in names for s in SEEDS]
        for future in futures:
            name, seed, entry = future.result()
            data["workloads"][name][str(seed)] = entry
    path = BENCH_DIR / "reference_digests.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

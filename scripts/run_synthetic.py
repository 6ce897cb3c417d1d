#!/usr/bin/env python3
"""Compare bandit policies on one synthetic reward function.

Runs each requested algorithm from its config in configs/paper/ (the
paper's protocol, one <algorithm>.json each), prints a final-regret table,
and writes per-algorithm result files under --out.  An environment, reps or
seed flag left unset keeps the value in the config files.

    python scripts/run_synthetic.py --kind h1 --horizon 2000 --reps 5 --out results/h1
"""

import argparse
import json
from pathlib import Path

import numpy as np

from neuralbandit.environments import SYNTHETIC_KINDS
from neuralbandit.harness import ALGORITHMS, ExperimentConfig, emit_results, run_experiment

PAPER_CONFIGS = Path(__file__).resolve().parent.parent / "configs" / "paper"
ENVIRONMENT_FLAGS = ("kind", "dimension", "num_actions", "horizon", "noise_scale")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=SYNTHETIC_KINDS)
    parser.add_argument("--dimension", type=int)
    parser.add_argument("--actions", dest="num_actions", type=int)
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--noise", dest="noise_scale", type=float)
    parser.add_argument("--reps", dest="repetitions", type=int)
    parser.add_argument("--seed", dest="base_seed", type=int)
    parser.add_argument("--algorithms", nargs="+", default=list(ALGORITHMS),
                        choices=ALGORITHMS)
    parser.add_argument("--out", default=None, help="directory for result files")
    return parser.parse_args()


def load_config(name, args) -> ExperimentConfig:
    """configs/paper/<name>.json with each flag that was given in place of its value."""
    data = json.loads((PAPER_CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    for section, keys in ((data["environment"], ENVIRONMENT_FLAGS),
                          (data, ("repetitions", "base_seed"))):
        section.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
    return ExperimentConfig.from_dict(data)


def main():
    args = parse_args()
    rows = []
    for name in args.algorithms:
        config = load_config(name, args)
        results = run_experiment(config)
        finals = np.array([r.final_regret for r in results])
        rows.append((name, finals.mean(), finals.std(),
                     sum(r.wall_clock for r in results)))
        print(f"{name:16s} mean final regret {finals.mean():9.1f} "
              f"(std {finals.std():7.1f})  [{rows[-1][3]:.1f}s]")
        if args.out:
            emit_results(results, Path(args.out) / name, label=name)
    best = min(rows, key=lambda r: r[1])
    print(f"\nbest on {config.environment.kind}: {best[0]} ({best[1]:.1f})")


if __name__ == "__main__":
    main()

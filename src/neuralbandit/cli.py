"""Command-line interface: run experiments, grid searches, kernel dumps, checks.

Exit status: 0 on success, 1 on a validation problem (bad config, bad input
file, failed check precondition), 2 on a runtime failure.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from neuralbandit import checks
from neuralbandit.harness import (
    ConfigError,
    ExperimentConfig,
    emit_grid_table,
    emit_results,
    grid_search,
    run_experiment,
)
from neuralbandit.ntk import effective_dimension, ntk_gram, rkhs_norm_proxy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuralbandit",
        description="Neural contextual bandit benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="JSON experiment config")
    run_p.add_argument("--seed", type=int, default=None, help="override base_seed")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.set_defaults(handler=_cmd_run)

    grid_p = sub.add_parser("grid", help="grid search over config parameters")
    grid_p.add_argument("--config", required=True, help="JSON experiment config")
    grid_p.add_argument("--grid", required=True,
                        help="JSON object mapping parameter paths to value lists")
    grid_p.add_argument("--out", default=None,
                        help="write the table and the best config to this directory")
    grid_p.set_defaults(handler=_cmd_grid)

    ntk_p = sub.add_parser("ntk", help="dump the kernel Gram matrix for a context file")
    ntk_p.add_argument("--contexts", required=True,
                       help="CSV with one nonzero context per row (no header)")
    ntk_p.add_argument("--depth", type=int, required=True, help="network depth L >= 2")
    ntk_p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="regularization for the effective dimension")
    ntk_p.add_argument("--tk", type=int, required=True,
                       help="context budget T*K in the effective-dimension normalizer")
    ntk_p.add_argument("--rewards", default=None,
                       help="optional CSV with one reward per row; adds the RKHS-norm proxy")
    ntk_p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    ntk_p.set_defaults(handler=_cmd_ntk)

    check_p = sub.add_parser("check", help="run the built-in numerical property suites")
    check_p.set_defaults(handler=_cmd_check)
    return parser


def _load_json(path: str, what: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError([f"{what}: no such file {path!r}"])
    try:
        with open(p, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError([f"{what}: invalid JSON in {path!r}: {exc}"]) from None


def _load_matrix(path: str, what: str) -> np.ndarray:
    p = Path(path)
    if not p.is_file():
        raise ConfigError([f"{what}: no such file {path!r}"])
    try:
        data = np.loadtxt(p, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError([f"{what}: could not parse {path!r}: {exc}"]) from None
    if data.size == 0:
        raise ConfigError([f"{what}: no values in {path!r}"])
    return data


def _output_dir(out: str) -> None:
    """Reject --out before any work when it is or lies under something that is not a directory."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError([f"--out: {str(existing)!r} exists and is not a directory"])


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_dict(_load_json(args.config, "--config"))
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    _output_dir(args.out)
    results = run_experiment(config)
    files = emit_results(results, args.out)
    finals = [r.final_regret for r in results]
    print(f"ran {len(results)} repetition(s), horizon {config.environment.horizon}")
    print(f"mean final cumulative regret: {np.mean(finals):.6g} "
          f"(std {np.std(finals):.6g})")
    for f in files:
        print(f"wrote {f}")
    return 0


def _cmd_grid(args) -> int:
    config = ExperimentConfig.from_dict(_load_json(args.config, "--config"))
    grid = _load_json(args.grid, "--grid")
    if not isinstance(grid, dict):
        raise ConfigError(["--grid: must be a JSON object of parameter paths to lists"])
    if args.out is not None:
        _output_dir(args.out)
    best_config, table = grid_search(config, grid)
    print(f"evaluated {len(table)} combinations")
    for entry in table:
        if entry.error is not None:
            print(f"{entry.overrides}: diverged: {entry.error}")
            continue
        marker = "  <-- best" if entry.best else ""
        print(f"{entry.overrides}: mean={entry.mean_final_regret:.6g} "
              f"std={entry.std_final_regret:.6g}{marker}")
    if args.out is not None:
        for f in emit_grid_table(table, best_config, args.out):
            print(f"wrote {f}")
    return 0


def _cmd_ntk(args) -> int:
    if args.out:
        if Path(args.out).is_dir():
            raise ConfigError([f"--out: {args.out!r} is a directory"])
        _output_dir(str(Path(args.out).parent))
    contexts = _load_matrix(args.contexts, "--contexts")
    try:
        gram = ntk_gram(contexts, args.depth)
        dim = effective_dimension(gram, args.lam, args.tk)
        lines = []
        for row in gram:
            lines.append(",".join("%.12g" % v for v in row))
        lines.append("effective_dimension,%.12g" % dim)
        if args.rewards is not None:
            rewards = _load_matrix(args.rewards, "--rewards").ravel()
            norm = rkhs_norm_proxy(gram, rewards)
            lines.append("rkhs_norm_proxy,%.12g" % norm)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    ok = checks.run_all(print)
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; that slot is reserved for
        # runtime failures, so remap bad flags/arguments to a validation error
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

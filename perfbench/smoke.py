"""Smoke test of the benchmark itself, at a tiny horizon.

    python3 perfbench/smoke.py

Run from the root of a source checkout.  For every workload it runs
run.py with --horizon 100 untraced and traced, and checks that:

- the last stdout line is the result object, correct, with every metric
  named in BENCHMARK.json (end_to_end untraced, per_layer traced) and its unit;
- the traced run calls exactly the spans it installs, less the workload's
  smoke_uncalled_spans in workloads.json, so no layer's wrapper silently
  stops seeing calls;
- on a single-worker traced run, the self times of every span below the
  root span harness.run_experiment sum to within 3% of the traced wall
  time, so the repetitions' span trees lose and double-count nothing;
- a directory holding only BENCHMARK.json and perfbench/ makes run.py exit
  non-zero without a result line.

Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402

HORIZON = 100
SELF_TIME_TOLERANCE = 0.03
ROOT_SPAN = "harness.run_experiment"


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--horizon", str(HORIZON)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, workload, trace, wanted):
    label = f"{workload} trace {trace}"
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{label}: not correct: {result}")
    if set(result["metrics"]) != set(wanted):
        fail(f"{label}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(wanted))}")
    for name, unit in wanted.items():
        metric = result["metrics"][name]
        if metric["unit"] != unit or not isinstance(metric["value"], (int, float)):
            fail(f"{label}: {name} = {metric}, want unit {unit!r}")
    print(f"ok   {label}: {len(wanted)} metrics with units")


def check_spans(workload, uncalled):
    report = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed0-trace1.json")
                        .read_text(encoding="utf-8"))
    spans = []
    with open(ROOT / report["trace_file"], encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            spans.append((s["id"], s["name"], s["start"], s["end"], s["parent"],
                          s["rep"], s["thread"]))
    summary = tracing.summarize(spans)
    called = set(summary) - {ROOT_SPAN}
    want = set(report["installed_spans"]) - set(uncalled)
    if called != want:
        fail(f"{workload}: spans called but not expected {sorted(called - want)}, "
             f"expected but not called {sorted(want - called)}")
    print(f"ok   {workload}: {len(called)} installed spans called, {len(uncalled)} not")
    workers = len({thread for _, name, *_, thread in spans if name != ROOT_SPAN})
    if workers > 1:
        print(f"skip {workload}: {workers} worker threads overlap, self times exceed wall time")
        return
    # the time spent below the root; lost or double-counted spans move it off the wall time
    total = sum(entry["self_s"] for name, entry in summary.items() if name != ROOT_SPAN)
    wall = report["traced_wall_s"]
    if abs(total - wall) > SELF_TIME_TOLERANCE * wall:
        fail(f"{workload}: summed self time below the root {total:.6f} s "
             f"vs traced wall {wall:.6f} s")
    print(f"ok   {workload}: summed self time below the root {total:.6f} s "
          f"vs traced wall {wall:.6f} s")


def check_bare_directory():
    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "h1-neuralucb", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok   bare directory: exit {proc.returncode} without a result")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_result(run_bench(ROOT, workload, trace), workload, trace, wanted[trace])
        check_spans(workload, spec["workloads"][workload]["smoke_uncalled_spans"])
    check_bare_directory()
    print("smoke test passed")


if __name__ == "__main__":
    main()

"""Run each workload over several seeds and summarize its end-to-end metrics.

Runs ``run.py --trace 0`` once per workload and seed, one after another,
for the ``run_seconds`` of ``BENCHMARK.json``, and prints each metric's
median, quartiles and spread (the distance between the quartiles as a
share of the median).  With ``--write`` it also makes one traced run per
workload at the default seed and writes both into ``baseline.json``.

    python3 bench/baseline.py --seeds 200-209 [--workload twoarm ...] [--write]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import workloads
from run import BENCH, DEFAULT_SEED, END_TO_END, ROOT, git_commit


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range,
                        default=seed_range("200-209"))
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {}
    for workload in args.workload or list(workloads.WORKLOADS):
        results = [run_once(workload, seed, seconds) for seed in args.seeds]
        metrics = {}
        for name, unit in END_TO_END:
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {"unit": unit, **summarize(values)}
            m = metrics[name]
            print(f"{workload} {name}: median {m['median']:.4g} {unit}, "
                  f"spread {m['spread']:.3f}", flush=True)
        summary[workload] = {"seeds": args.seeds,
                             "all_correct": all(r["correct"] for r in results),
                             "metrics": metrics}

    if args.write:
        path = BENCH / "baseline.json"
        baseline = json.loads(path.read_text())
        baseline["commit"] = git_commit(ROOT)
        baseline["command"] = ("python3 bench/run.py --workload <w> "
                               f"--seed <s> --seconds {seconds} --trace 0")
        baseline["workloads"].update(summary)
        for workload in summary:
            traced = run_once(workload, DEFAULT_SEED, seconds, trace=1)
            baseline["per_layer_seed0"][workload] = {
                name: m["value"] for name, m in traced["metrics"].items()}
        for section in ("workloads", "per_layer_seed0"):
            baseline[section] = {w: v for w, v in baseline[section].items()
                                 if w in workloads.WORKLOADS}
        path.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

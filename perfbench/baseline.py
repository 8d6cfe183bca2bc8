"""Run every workload over ten seeds, twice, and record medians, spreads and drift.

    python3 perfbench/baseline.py

It runs ``run.py --trace 0`` once per seed (1..10) on every workload, then
the same again as a second set, and ``run.py --trace 1`` once per workload
(seed 1).  The spread of a metric is the distance between its first and
third quartile over a set's runs, as a share of the median; the drift is how
much worse the second set's median is than the first's, as a share of the
first.  The benchmark is steady when every spread and every drift is within
the metric's bound; the exit code is 1 otherwise.  Everything, every run's
values included, goes to perfbench/baseline.json, so a later commit can be
compared against it with the same settings.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # seeds per set
SETS = 2  # the second set shows whether the medians hold from one set to the next


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[len("meta "):])
    return json.loads(lines[-1]), meta


def one_set(workload: str, seconds: int, bounds: dict) -> tuple[dict, list[float], dict]:
    values: dict[str, list[float]] = {}
    failed_frac = []
    for seed in range(1, RUNS + 1):
        result, meta = run(workload, seed, seconds, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        failed_frac.append(result["failed"] / result["attempted"])
        print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
    metrics = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        metrics[name] = {
            "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bounds[name], "values": vals,
        }
    return metrics, failed_frac, meta


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    report: dict = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for index in range(SETS):
        for workload in workloads:
            metrics, failed_frac, meta = one_set(workload, spec["run_seconds"], bounds)
            entry = report["workloads"].setdefault(workload, {"sets": []})
            entry["sets"].append({"metrics": metrics, "failed_frac": failed_frac})
            if index == 0:
                entry["meta"] = {k: meta[k] for k in ("python", "nproc", "git_sha", "src_sha256")}
                layers, _ = run(workload, 1, spec["run_seconds"], 1)
                entry["per_layer_seed1"] = {k: v["value"] for k, v in layers["metrics"].items()}
    steady = True
    for workload, entry in report["workloads"].items():
        first, last = (s["metrics"] for s in (entry["sets"][0], entry["sets"][-1]))
        entry["drift"] = {}
        print(f"{workload}  failed_frac medians {[statistics.median(s['failed_frac']) for s in entry['sets']]}")
        for name, bound in bounds.items():
            change = last[name]["median"] / first[name]["median"] - 1
            drift = change if lower[name] else -change
            entry["drift"][name] = drift
            medians = [s["metrics"][name]["median"] for s in entry["sets"]]
            spreads = [s["metrics"][name]["spread"] for s in entry["sets"]]
            ok = max(spreads) <= bound and drift <= bound
            steady = steady and ok
            print(f"  {name:14} medians {' '.join(f'{m:<10.5g}' for m in medians)}"
                  f" spreads {' '.join(f'{s:.3f}' for s in spreads)} drift {drift:+.3f}"
                  f" (bound {bound}, a third {bound / 3:.3f}){'' if ok else '  OVER BOUND'}")
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for the laddercrystal package: four workloads, answers checked.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition of a sweep workload is a
fresh interpreter (cold caches, import cost as in a CLI call); every batch
of 144 point queries is one interpreter that lives for the batch.  All load
is one process with one thread.  Times are CPU times of the working process
rescaled by a reference loop run next to them (see reference_seconds in
workloads.py).  With --trace 0 the last line of stdout is a JSON object with
the end-to-end metrics named in BENCHMARK.json; with --trace 1 it carries
the per-layer metrics from a traced run, plus the tracing overhead against
an untraced run of the same inputs.  The lines before it give the metrics
as a table, the failure fraction, and the run's metadata.  The exit code is
1 when an answer is wrong, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "laddercrystal")
sys.path.insert(0, HERE)

from workloads import REFERENCE_EVERY, REFERENCE_S, WORKLOADS  # noqa: E402

IMPORT_SAMPLES = 31  # fresh interpreters timed for setup_s
MIN_REPS = 3  # sweep repetitions, however short the run
# Smoothing windows of the percentiles, in points either side.  The median
# of the point queries falls among the cheap ones, whose mix moves with the
# seed, so it averages over the middle tenth.
P50_POINTS, P90_POINTS = 0.05, 0.02
# A point-query batch (144 queries, so 14 lie beyond p90 even in a one-batch run) runs in a
# fresh process: the caches never evict, and about 170 MB per batch would pile up otherwise.
BATCH_S = 5.0  # wall time of one batch, interpreter start and checks included, on a 2-core VM
CHILD_TIMEOUT_S = 150
IMPORT_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.process_time(); "
    "import laddercrystal; t = time.process_time() - t; "
    "from workloads import reference_seconds; print(t, reference_seconds(), reference_seconds())"
)


def child(args: list[str]) -> tuple[str, str, int]:
    """Run one interpreter to completion; returns (stdout, stderr, exit code)."""
    proc = subprocess.run(
        [sys.executable, "-I", *args], cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return proc.stdout, proc.stderr, proc.returncode


def worker(spec: dict) -> dict | None:
    out, err, code = child([os.path.join(HERE, "worker.py"), json.dumps(spec)])
    if code != 0:
        sys.stderr.write(f"worker exited with {code}:\n{err[-2000:]}\n")
        return None
    return json.loads(out)


def speed(reference_s: list[float]) -> float:
    """Factor that rescales a time measured next to these reference loops to the reference speed."""
    return REFERENCE_S / statistics.mean(reference_s)


def query_speeds(out: dict) -> list[float]:
    """Per query of a batch, the factor of the two reference loops on either
    side of its stretch of REFERENCE_EVERY queries.  The worker runs two loops
    before the batch, one after each stretch but the last, and two after."""
    reference = out["reference_s"]
    return [speed(reference[1 + k // REFERENCE_EVERY:3 + k // REFERENCE_EVERY]) for k in range(len(out["latencies"]))]


def import_seconds() -> tuple[float, float]:
    """Median time to import the package in a fresh interpreter (after one warm-up),
    rescaled to the reference speed and as measured."""
    samples, raw = [], []
    for k in range(IMPORT_SAMPLES + 1):
        out, err, code = child(["-c", IMPORT_CODE, SRC, HERE])
        if code != 0:
            raise RuntimeError(f"cannot import laddercrystal:\n{err[-2000:]}")
        if k:  # the first import may compile bytecode
            seconds, *reference = map(float, out.split())
            samples.append(seconds * speed(reference))
            raw.append(seconds)
    return statistics.median(samples), statistics.median(raw)


def percentile(ordered: list[float], p: float, points: float) -> float:
    """Smoothed percentile of an already ranked list: the mean of the values
    ranked within the given share of p, and at least one rank either side of it.

    The point-query latencies are a few dozen distinct costs repeated per
    batch, so a single rank would jump between them from seed to seed; a
    sweep run has only a few dozen calls, so a single rank is one call."""
    n = len(ordered)
    at, half = min(n - 1, int(p * n)), max(1, int(points * n))
    return statistics.mean(ordered[max(0, at - half):at + half + 1])


class Tally:
    """Operations attempted, failed (raised or wrong), and the wrong answers."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong: list[str] = []
        self.answers: set[str] = set()

    def add_rep(self, out: dict | None) -> bool:
        """Count one sweep repetition; True when it completed with right answers."""
        self.attempted += 1
        if out is None or out["failed"]:
            self.failed += 1
            self.wrong.append(f"sweep failed: {out and out['failed']}")
            return False
        self.answers.add(out["answer"])
        if out["errors"]:
            self.failed += 1
            self.wrong.extend(out["errors"])
            return False
        return True

    def add_queries(self, out: dict | None) -> None:
        if out is None:
            self.attempted += 1
            self.failed += 1
            self.wrong.append("point-query process failed")
            return
        self.attempted += len(out["latencies"])
        self.failed += sum(out["failed"]) + len(out["errors"])
        self.wrong.extend(out["errors"])
        self.answers.add(out["answer"])


def run_sweep(name: str, seed: int, seconds: float, tiny: bool, tally: Tally) -> tuple[dict, dict, dict | None]:
    spec = {"workload": name, "seed": seed, "tiny": tiny, "trace": False}
    calls, sweeps, raw, rss, first = [], [], [], [], None
    start = perf_counter()
    while len(calls) < MIN_REPS or perf_counter() - start < seconds:
        out = worker(spec)
        first = first or out
        if tally.add_rep(out):
            factor = speed(out["reference_s"])
            calls.append(out["call_s"] * factor)
            sweeps.append(out["sweep_s"] * factor)
            raw.append(out["sweep_s"])
            rss.append(out["peak_rss_kb"])
        elif tally.failed >= MIN_REPS:
            break  # the sweep is deterministic, so it will keep failing
    if not calls:
        return {}, {}, first
    metrics = {
        "sweep_s": statistics.mean(sweeps),
        "query_p50_ms": 1000 * percentile(sorted(calls), 0.5, P50_POINTS),
        "query_p90_ms": 1000 * percentile(sorted(calls), 0.9, P90_POINTS),
        "queries_per_s": len(calls) / sum(calls),
        "peak_rss_mb": statistics.median(rss) / 1024,
    }
    notes = {
        "sweep_s": f"mean of {len(sweeps)} sweeps, each in a fresh interpreter, import excluded; "
        f"as measured {statistics.mean(raw):.4g}",
        "query_p50_ms": f"one query = one CLI-like call (interpreter start, imports, sweep); {len(calls)} calls",
        "query_p90_ms": f"smoothed percentile over {len(calls)} calls",
    }
    return metrics, notes, first


def run_queries(seed: int, seconds: float, tiny: bool, tally: Tally) -> tuple[dict, dict, dict | None]:
    """As many batches as fill the run's seconds at BATCH_S each, each in a fresh process.

    The count follows from the seconds alone, not from the clock, so every run
    with the same seconds attempts the same queries and fails the same ones."""
    failed, latencies, kinds, batch_s, raw, rss, first = [], [], [], [], [], [], None
    for batch in range(max(1, round(seconds / BATCH_S))):
        spec = {"workload": "point_queries", "seed": seed, "tiny": tiny, "trace": False, "batch": batch}
        out = worker(spec)
        tally.add_queries(out)
        if out is None:
            return {}, {}, first
        first = first or out
        scaled = [lat * factor for lat, factor in zip(out["latencies"], query_speeds(out))]
        failed += out["failed"]
        kinds += out["kinds"]
        latencies += scaled
        batch_s.append(sum(scaled))
        raw.append(out["batch_s"])
        rss.append(out["peak_rss_kb"])
    # Failed queries rank as slowest; a failed query's value is the time it ran before failing.
    ranked = [lat for _, lat in sorted(zip(failed, latencies))]
    metrics = {
        "sweep_s": statistics.mean(batch_s),
        "query_p50_ms": 1000 * percentile(ranked, 0.5, P50_POINTS),
        "query_p90_ms": 1000 * percentile(ranked, 0.9, P90_POINTS),
        "queries_per_s": (len(ranked) - sum(failed)) / sum(batch_s),
        "peak_rss_mb": statistics.median(rss) / 1024,
    }
    failed_kinds: dict[str, int] = {}
    for kind, fail in zip(kinds, failed):
        failed_kinds[kind] = failed_kinds.get(kind, 0) + fail
    notes = {
        "sweep_s": f"mean of {len(batch_s)} batches of {len(ranked) // len(batch_s)} queries; "
        f"as measured {statistics.mean(raw):.4g}",
        "query_p50_ms": f"{len(ranked)} queries, closed loop, one client",
        "query_p90_ms": f"smoothed percentile, {len(ranked) - int(0.9 * len(ranked)) - max(1, int(P90_POINTS * len(ranked))) - 1} "
        "queries beyond its window",
        "peak_rss_mb": "median over processes, each after one batch",
        "failed_by_kind": json.dumps(failed_kinds),
    }
    return metrics, notes, first


def trace_sweep(name: str, seed: int, seconds: float, tiny: bool, tally: Tally) -> tuple[dict, dict, dict | None]:
    """Alternate untraced and traced repetitions; per-layer medians over the traced ones."""
    plain, traced, layers, first = [], [], [], None
    start = perf_counter()
    while len(traced) < 2 or perf_counter() - start < seconds:
        for trace in (False, True):
            out = worker({"workload": name, "seed": seed, "tiny": tiny, "trace": trace})
            first = first or out
            if not tally.add_rep(out):
                return {}, {}, first
            (traced if trace else plain).append(out["sweep_s"] * speed(out["reference_s"]))
            if trace:
                layers.append(out["layers"])
    metrics = {key: statistics.median(rep[key] for rep in layers) for key in layers[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    note = f"median of {len(traced)} traced over median of {len(plain)} untraced sweeps"
    return metrics, {"trace.overhead": note}, first


def trace_queries(seed: int, tiny: bool, tally: Tally) -> tuple[dict, dict, dict | None]:
    """One batch untraced, then the same batch traced, each in a fresh process."""
    runs = []
    for trace in (False, True):
        spec = {"workload": "point_queries", "seed": seed, "tiny": tiny, "trace": trace, "batch": 0}
        out = worker(spec)
        tally.add_queries(out)
        if out is None:
            return {}, {}, None
        runs.append(out)
    metrics = dict(runs[1]["layers"])
    plain, traced = (run["batch_s"] * speed(run["reference_s"]) for run in runs)
    metrics["trace.overhead"] = traced / plain
    return metrics, {"trace.overhead": "one batch traced over the same batch untraced"}, runs[0]


def git_sha() -> str | None:
    """HEAD's commit, read from .git without running git (None outside a clone)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for directory, subdirs, files in os.walk(PACKAGE_DIR):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for file in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(directory, file)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool, declared: dict) -> bool:
    tally = Tally()
    if trace and name == "point_queries":
        measured, notes, first = trace_queries(seed, tiny, tally)
    elif trace:
        measured, notes, first = trace_sweep(name, seed, seconds, tiny, tally)
    else:
        setup_s, setup_raw = import_seconds()
        run = run_queries if name == "point_queries" else functools.partial(run_sweep, name)
        measured, notes, first = run(seed, seconds, tiny, tally)
        measured["setup_s"] = setup_s
        notes["setup_s"] = f"median of {IMPORT_SAMPLES} imports, each in a fresh interpreter; as measured {setup_raw:.4g}"
    if trace and len(tally.answers) > 1:
        tally.wrong.append("traced and untraced answers differ")
    correct = not tally.wrong and bool(measured)
    units = declared[trace]
    missing = sorted(set(units) - set(measured))
    metrics = {key: {"value": measured.get(key, 0), "unit": unit} for key, unit in units.items()}
    meta = {
        "workload": name, "why": WORKLOADS[name].why, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "src_sha256": source_digest(),
    }
    if first:
        meta["inputs"] = first["sizes"]
        meta["inputs_sha256"] = first["inputs"]
    print(f"== {name} (seed {seed}, trace {int(trace)})")
    print("meta " + json.dumps(meta))
    for key, metric in metrics.items():
        note = notes.get(key, "")
        print(f"  {key:<48} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    for key in sorted(set(measured) - set(units)):
        print(f"  {key:<48} {measured[key]:>14.6g}        (not declared in BENCHMARK.json)")
    if missing:
        print(f"  not produced, reported as 0: {', '.join(missing)}")
    if "failed_by_kind" in notes:
        print(f"  failed queries by kind: {notes['failed_by_kind']}")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_frac':<48} {frac:>14.6g} ratio  {tally.failed} of {tally.attempted} operations")
    for message in tally.wrong[:20]:
        print(f"  WRONG: {message}")
    result = {"correct": correct, "attempted": max(1, tally.attempted), "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"package source not found at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny, declared) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())

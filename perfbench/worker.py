"""One benchmark process: a fresh interpreter that imports the package and
runs one repetition of a sweep, or one batch of point queries.

Times are CPU times of this process (time.process_time): the shared host
often deschedules it, and wall time then measures the host, not the code.

Usage: python -I perfbench/worker.py '<json spec>'

The spec holds the workload, seed, tiny flag and trace flag, and for
point_queries the batch index.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from tracer import Api, Tracer  # noqa: E402  (neither imports the package)
from workloads import REFERENCE_EVERY, WORKLOADS, digest, reference_seconds  # noqa: E402


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cpu_seconds() -> float:
    """CPU time of this process since it started, interpreter start-up included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def references(count: int = 2) -> list[float]:
    return [reference_seconds() for _ in range(count)]


def main(spec: dict) -> dict:
    import laddercrystal  # noqa: F401  (outside the benchmark's own work: a CLI call pays it too)

    start = process_time()
    workload = WORKLOADS[spec["workload"]]
    tracer = Tracer() if spec["trace"] else None
    api = Api(tracer)
    plain_api = Api()
    if spec["workload"] == "point_queries":
        out = run_queries(workload, spec, api, tracer)
    else:
        out = run_sweep(workload, spec, api, plain_api, tracer)
    # A CLI-like call: the process's CPU time less the benchmark's own work
    # (inputs, reference loops, checks).
    own_s = process_time() - start - out.get("sweep_s", 0.0)
    out["call_s"] = cpu_seconds() - own_s
    return out


def run_sweep(workload, spec: dict, api, plain_api, tracer) -> dict:
    inputs = workload.inputs(spec["seed"], spec["tiny"])
    out = {"sizes": workload.sizes(inputs), "inputs": digest(inputs), "failed": None}
    reference = references()
    if tracer:
        tracer.start()
    start = process_time()
    try:
        results = workload.run(api, inputs)
    except Exception as exc:  # a failed sweep is reported, not raised
        out["failed"] = f"{type(exc).__name__}: {exc}"
        return out
    finally:
        if tracer:
            tracer.stop()
    out["sweep_s"] = process_time() - start
    out["peak_rss_kb"] = peak_rss_kb()
    out["reference_s"] = reference + references()
    if tracer:  # read before the checks, which call the package too
        out["layers"] = layer_metrics(tracer, workload.reg_class_members(results))
    out["errors"] = workload.check(inputs, results, plain_api)
    out["answer"] = digest(workload.answer(results))
    return out


def run_queries(workload, spec: dict, api, tracer) -> dict:
    """One batch, closed loop, one client: each query is sent when the previous returns."""
    queries = workload.batch(spec["seed"], spec["batch"], spec["tiny"])
    latencies, failed, results = [], [], []
    reference = references()
    if tracer:
        tracer.start()
    for k, query in enumerate(queries):
        if k and k % REFERENCE_EVERY == 0:  # outside the timed queries
            reference.append(reference_seconds())
        t = process_time()
        try:
            answer = workload.run_query(api, query)
        except Exception as exc:  # counted as a failed query
            answer, error = type(exc).__name__, True
        else:
            error = False
        latencies.append(process_time() - t)
        failed.append(error)
        results.append(answer)
    batch_s = sum(latencies)
    if tracer:
        tracer.stop()
    out = {"latencies": latencies, "failed": failed, "batch_s": batch_s, "peak_rss_kb": peak_rss_kb()}
    out["reference_s"] = reference + references()
    out["kinds"] = [query[0] for query in queries]
    out["errors"] = [
        message
        for query, answer, error in zip(queries, results, failed)
        if not error and (message := workload.check_query(query, answer))
    ]
    out["answer"] = digest(results)
    out["sizes"] = workload.sizes(spec["tiny"])
    out["inputs"] = digest(queries)
    if tracer:
        out["layers"] = layer_metrics(tracer, 0)
    return out


def layer_metrics(tracer, reg_class_members: int) -> dict:
    out = tracer.metrics()
    # Members found per partition regularized; 1.0 when reg_class regularizes none.
    calls = tracer.regularize_calls
    out["regular.reg_class.yield"] = reg_class_members / calls if calls else float(reg_class_members > 0)
    return out


if __name__ == "__main__":
    json.dump(main(json.loads(sys.argv[1])), sys.stdout)

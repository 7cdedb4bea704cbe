"""One calculator session: a fresh single-threaded process with one client.

The client sends the next query only after the previous answer has been
checked against its oracle (closed loop).  ``run.py`` starts this script;
it takes one JSON argument:

    {"root": checkout, "workload": name, "seed": n, "trace": bool,
     "setup_only": bool, "spawn_t": monotonic time of the spawn,
     "deadline": monotonic time after which queries count as failed}

Workloads get the same dict, plus "input_dir": a directory for input files
that is removed when the session ends.

and prints two JSON lines: ``{"ready": n_queries, ...}`` when its query list
is built, then the session result.
"""

import os

from blas import BLAS_ENV

os.environ.update(BLAS_ENV)  # before anything imports numpy

import gc
import importlib
import json
import resource
import shutil
import sys
import tempfile
import time

from queries import interleave
from tracer import NullTracer, Tracer


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    out_dir = os.path.join(spec["root"], ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spec["input_dir"] = tempfile.mkdtemp(dir=out_dir)  # input files, if any
    try:
        run_session(spec)
    finally:
        shutil.rmtree(spec["input_dir"], ignore_errors=True)


def run_session(spec):
    tracer = Tracer() if spec["trace"] else NullTracer()
    workload = importlib.import_module(f"wl_{spec['workload']}")
    if spec["trace"]:
        tracer.install()
    queries = interleave(workload.build(spec, tracer))
    # set-up data is long-lived: keep the collector from rescanning it in
    # every query, which charges the program for the benchmark's inputs
    gc.freeze()
    setup_s = time.monotonic() - spec["spawn_t"]
    print(json.dumps({"ready": len(queries), "setup_s": setup_s}), flush=True)
    if spec["setup_only"]:
        return

    latencies, failures = [], []
    for i, q in enumerate(queries):
        if time.monotonic() > spec["deadline"]:
            latencies.append([None, q.kind])
            failures.append({"query": i, "kind": q.kind, "layer": q.layer,
                             "detail": "not finished at the run's time limit"})
            continue
        tracer.query = i
        t0 = time.perf_counter()
        try:
            with tracer.span("query"):
                answer = q.run()
            latency = time.perf_counter() - t0
            problem = q.check(answer)
        except Exception as exc:  # a failed query is reported, not fatal
            latency = time.perf_counter() - t0
            problem = f"{type(exc).__name__}: {exc}"
        latencies.append([latency, q.kind])
        if problem is not None:
            failures.append({"query": i, "kind": q.kind, "layer": q.layer,
                             "detail": str(problem)})
    tracer.query = None
    wall_s = time.monotonic() - spec["spawn_t"] - setup_s

    failed_by_layer = {}
    for f in failures:
        key = f"{f['layer']}.failed"
        failed_by_layer[key] = failed_by_layer.get(key, 0) + 1
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "attempted": len(queries),
        "latencies": latencies,
        "failures": failures,
        "failed_by_layer": failed_by_layer,
        "peak_rss_mb": _peak_rss_mb(
            resource.RUSAGE_CHILDREN if workload.MEASURES_CHILDREN
            else resource.RUSAGE_SELF
        ),
    }
    if spec["trace"]:
        result["self_s"] = tracer.self_times()
        result["counters"] = tracer.counters
        result["trace"] = tracer.dump()
        result["extra"] = getattr(workload, "traced_extra", dict)()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

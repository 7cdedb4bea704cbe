"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 26 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each session is a fresh single-threaded process (``session.py``) driven
closed-loop by one client.  A run starts sessions until the next one would
end after ``--seconds``, at least two, then repeats set-up alone until it
has three set-up samples.  With ``--trace 1`` it alternates untraced and
traced sessions and reports per-layer numbers and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
and ``.perfbench_out/<workload>-seed<n>-trace<t>.json`` hold the run
environment, sample counts, where each percentile falls, every failed query
and, when traced, the spans.  See README.md for the workloads.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from blas import BLAS_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact", "mesh", "numeric", "cli")
MIN_SESSIONS = 2  # the fastest repeat needs at least two
SETUP_SAMPLES = 3
QUERY_LIMIT_S = 120  # queries not finished this long after the run starts fail
KILL_GRACE_S = 20  # a session still running then is killed

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# query_p50_ms and query_tail_ms are reported in the lines before the result,
# with where they land, but are not end-to-end metrics: on the shared machine
# this was written on they moved 20-40% between runs of the same code
# whenever the machine's speed changed, past the largest bound allowed.
LAYER_TIMES = [
    "rootsys.build_root_system", "rootsys.minimal_level_k0", "rootsys.alcove",
    "rootsys.face_centralizer",
    "intlinalg.smith_normal_form", "intlinalg.solve_rational",
    "grpcoh.group_cohomology_U1", "grpcoh.center_of",
    "deligne.dd_class", "deligne.solve_trivialization",
    "deligne.trivialization_defect", "deligne.deligne_differential",
    "deligne.is_cocycle", "deligne.cochain_add", "deligne.zero_cochain",
    "nerve.mesh", "nerve.nerve",
    "holonomy.surface_holonomy", "holonomy.stokes_check",
    "holonomy.random_assignment",
    "lienum.integrate_H_SU2", "lienum.BallQuadrature",
    "lienum.pullback_H_integral", "lienum.amplitude_ratio",
    "lienum.fd_exterior_derivative", "lienum.alcove_projection",
    "serialize.to_json", "serialize.from_json",
    "cli.import", "cli.k0", "cli.alcove", "cli.centralizer", "cli.grpcoh",
    "cli.deligne", "cli.holonomy", "cli.lienum",
]
LAYER_CALLS = [
    "rootsys.build_root_system", "rootsys.face_centralizer",
    "intlinalg.smith_normal_form", "grpcoh.group_cohomology_U1",
    "deligne.dd_class", "deligne.solve_trivialization",
    "deligne.deligne_differential", "holonomy.surface_holonomy",
    "holonomy.stokes_check", "lienum.fd_exterior_derivative",
]
LAYER_COUNTERS = [
    "rootsys.roots", "intlinalg.snf_entries", "intlinalg.snf_nnz",
    "grpcoh.bar_rows", "deligne.cochain_entries", "nerve.faces",
    "nerve.simplices", "lienum.quad_points", "serialize.bytes",
]
MODULES = ["rootsys", "intlinalg", "grpcoh", "deligne", "nerve", "holonomy",
           "lienum", "serialize", "cli"]


def per_layer_units():
    units = {f"{name}.s": "s" for name in LAYER_TIMES}
    units.update({f"{name}.calls": "count" for name in LAYER_CALLS})
    units.update({name: "count" for name in LAYER_COUNTERS})
    units.update({f"{m}.failed": "count" for m in MODULES})
    units["trace.overhead_s"] = "s"
    return units


def environment():
    env = {"python": sys.version.split()[0]}
    for lib in ("numpy", "scipy"):
        try:
            env[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            env[lib] = "missing"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        env["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        env["git_sha"] = "unknown"
    env["nproc"] = os.cpu_count()
    env["cpus_usable"] = len(os.sched_getaffinity(0))
    env["blas_threads"] = dict(BLAS_ENV)
    env["loadavg_start"] = list(os.getloadavg())
    return env


def nearest_rank(sorted_lat, p):
    return sorted_lat[max(0, math.ceil(p / 100.0 * len(sorted_lat)) - 1)]


def tail_percentile(n):
    """Highest whole percentile with at least 10 queries beyond it."""
    p = math.floor(100.0 * (1.0 - 10.0 / n)) if n > 10 else 0
    while p > 0 and n - math.ceil(p / 100.0 * n) < 10:
        p -= 1
    return max(p, 50)


class Runner:
    """Starts the sessions of one run, each in a fresh process."""

    def __init__(self, workload, seed, run_start):
        self.workload = workload
        self.seed = seed
        self.deadline = run_start + QUERY_LIMIT_S
        self.env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src")}

    def session(self, trace=False, setup_only=False):
        spawn_t = time.monotonic()
        spec = {"root": str(ROOT), "workload": self.workload, "seed": self.seed,
                "trace": trace, "setup_only": setup_only, "spawn_t": spawn_t,
                "deadline": self.deadline}
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "session.py"), json.dumps(spec)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline + KILL_GRACE_S - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        lines = [json.loads(x) for x in out.splitlines() if x.startswith("{")]
        ready = next((x for x in lines if "ready" in x), None)
        done = next((x for x in lines if "wall_s" in x), None)
        if setup_only and ready is not None and proc.returncode == 0:
            return {"setup_s": ready["setup_s"]}
        if done is None or proc.returncode != 0:
            planned = ready["ready"] if ready else 1
            return {"crashed": True, "attempted": planned, "failures": [
                {"query": None, "kind": "session", "layer": "session",
                 "detail": f"session exited {proc.returncode}: {err.strip()[-500:]}"}
            ] * planned}
        return done


def kind_totals(latencies):
    """{kind: [queries, total seconds]}, to check how a session is sized."""
    out = {}
    for t, kind in latencies:
        n, total = out.get(kind, (0, 0.0))
        out[kind] = [n + 1, total + t]
    return out


def summarize(sessions, setups):
    """End-to-end metrics of a run, and the latency percentiles.

    Every session of a run answers the same queries, each in a fresh
    process.  A query's latency is the fastest of its repeats and wall_s is
    the fastest session: on a shared machine CPU speed drops by up to half
    for seconds at a time, and the fastest repeat is the figure that
    repeats from run to run.  setup_s is the median of the set-ups.
    """
    best = []
    for repeats in zip(*(s["latencies"] for s in sessions)):
        done = [r for r in repeats if r[0] is not None]
        if done:
            best.append(min(done))
    lat = sorted(best)
    n = len(lat)
    p_tail = tail_percentile(n)
    p50, tail = nearest_rank(lat, 50), nearest_rank(lat, p_tail)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": min(s["wall_s"] for s in sessions),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
    }
    detail = {
        "sessions": len(sessions), "setup_samples": len(setups), "queries": n,
        "query_p50_ms": 1000 * p50[0], "p50_kind": p50[1],
        "query_tail_ms": 1000 * tail[0], "tail_percentile": p_tail,
        "tail_kind": tail[1],
        "session_wall_s": [s["wall_s"] for s in sessions],
        "by_kind": kind_totals(lat),
    }
    return metrics, detail


def run(workload, seed, seconds, trace):
    run_start = time.monotonic()
    env = environment()
    runner = Runner(workload, seed, run_start)
    untraced, traced = [], []
    while True:
        t0 = time.monotonic()
        untraced.append(runner.session())
        if trace:
            traced.append(runner.session(trace=True))
        took = time.monotonic() - t0
        enough = trace or len(untraced) >= MIN_SESSIONS
        if enough and time.monotonic() - run_start + took > seconds:
            break
    setups = [s["setup_s"] for s in untraced if "setup_s" in s]
    while len(setups) < SETUP_SAMPLES:
        s = runner.session(setup_only=True)
        if "setup_s" not in s:
            untraced.append(s)
            break
        setups.append(s["setup_s"])

    everything = untraced + traced
    attempted = sum(s["attempted"] for s in everything)
    failures = [f for s in everything for f in s["failures"]]
    measured = [s for s in (traced if trace else untraced) if not s.get("crashed")]
    if trace and all(s.get("crashed") for s in untraced):
        measured = []  # the tracing overhead needs an untraced session
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env,
              "attempted": attempted, "failed": len(failures),
              "failed_frac": len(failures) / attempted, "failures": failures}
    if measured and trace:
        metrics, report["detail"] = per_layer(untraced, measured)
        report["spans"] = [s["trace"] for s in measured]
    elif measured and setups:
        values, report["detail"] = summarize(measured, setups)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        metrics = None
    report["metrics"] = metrics
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(report, indent=1))

    print(f"# environment: {json.dumps(env)}")
    for key, val in report.get("detail", {}).items():
        print(f"# {key}: {json.dumps(val)}")
    print(f"# failed_frac: {report['failed_frac']} ({len(failures)} of {attempted})")
    for f in failures:
        print(f"# FAILED {f['kind']} #{f['query']}: {f['detail']}")
    print(f"# full report: {out_file.relative_to(ROOT)}")
    if metrics is None:
        print("error: no session finished, so nothing was measured", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def per_layer(untraced, traced):
    """Median over traced sessions of each per-layer metric.

    A layer the workload does not use reports 0.
    """
    units = per_layer_units()
    samples = []
    for s in traced:
        values = {**s["counters"], **s["failed_by_layer"], **s["extra"]}
        values.update({f"{name}.s": t for name, t in s["self_s"].items()})
        samples.append(values)
    metrics = {name: statistics.median(v.get(name, 0) for v in samples)
               for name in units}
    plain = [s["wall_s"] for s in untraced if not s.get("crashed")]
    metrics["trace.overhead_s"] = (
        statistics.median(s["wall_s"] for s in traced) - statistics.median(plain)
    )
    detail = {"traced_sessions": len(traced), "untraced_sessions": len(plain)}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gerbecalc" / "cli.py").is_file():
        print(f"error: no gerbecalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

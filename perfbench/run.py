"""Benchmark of the glue -> Newton -> certify pipeline.

    python3 perfbench/run.py --workload {newton,frozen,spectrum,sweep} \\
        --seed N --seconds S --trace {0,1} [--quick]

Runs as many passes of the workload as fit in S seconds (at least one),
each in a fresh process (workloads.py).  With --trace 0 it reports the
end-to-end metrics named in BENCHMARK.json, and fills the time left with
set-up-only processes until set-up has been timed MIN_SETUPS times; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics.  Every pass checks its outputs
against reference.json.  The line before last is a record of the run
(environment, seed, pass count, per-pass samples and case results); the
last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--quick runs small configurations, for the benchmark's own tests.  Exits
non-zero without a result when a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run must end within 180 s; no pass starts that could end after this.
RUN_LIMIT_S = 150.0

# setup_s is a median over at least this many set-ups when time allows.
MIN_SETUPS = 5

# The program is single-threaded; keep BLAS and OpenMP pools from
# competing with it on a two-core machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def pass_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class PassFailed(Exception):
    pass


def run_pass(args, traced, workdir, env, deadline, setup_only=False):
    """One pass in a fresh process; returns its record."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0", "--workdir", workdir]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise PassFailed("pass exceeded the run's time limit")
    if proc.returncode != 0:
        raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise PassFailed("pass printed no record")
    return json.loads(lines[-1])


def run_passes(args):
    """Untraced pass records, traced pass records, and set-up times."""
    env = pass_env()
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    end = min(start + args.seconds, limit)
    plain, traced = [], []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        while True:
            plain.append(run_pass(args, False, workdir, env, limit))
            if args.trace:
                traced.append(run_pass(args, True, workdir, env, limit))
            # start another round only if it should end in time
            now = time.monotonic()
            if now + (now - start) / len(plain) > end:
                break
        setups = [{k: r[k] for k in ("setup_s", "raw_setup_s")} for r in plain]
        while not args.trace and len(setups) < MIN_SETUPS:
            t = time.monotonic()
            if t + 1.2 * statistics.mean(s["raw_setup_s"] for s in setups) > end:
                break
            setups.append(run_pass(args, False, workdir, env, limit, setup_only=True))
    return plain, traced, setups


def _cases(records):
    return [c for r in records for c in r["cases"]]


def end_to_end(plain, setups):
    cases = _cases(plain)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "pass_frac": sum(c["ok"] for c in cases) / len(cases),
    }
    if all("max_residual" in r for r in plain):
        metrics["max_residual"] = max(r["max_residual"] for r in plain)
        metrics["e2_drift"] = max(r["e2_drift"] for r in plain)
    return metrics


def per_layer(plain, traced):
    layers = [r["layers"] for r in traced]
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(r["raw_wall_s"] for r in traced)
                                   - statistics.median(r["raw_wall_s"] for r in plain))
    return metrics


def main(argv=None):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="Benchmark of the glue -> Newton -> certify pipeline.")
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small configurations (self-tests)")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running pass,
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        plain, traced, setups = run_passes(args)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    records = plain + traced
    cases = _cases(records)
    values = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no figures for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quick": args.quick, "seconds": args.seconds,
        "passes": len(plain), "traced_passes": len(traced),
        "environment": {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
                        "affinity": len(os.sched_getaffinity(0)),
                        **records[0]["environment"],
                        "threads": {v: "1" for v in THREAD_VARS}},
        "samples": {"wall_s": [r["wall_s"] for r in plain],
                    "raw_wall_s": [r["raw_wall_s"] for r in plain],
                    "wall_speed": [r.get("wall_speed") for r in plain],
                    "setup_s": [s["setup_s"] for s in setups],
                    "raw_setup_s": [s["raw_setup_s"] for s in setups],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in plain]},
        "traced_wall_s": [r["wall_s"] for r in traced],
        "digests": sorted({r["digest"] for r in records}),
        "cases": [{k: c[k] for k in ("key", "ok", "matches", "problem")} for c in cases],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": all(c["matches"] for c in cases), "attempted": len(cases),
                      "failed": sum(not c["ok"] for c in cases), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

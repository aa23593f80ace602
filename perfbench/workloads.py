"""One benchmark pass: set up a workload, time it, check its outputs.

Run by ``run.py`` in a fresh process per pass, so every pass pays the
process-lifetime costs (imports, lazily filled caches) that a command-line
user pays on each invocation:

    python3 perfbench/workloads.py --workload newton --seed 0 --trace 0 \\
        --t0 <time.monotonic() at spawn> --workdir <scratch dir> [--quick] \\
        [--setup-only]

The last line of standard output is one JSON object describing the pass.
Exit code 2 means the pass could not set up (for example, the program's
sources are missing).

Cases and why each workload exists (details in README.md):

* ``newton``   -- ``dehnfill solve`` end to end; per-node stencil assembly
                  dominates.
* ``frozen``   -- the same solve in frozen-Jacobian mode: one matrix should
                  serve many residual-only steps.
* ``spectrum`` -- singular-value probes of solved profiles; banded forward
                  and transpose solves dominate.
* ``sweep``    -- ``sweep``, ``estimate`` and ``norms`` through the CLI;
                  arclength tables dominate, no stencil or solver code runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# The workload seed selects one of this many recorded input sets
# (estimate/norms draws and the spectral start vector).
INPUT_SEEDS = 16

SOLVE_TOL = 1e-8

CONFIGS = {
    "full": {
        "newton": [(3, 10, 2048), (4, 20, 8192), (6, 12, 1024)],
        "frozen": [(3, 10, 2048), (4, 20, 2048), (6, 12, 1024)],
        "spectrum": {"count": (3, 10, 2048), "conjugate": (4, 20, 2048)},
        "sweep": {"n": 4, "radii": "8,16,32,64", "estimate": (32, 50),
                  "norms": (64, 16384)},
    },
    "quick": {
        "newton": [(3, 10, 256), (6, 12, 128)],
        "frozen": [(3, 10, 256)],
        "spectrum": {"count": (3, 10, 256), "conjugate": (4, 20, 256)},
        "sweep": {"n": 4, "radii": "4,8,16", "estimate": (16, 5),
                  "norms": (16, 1024)},
    },
}

WORKLOADS = ("newton", "frozen", "spectrum", "sweep")

# -- reference comparison -------------------------------------------------------
#
# Tolerances, per field:
#   exact             integers, flags, CSV header and comment lines
#   floor             |x - ref| <= 2 max(tol, reference final residual): residual
#                     level quantities sit at the solve's roundoff floor, which a
#                     reordering of the arithmetic may move
#   rtol 1e-6         quantities set by a converged solve or a dense sample
#   rtol 1e-9         closed-form or seeded quantities
#   atol 1e-9         slope and the unit-frame u matrix

EXACT = {"iterations", "converged", "c_k_index"}
FLOOR = {"final_max_residual", "e2_drift"}
RTOL_6 = {"cone_angle_ratio", "singular_values", "weighted_residual"}
RTOL_9 = {"R", "ell", "fitted_constant", "sup", "star", "double_star",
          "double_star_constructive"}
ATOL_9 = {"slope", "u_matrix"}


def _close(got, ref, rtol=0.0, atol=0.0):
    import numpy as np
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(
        np.all(np.abs(got - ref) <= rtol * np.abs(ref) + atol))


def _e2_scale(n):
    return 2.0 * (n - 1) * (n - 2) if n > 3 else 4.0


def _compare_csv(got, ref, floor, n):
    """Residual CSV: s, r columns to rtol 1e-9; E1 and relative E2 to the floor."""
    import numpy as np
    if got["lines"] != ref["lines"] or got["rows"] != ref["rows"]:
        return "header or row count differs"
    atol = np.full(len(ref["colmax"]), floor)
    atol[-1] = floor * _e2_scale(n)
    rtol = np.zeros_like(atol)
    rtol[:2] = 1e-9
    atol[:2] = 0.0
    for name in ("sample", "colmax"):
        g = np.asarray(got[name], dtype=float)
        r = np.asarray(ref[name], dtype=float)
        if g.shape != r.shape or np.any(np.abs(g - r) > rtol * np.abs(r) + atol):
            return f"residual CSV {name} differs"
    return None


def compare(fields, ref):
    """First mismatch between a case's outputs and its reference, or None."""
    floor = 2.0 * max(SOLVE_TOL, ref.get("final_max_residual", 0.0))
    for name, value in fields.items():
        if name not in ref:
            return f"no reference for {name}"
        expect = ref[name]
        if name == "residual_csv":
            bad = _compare_csv(value, expect, floor, ref["n"])
            if bad:
                return bad
            continue
        if name in EXACT or name == "n":
            ok = value == expect
        elif name in FLOOR:
            ok = _close(value, expect, atol=floor)
        elif name in RTOL_6:
            ok = _close(value, expect, rtol=1e-6)
        elif name in RTOL_9:
            ok = _close(value, expect, rtol=1e-9)
        elif name in ATOL_9:
            ok = _close(value, expect, atol=1e-9)
        else:
            return f"no tolerance for {name}"
        if not ok:
            return f"{name}: got {value!r}, reference {expect!r}"
    return None


# -- cases ----------------------------------------------------------------------

class Case:
    """One unit of timed work plus its reference checks.

    run() is the timed part; outputs() (untimed) returns the list of
    (reference key, fields) pairs to compare and the bytes for the digest.
    failure() names how the operation itself failed, or is None.
    """

    def run(self):
        raise NotImplementedError

    def outputs(self):
        raise NotImplementedError

    def failure(self):
        return None


def _solve_key(n, ell, nodes, mode):
    return f"solve n={n} ell={ell} nodes={nodes} mode={mode}"


def _csv_summary(text):
    """Header lines, sampled rows and column maxima of a residual CSV."""
    import numpy as np
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    head.append(lines[len(head)])
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[len(head):]])
    stride = max(1, data.shape[0] // 128)
    return {"lines": head, "rows": int(data.shape[0]),
            "sample": data[::stride].tolist(),
            "colmax": np.abs(data).max(axis=0).tolist()}


class SolveCase(Case):
    """``dehnfill solve`` with the JSON report and the residual CSV."""

    def __init__(self, n, ell, nodes, mode, workdir):
        self.n = n
        self.key = _solve_key(n, ell, nodes, mode)
        stem = os.path.join(workdir, f"solve-{n}-{ell}-{nodes}-{mode}")
        self.report, self.csv = stem + ".json", stem + ".csv"
        self.argv = ["solve", "--n", str(n), "--ell", str(ell), "--nodes", str(nodes),
                     "--tol", repr(SOLVE_TOL), "--mode", mode,
                     "--out", self.report, "--residuals", self.csv]
        self.rc = None
        self.doc = None

    def run(self):
        from dehnfill import cli
        self.rc = cli.main(self.argv)

    def outputs(self):
        with open(self.report, "rb") as fh:
            raw_report = fh.read()
        with open(self.csv, "rb") as fh:
            raw_csv = fh.read()
        self.doc = json.loads(raw_report)
        fields = {k: self.doc[k] for k in ("iterations", "converged", "final_max_residual",
                                           "e2_drift", "cone_angle_ratio")}
        fields["n"] = self.n
        fields["residual_csv"] = _csv_summary(raw_csv.decode("utf-8"))
        return [(self.key, fields)], raw_report + raw_csv

    def failure(self):
        if self.rc != 0:
            return f"exit code {self.rc}"
        if not self.doc["converged"]:
            return f"converged: false ({self.doc['message']})"
        return None

    def quality(self):
        if self.doc is None:
            return None
        return self.doc["final_max_residual"], self.doc["e2_drift"]


def _solved(n, ell, nodes):
    """Glue and Newton-solve through the library (spectrum set-up)."""
    from dehnfill import gluing, solver
    profile = gluing.glue(n, ell, 4.0, nodes)
    final, report = solver.newton_solve(profile, solver.SolverConfig(residual_tolerance=SOLVE_TOL))
    fields = {"iterations": report.iterations, "converged": report.converged,
              "final_max_residual": report.residual_history[-1],
              "e2_drift": report.e2_drift, "cone_angle_ratio": report.cone_angle_ratio}
    return final, (_solve_key(n, ell, nodes, "newton"), fields)


class SpectrumCase(Case):
    """kernel_spectrum on a solved profile, plain or weight-conjugated."""

    def __init__(self, n, ell, nodes, conjugate, seed):
        self.profile, self.solve_check = _solved(n, ell, nodes)
        self.conjugate, self.seed = conjugate, seed
        self.count = 1 if conjugate else 3
        kind = "sigma_min conjugate" if conjugate else f"kernel_spectrum count={self.count}"
        self.key = f"{kind} n={n} ell={ell} nodes={nodes} seed={seed}"
        self.values = None

    def run(self):
        from dehnfill import gluing, solver
        p = self.profile
        wf = gluing.WeightFunction(p.n, p.cap_radius) if self.conjugate else None
        self.values = solver.kernel_spectrum(p, count=self.count, weight_fn=wf,
                                             conjugate=self.conjugate, seed=self.seed)

    def outputs(self):
        sv = [float(x) for x in self.values]
        return ([self.solve_check, (self.key, {"singular_values": sv})],
                repr(sv).encode())

    def failure(self):
        return None if self.solve_check[1]["converged"] else "set-up solve did not converge"

    def quality(self):
        f = self.solve_check[1]
        return f["final_max_residual"], f["e2_drift"]


class CliJsonCase(Case):
    """A CLI subcommand writing one JSON document; fields read from it."""

    def __init__(self, key, argv, fields, workdir):
        self.key = key
        self.path = os.path.join(workdir, key.split()[0] + ".json")
        self.argv = argv + ["--format", "json", "--out", self.path]
        self.fields = fields
        self.rc = None

    def run(self):
        from dehnfill import cli
        self.rc = cli.main(self.argv)

    def outputs(self):
        with open(self.path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        return [(self.key, {k: doc[k] for k in self.fields})], raw

    def failure(self):
        return None if self.rc == 0 else f"exit code {self.rc}"


class SweepCase(CliJsonCase):
    """``dehnfill sweep``; its quality is that of its most perturbed glued end."""

    def __init__(self, n, radii, workdir):
        super().__init__(f"sweep n={n} R={radii}", ["sweep", "--n", str(n), "--R", radii],
                         ("R", "ell", "weighted_residual", "slope"), workdir)
        self.n = n

    def quality(self):
        """Largest E1 and relative E2 at the smallest cap radius, sampled as
        the sweep samples it."""
        import numpy as np
        from dehnfill import gluing
        if not os.path.exists(self.path):
            return None
        with open(self.path, encoding="utf-8") as fh:
            ell = json.load(fh)["ell"][0]
        end = gluing.GluedEnd(self.n, ell)
        r = np.linspace(end.rp * 1.01, end.r_out, 4000)
        e1t, e1x, e2 = end.normalized_residual(r)
        return (float(max(np.abs(e1t).max(), np.abs(e1x).max())),
                float(np.abs(e2).max() / _e2_scale(self.n)))


def build_cases(workload, scale, seed, workdir):
    """The workload's cases; everything built here counts as set-up."""
    cfg = CONFIGS[scale][workload]
    if workload in ("newton", "frozen"):
        mode = "newton" if workload == "newton" else "frozen_jacobian"
        return [SolveCase(n, ell, nodes, mode, workdir) for n, ell, nodes in cfg]
    if workload == "spectrum":
        return [SpectrumCase(*cfg["count"], False, seed),
                SpectrumCase(*cfg["conjugate"], True, seed)]
    n, radii = cfg["n"], cfg["radii"]
    (r_est, trials), (r_norm, nodes) = cfg["estimate"], cfg["norms"]
    return [
        SweepCase(n, radii, workdir),
        CliJsonCase(f"estimate n={n} R={r_est} trials={trials} seed={seed}",
                    ["estimate", "--n", str(n), "--R", str(r_est), "--trials", str(trials),
                     "--seed", str(seed)],
                    ("fitted_constant",), workdir),
        CliJsonCase(f"norms n={n} R={r_norm} nodes={nodes} seed={seed}",
                    ["norms", "--n", str(n), "--R", str(r_norm), "--nodes", str(nodes),
                     "--seed", str(seed)],
                    ("sup", "star", "double_star", "double_star_constructive",
                     "u_matrix", "c_k_index"), workdir),
    ]


def quality(cases):
    """(max_residual, e2_drift): the largest final normalized E1 and relative
    E2 over the profiles the workload ends with, or None without outputs.
    Solves report their own; spectrum probes report those of the solved
    profiles they run on."""
    pairs = [q for q in (c.quality() for c in cases if hasattr(c, "quality")) if q]
    if not pairs:
        return None
    return max(p[0] for p in pairs), max(p[1] for p in pairs)


# -- host speed probe -----------------------------------------------------------
#
# The host's speed drifts: a fixed pure-Python loop ran up to 1.7x slower in
# some phases than in others, phases lasting from seconds to minutes, and
# whole passes ran up to 1.6x slower.  Timings are therefore reported at a
# reference host speed.  A timer interrupts the pass process every
# PROBE_PERIOD_S to time a fixed probe; a timed interval's seconds, less the
# probes inside it, are multiplied by the host's speed over the interval:
# the mean of PROBE_REF_S / duration over the probes inside it.  (A mean of
# speeds weights each moment by its length, which matches how the interval
# accrued its time, and a probe stretched by a context switch barely moves
# it.)  The probe runs between bytecodes, so it never splits a native call,
# and it touches none of the program's state.
#
# Interpreter-bound and array-bound code slow down by different amounts, so
# the probe matches the workload: a Python loop, plus for ARRAY_BOUND
# workloads passes over a 2 MB array.  With the loop alone, the sweep's
# spread grew (0.10 to 0.12) while the others' shrank.

PROBE_PERIOD_S = 0.1
PROBE_LOOP = 20_000
PROBE_ARRAY = 1 << 18
ARRAY_BOUND = {"sweep"}
# nominal probe durations; they set the scale of reported times
PROBE_REF_S = {False: 2.0e-3, True: 5.0e-3}


class SpeedProbe:
    """Periodic timings of a fixed probe, on the time.monotonic clock."""

    def __init__(self, array_bound):
        self.array_bound = array_bound
        self.array = None
        self.samples = []        # (start, duration)

    def _probe(self, _signum, _frame):
        start = time.monotonic()
        acc = 0
        for j in range(PROBE_LOOP):
            acc += j * j % 7
        if self.array is not None:
            for _ in range(3):
                self.array.cumsum()
        self.samples.append((start, time.monotonic() - start))

    def start(self):
        if self.array_bound:
            import numpy as np
            self.array = np.random.default_rng(0).standard_normal(PROBE_ARRAY)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interval(self, a, b):
        """(seconds, seconds at the reference speed, host speed) of [a, b]."""
        inside = [d for t, d in self.samples if a <= t < b]
        raw = b - a - sum(inside)
        basis = inside or [d for _, d in self.samples]
        ref = PROBE_REF_S[self.array_bound]
        speed = statistics.mean(ref / d for d in basis) if basis else 1.0
        return raw, raw * speed, speed


# -- one pass -------------------------------------------------------------------

def run_pass(workload, seed, traced, scale, workdir, t0, reference, setup_only=False,
             probe=None):
    """Set up, time and check one pass; returns the pass record.

    t0 is the time.monotonic() at which the process was spawned.  With a
    running SpeedProbe, times are reported at the reference host speed.
    """
    cases = build_cases(workload, scale, seed % INPUT_SEEDS, workdir)
    setup_end = time.monotonic()
    if setup_only:
        return _timings(probe, "setup", t0, setup_end)
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    errors = {}
    start = time.monotonic()
    for case in cases:
        try:
            case.run()
        except Exception:      # a failing case is counted, the pass goes on
            errors[case.key] = traceback.format_exc(limit=3)
    end = time.monotonic()
    if probe is not None:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    digest = hashlib.sha256()
    results = []
    for case in cases:
        entry = {"key": case.key, "ok": False, "matches": False, "problem": errors.get(case.key)}
        if entry["problem"] is None:
            try:
                checks, raw = case.outputs()
            except (OSError, ValueError, KeyError) as exc:
                entry["problem"] = f"unreadable output: {exc!r}"
            else:
                digest.update(raw)
                problems = [p for p in (compare(f, reference[k]) if k in reference
                                        else f"no reference for case {k!r}"
                                        for k, f in checks) if p]
                entry["matches"] = not problems
                entry["problem"] = problems[0] if problems else case.failure()
                entry["ok"] = entry["problem"] is None
        results.append(entry)
    record = {**_timings(probe, "setup", t0, setup_end), **_timings(probe, "wall", start, end),
              "peak_rss_mb": peak_rss_mb, "cases": results, "digest": digest.hexdigest()}
    figures = quality(cases)
    if figures is not None:
        record["max_residual"], record["e2_drift"] = figures
    if tracer is not None:
        record["layers"] = tracer.summary(end - start)
    return record


def _timings(probe, name, a, b):
    if probe is None:
        return {f"{name}_s": b - a, f"raw_{name}_s": b - a}
    raw, at_ref, speed = probe.interval(a, b)
    return {f"{name}_s": at_ref, f"raw_{name}_s": raw, f"{name}_speed": speed}


def environment():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true", help="time set-up, run no pass")
    args = ap.parse_args(argv)
    probe = None
    if not args.trace:       # a traced pass reports raw self times
        probe = SpeedProbe(args.workload in ARRAY_BOUND)
        probe.start()
    try:
        import dehnfill
        if os.path.dirname(os.path.dirname(os.path.abspath(dehnfill.__file__))) != SRC:
            raise ImportError(f"dehnfill imported from {dehnfill.__file__}, not from {SRC}")
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)["cases"]
        with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
            record = run_pass(args.workload, args.seed, bool(args.trace),
                              "quick" if args.quick else "full", workdir, args.t0,
                              reference, args.setup_only, probe)
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: pass could not run: {exc!r}", file=sys.stderr)
        return 2
    finally:
        if probe is not None:
            probe.stop()
    record["environment"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

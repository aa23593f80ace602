"""Per-layer spans for a traced benchmark pass.

The program is not instrumented.  `install` replaces each layer's public
callables with a wrapper, wherever callers look them up: on the class for
methods, and in every loaded ``dehnfill`` module namespace for functions
(names bound by ``from ... import`` live in the importer's namespace, e.g.
``solver.einstein_residual`` or ``solver.weighted_norms``).  Each call
records a span (name, bucket, parent, start, end) in memory; `summary`
turns the spans into self times per bucket (span minus child spans) and
call counts once the pass is over.

The program is single-threaded, so spans nest strictly and no wait time
is recorded.
"""

from __future__ import annotations

import functools
import sys
import time

# Time buckets, in the order they are reported.  Every wrapped callable
# charges its self time to exactly one bucket, so the buckets plus the
# time outside any span add up to the traced wall time.
TIME_BUCKETS = (
    "geometry.arclength_s",
    "stencils.partials_s",
    "stencils.jacobian_s",
    "stencils.residual_s",
    "solver.assemble_s",
    "solver.solve_s",
    "solver.tsolve_s",
    "solver.newton_self_s",
    "solver.probe_s",
    "operators.residual_s",
    "gluing.glue_s",
    "gluing.norms_s",
    "gluing.sweep_s",
    "asymptotics.bvp_s",
    "asymptotics.harness_s",
    "cli.self_s",
)

# Call counts: metric -> span names whose calls it counts.
CALL_COUNTS = {
    "geometry.arclength_builds": ("ArclengthMap.__init__",),
    "stencils.builds": ("DiagonalSystem.__init__",),
    "solver.assemblies": ("BandedLinearization.__init__",),
    "solver.solves": ("BandedLinearization.solve",),
    "solver.tsolves": ("BandedLinearization.solve_transpose",),
    "operators.residual_calls": ("einstein_residual",),
    "gluing.norms_calls": ("weighted_norms", "double_star_norm"),
    "asymptotics.bvp_calls": ("solve_euler_bvp",),
}


def _system_bucket(args, kwargs):
    # DiagonalSystem(self, n, s, f, partials=False, s_zone=None)
    partials = kwargs.get("partials", args[4] if len(args) > 4 else False)
    return "stencils.partials_s" if partials else "stencils.residual_s"


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []          # [name, bucket, parent index, start, end]
        self.counters = {"geometry.arclength_points": 0, "solver.iterations": 0,
                         "cli.bytes_out": 0}
        self._open = []          # indices of open spans
        self._assembly_ids = 0
        self._assemblies_used = set()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, bucket, fn, after=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b = bucket(args, kwargs) if callable(bucket) else bucket
            span = [name, b, open_[-1] if open_ else -1, clock(), 0.0]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _arclength_built(self, args, _):
        self.counters["geometry.arclength_points"] += int(args[0]._s_of_sigma.x.size)

    def _assembly_built(self, args, _):
        args[0]._perfbench_assembly = self._assembly_ids
        self._assembly_ids += 1

    def _assembly_used(self, args, _):
        self._assemblies_used.add(args[0]._perfbench_assembly)

    def _newton_done(self, _, result):
        self.counters["solver.iterations"] += int(result[1].iterations)

    def _written(self, args, _):
        self.counters["cli.bytes_out"] += len(args[1].encode("utf-8"))

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap the layers' public callables; `uninstall` restores them."""
        from dehnfill import (_stencils, asymptotics, cli, geometry, gluing,
                              operators, solver)
        methods = [
            (geometry.ArclengthMap, "__init__", "geometry.arclength_s", self._arclength_built),
            (geometry.ArclengthMap, "s_of_r", "geometry.arclength_s", None),
            (geometry.ArclengthMap, "sigma_of_s", "geometry.arclength_s", None),
            (geometry.ArclengthMap, "r_of_s", "geometry.arclength_s", None),
            (geometry.ArclengthMap, "offset_of_s", "geometry.arclength_s", None),
            (_stencils.DiagonalSystem, "__init__", _system_bucket, None),
            (_stencils.DiagonalSystem, "residual", "stencils.residual_s", None),
            (_stencils.DiagonalSystem, "jacobian_triples", "stencils.jacobian_s", None),
            (solver.BandedLinearization, "__init__", "solver.assemble_s", self._assembly_built),
            (solver.BandedLinearization, "residual_vector", "solver.assemble_s", None),
            (solver.BandedLinearization, "solve", "solver.solve_s", self._assembly_used),
            (solver.BandedLinearization, "solve_transpose", "solver.tsolve_s", self._assembly_used),
            (solver.BandedLinearization, "sigma_min", "solver.probe_s", None),
            (gluing.GluedEnd, "__init__", "gluing.glue_s", None),
            (gluing.GluedEnd, "to_profile", "gluing.glue_s", None),
        ]
        functions = [
            (solver.newton_solve, "solver.newton_self_s", self._newton_done),
            (solver.kernel_spectrum, "solver.probe_s", None),
            (operators.einstein_residual, "operators.residual_s", None),
            (gluing.glue, "gluing.glue_s", None),
            (gluing.weighted_norms, "gluing.norms_s", None),
            (gluing.double_star_norm, "gluing.norms_s", None),
            (gluing.residual_decay_sweep, "gluing.sweep_s", None),
            (asymptotics.solve_euler_bvp, "asymptotics.bvp_s", None),
            (asymptotics.ugly_estimate_harness, "asymptotics.harness_s", None),
            (cli.main, "cli.self_s", None),
            (cli._write_output, "cli.self_s", self._written),
        ]
        for cls, attr, bucket, after in methods:
            fn = cls.__dict__[attr]
            self._set(cls, attr, fn,
                      self._wrap(f"{cls.__name__}.{attr}", bucket, fn, after))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dehnfill" or name.startswith("dehnfill."))]
        for fn, bucket, after in functions:
            wrapper = self._wrap(fn.__name__, bucket, fn, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, fn, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary -----------------------------------------------------------

    def summary(self, wall_s):
        """Per-layer metrics of a pass whose timed region took wall_s."""
        times = dict.fromkeys(TIME_BUCKETS, 0.0)
        calls = {}
        top = 0.0
        for name, bucket, parent, start, end in self.spans:
            dur = end - start
            times[bucket] += dur
            if parent >= 0:
                times[self.spans[parent][1]] -= dur
            else:
                top += dur
            calls[name] = calls.get(name, 0) + 1
        out = dict(times)
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(calls.get(n, 0) for n in names)
        out.update(self.counters)
        built = self._assembly_ids
        out["solver.assembly_use"] = len(self._assemblies_used) / built if built else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.other_s"] = wall_s - top
        return out

"""Command-line front end.

Subcommands: curvature, glue, solve, kernel, norms, sweep, estimate.
Configuration comes from a flat key=value file and/or flags (flags win).
Outputs are CSV or JSON with the resolved configuration echoed, byte
identical for identical configuration and seed.  Exit codes: 0 success,
1 solver divergence (report still written), 2 configuration error,
3 numerical failure (infs or NaNs reached a linear solve).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import asymptotics, gluing, solver
from .geometry import r_plus, sectional_curvatures, v_profile

FORMAT_VERSION = 1

# the keys a configuration file may set, each with its parser
_KEY_CASTS = {"n": int, "nodes": int, "trials": int, "seed": int,
              "samples": int, "ell": float, "outer_factor": float,
              "tol": float, "alpha": float, "r_min": float, "r_max": float,
              "mode": str, "out": str, "format": str, "R": str}


class ConfigError(Exception):
    pass


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _load_config_file(path):
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _KEY_CASTS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            cfg[key] = val
    return cfg


def _resolve(args, defaults, casts=None):
    casts = {**_KEY_CASTS, **(casts or {})}
    cfg = dict(defaults)
    if getattr(args, "config", None):
        for key, val in _load_config_file(args.config).items():
            if key in cfg:
                try:
                    cfg[key] = casts[key](val)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key}: {exc}")
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    missing = [k for k, v in cfg.items() if v is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")
    for key, val in cfg.items():
        if isinstance(val, float) and not np.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val!r}")
    return cfg


def _write_output(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(config, header, rows, extra_comments=()):
    lines = [f"# format_version={FORMAT_VERSION}"]
    for key in sorted(config):
        if key == "out":        # destination path is not run configuration
            continue
        lines.append(f"# {key}={_fmt(config[key])}")
    lines.extend(extra_comments)
    lines.append(",".join(header))
    # every value is a float (or np.float64), so "%.17g" is _fmt's format
    fmt = ",".join(["%.17g"] * len(header))
    lines.extend(fmt % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(config, payload):
    config = {k: v for k, v in config.items() if k != "out"}
    doc = {"format_version": FORMAT_VERSION, "config": config}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def cmd_curvature(args):
    cfg = _resolve(args, {"n": None, "r_min": None, "r_max": None,
                          "samples": 50, "out": "-", "format": "csv"})
    n = cfg["n"]
    if cfg["r_min"] > cfg["r_max"] or cfg["samples"] < 1:
        raise ConfigError("empty radial range")
    if cfg["r_min"] < r_plus(n):
        raise ConfigError(f"r must start at or above r_plus = {r_plus(n):.6f}")
    try:
        r = np.linspace(cfg["r_min"], cfg["r_max"], cfg["samples"])
        k12, k1i, kij = sectional_curvatures(n, r)
        v, vp, _ = v_profile(n, r)
        rows = zip(r, np.atleast_1d(k12), np.atleast_1d(k1i), np.atleast_1d(kij),
                   np.atleast_1d(v), np.atleast_1d(vp))
        text = _csv(cfg, ["r", "K12", "K1i", "Kij", "V", "Vp"], rows)
    except MemoryError:
        raise ConfigError(f"--r asks for {cfg['samples']} samples, more than "
                          f"fit in memory")
    _write_output(cfg["out"], text)
    return 0


def _residual_csv(cfg, profile):
    from .operators import einstein_residual
    res = einstein_residual(profile)
    header = ["s", "r"] + [f"E1_{i}{i}" for i in range(2, profile.n + 1)] + ["E2"]
    rows = np.vstack([res.s, res.r, res.e1, res.e2]).T.tolist()
    return _csv(cfg, header, rows)


def _profile_csv(cfg, profile):
    header = ["s", "r"] + [f"f{i}" for i in range(2, profile.n + 1)]
    rows = np.vstack([profile.s, profile.r, profile.f]).T.tolist()
    return _csv(cfg, header, rows,
                extra_comments=[f"# theta_period={_fmt(profile.theta_period)}",
                                f"# cap_radius={_fmt(profile.cap_radius or 0.0)}"])


def _check_nodes(cfg, least):
    if cfg["nodes"] < least:
        raise ConfigError(f"--nodes must be at least {least}, got {cfg['nodes']}")


def _glued(cfg):
    """The glued profile of glue and solve."""
    _check_nodes(cfg, gluing.MIN_NODES)
    return gluing.glue(cfg["n"], cfg["ell"], cfg["outer_factor"], cfg["nodes"])


def cmd_glue(args):
    cfg = _resolve(args, {"n": None, "ell": None, "nodes": 2048,
                          "outer_factor": 4.0, "out": "-", "format": "csv"})
    profile = _glued(cfg)
    _write_output(cfg["out"], _profile_csv(cfg, profile))
    if getattr(args, "residuals", None):
        _write_output(args.residuals, _residual_csv(cfg, profile))
    return 0


def cmd_solve(args):
    cfg = _resolve(args, {"n": None, "ell": None, "nodes": 2048,
                          "outer_factor": 4.0, "tol": 1e-8, "mode": "newton",
                          "out": "-", "format": "json"})
    if not cfg["tol"] > 0:
        raise ConfigError(f"--tol must be positive, got {cfg['tol']:g}")
    profile = _glued(cfg)
    if not gluing.fits_window(profile.r):   # the norms of every iterate need it
        raise ConfigError(f"--nodes {cfg['nodes']} is too few for the seminorm "
                          f"window at --ell {cfg['ell']:g}")
    config = solver.SolverConfig(residual_tolerance=cfg["tol"], mode=cfg["mode"])
    final, report = solver.newton_solve(profile, config)
    payload = {
        "converged": report.converged,
        "diverged": report.diverged,
        "iterations": report.iterations,
        "final_max_residual": report.residual_history[-1],
        "residual_history": report.residual_history,
        "star_history": report.star_history,
        "double_star_history": report.double_star_history,
        "convergence_orders": report.convergence_orders,
        "e2_drift": report.e2_drift,
        "cone_angle_ratio": report.cone_angle_ratio,
        "message": report.message,
    }
    if cfg["format"] == "csv":
        _write_output(cfg["out"], _profile_csv(cfg, final))
    else:
        _write_output(cfg["out"], _json(cfg, payload))
    if getattr(args, "residuals", None):
        _write_output(args.residuals, _residual_csv(cfg, final))
    return 0 if not report.diverged else 1


def cmd_kernel(args):
    cfg = _resolve(args, {"n": None, "out": "-", "format": "json"})
    modes, dim = asymptotics.cusp_kernel_classification(cfg["n"])
    exps = asymptotics.cusp_block_exponents(cfg["n"])
    payload = {
        "dimension": dim,
        "exponents": {k: list(v) for k, v in exps.items()},
        "admissible_modes": {k: v for k, v in modes.items() if k != "description"},
        "description": modes["description"],
        "strict_dimension": asymptotics.cusp_kernel_classification(
            cfg["n"], strict=True)[1],
    }
    _write_output(cfg["out"], _json(cfg, payload))
    return 0


def cmd_norms(args):
    cfg = _resolve(args, {"n": None, "R": None, "nodes": 2048, "seed": 0,
                          "out": "-", "format": "json"}, casts={"R": float})
    n, R = cfg["n"], cfg["R"]
    from .geometry import RadialGrid
    from .operators import InvariantTensor
    _check_nodes(cfg, 3)
    r = np.linspace(r_plus(n) * 1.01, R, cfg["nodes"])
    if not gluing.fits_window(r):
        raise ConfigError(f"--nodes {cfg['nodes']} is too few for the seminorm "
                          f"window at --R {R:g}")
    rng = np.random.Generator(np.random.Philox(cfg["seed"]))
    grid = RadialGrid(r, n)
    k = n - 1
    hij = rng.standard_normal((r.size, k, k))
    hij = 0.5 * (hij + np.swapaxes(hij, 1, 2)) * (r**2)[:, None, None]
    h = InvariantTensor(grid, rng.standard_normal(r.size) / r**2,
                        rng.standard_normal((k, r.size)), hij)
    wf = gluing.WeightFunction(n, R)
    rep = gluing.double_star_norm(h, wf)
    payload = {"sup": rep.sup, "star": rep.star, "double_star": rep.double_star,
               "double_star_constructive": rep.double_star_constructive,
               "u_matrix": rep.u, "c_k_index": rep.c_k_index}
    _write_output(cfg["out"], _json(cfg, payload))
    return 0


def cmd_sweep(args):
    cfg = _resolve(args, {"n": None, "R": None, "outer_factor": 4.0,
                          "out": "-", "format": "csv"})
    radii = np.array([float(x) for x in str(cfg["R"]).split(",")])
    table = gluing.residual_decay_sweep(cfg["n"], radii=radii,
                                        r_out_factor=cfg["outer_factor"])
    rows = zip(table["R"], table["ell"], table["residual"])
    text = _csv(cfg, ["R", "ell", "weighted_residual"], rows,
                extra_comments=[f"# slope={_fmt(table['slope'])}"])
    if cfg["format"] == "json":
        text = _json(cfg, {"R": table["R"], "ell": table["ell"],
                           "weighted_residual": table["residual"],
                           "slope": table["slope"]})
    _write_output(cfg["out"], text)
    return 0


def cmd_estimate(args):
    cfg = _resolve(args, {"n": None, "R": None, "alpha": 0.5, "trials": 50,
                          "seed": 0, "nodes": 1024, "out": "-", "format": "json"},
                   casts={"R": float})
    _check_nodes(cfg, asymptotics.MIN_NODES)
    c_fit = asymptotics.ugly_estimate_harness(cfg["n"], cfg["R"], cfg["alpha"],
                                              trials=cfg["trials"],
                                              seed=cfg["seed"],
                                              nodes=cfg["nodes"])
    _write_output(cfg["out"], _json(cfg, {"fitted_constant": c_fit}))
    return 0


def _add_common(p):
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--out", help="output path ('-' for stdout)")
    p.add_argument("--format", choices=["csv", "json"])


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dehnfill",
        description="Einstein metrics on Dehn-filled ends: model metrics, "
                    "gluing, weighted norms, and Newton solvers.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="sectional curvatures of the cap metric")
    p.add_argument("--n", type=int)
    p.add_argument("--r", dest="r_range", nargs=3,
                   metavar=("MIN", "MAX", "SAMPLES"))
    _add_common(p)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("glue", help="build the glued almost-Einstein profile")
    p.add_argument("--n", type=int)
    p.add_argument("--ell", type=float)
    p.add_argument("--nodes", type=int)
    p.add_argument("--outer-factor", dest="outer_factor", type=float)
    p.add_argument("--residuals", help="also write the residual field CSV here")
    _add_common(p)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("solve", help="Newton-solve the glued profile")
    p.add_argument("--n", type=int)
    p.add_argument("--ell", type=float)
    p.add_argument("--nodes", type=int)
    p.add_argument("--outer-factor", dest="outer_factor", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--mode", choices=["newton", "frozen_jacobian"])
    p.add_argument("--residuals", help="also write the residual field CSV here")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kernel", help="decaying-kernel classification on the cusp")
    p.add_argument("--n", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("norms", help="weighted norms of a seeded random tensor")
    p.add_argument("--n", type=int)
    p.add_argument("--R", type=float)
    p.add_argument("--nodes", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("sweep", help="glued-residual decay against cap radius")
    p.add_argument("--n", type=int)
    p.add_argument("--R", type=str, help="comma-separated cap radii")
    p.add_argument("--outer-factor", dest="outer_factor", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("estimate", help="randomized interior-bound harness")
    p.add_argument("--n", type=int)
    p.add_argument("--R", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--nodes", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_estimate)
    return ap


def _split_r_range(args):
    """--r MIN MAX SAMPLES: two numbers and a positive integer literal."""
    lo, hi, samples = args.r_range
    try:
        args.r_min, args.r_max, args.samples = float(lo), float(hi), int(samples)
    except ValueError:
        args.samples = 0
    if args.samples < 1:
        raise ConfigError(f"--r takes two numbers and a positive integer, "
                          f"got {' '.join(args.r_range)}")


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "r_range", None) is not None:
            _split_r_range(args)
        return args.func(args)
    except solver.NumericalError as exc:
        print(f"dehnfill: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"dehnfill: configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

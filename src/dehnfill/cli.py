"""Command-line front end.

Subcommands, each with the formats it writes (the first is its default):
curvature (csv), glue (csv), solve (json, csv), kernel (json), norms (json),
sweep (csv, json), estimate (json).  Each option is declared once, with its
type, default and domain, in _COMMANDS, from which the flags, their help, the
defaults, the value checks and the keys a flat key=value configuration file
may set all derive; flags win over the file.  Outputs echo the resolved
configuration, byte identical for identical configuration and seed.  Exit
codes: 0 success, 1 solver divergence (report still written), 2 configuration
error (among them a format the command does not write, and a size too large
to allocate), 3 numerical failure (infs or NaNs reached a linear solve), 4 no
convergence: a stall or the iteration cap (report still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import sys

import numpy as np

from . import asymptotics, gluing, solver
from .geometry import (RadialGrid, r_plus, radius_for_meridian, sectional_curvatures,
                       v_profile)
from .operators import InvariantTensor, einstein_residual

FORMAT_VERSION = 1
_R_SQUARE_MAX = np.finfo(float).max ** 0.5     # curvature's r_max, where r^2 stays finite


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
            if key not in _FILE_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            cfg[key] = val
    return cfg


def _resolve(args):
    """The command's defaults, overridden by the file, then by the flags, checked."""
    options = _options(args.command)
    cfg = {key: default for key, (_, default, _) in options.items()}
    in_file = _load_config_file(args.config) if args.config else {}
    for key, (kind, _, _) in options.items():
        if key in in_file:          # the file's keys of other commands are ignored
            cast = str if isinstance(kind, tuple) else kind
            try:
                cfg[key] = cast(in_file[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {_name(key)}: {exc}")
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    missing = [_name(k) for k, v in cfg.items() if v is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")
    for key, val in cfg.items():
        kind, _, domain = options[key]
        if isinstance(kind, tuple) and val not in kind:
            raise ConfigError(f"{_name(key)} must be one of {', '.join(kind)}, got {val!r}")
        if isinstance(val, float) and not np.isfinite(val):
            raise ConfigError(f"{_name(key)} must be finite, got {val!r}")
        for op, bound in _bounds(domain):
            limit = _OF_N[bound](cfg["n"]) if bound in _OF_N else bound
            if not _HOLDS[op](val, limit):
                shown = f"{bound} = {limit!r}" if bound in _OF_N else bound
                raise ConfigError(f"{_name(key)} must be {op} {shown}, got {val!r}")
    return cfg


def _write_output(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(config, header, table, extra_comments=()):
    """The CSV text: a comment preamble of the configuration, the header, and
    one line per row of the 2-D float table, each value as "%.17g" writes it."""
    lines = [f"# format_version={FORMAT_VERSION}"]
    for key in sorted(config):
        if key == "out":        # destination path is not run configuration
            continue
        lines.append(f"# {key}={_fmt(config[key])}")
    lines.extend(extra_comments)
    lines.append(",".join(header))
    from ._csvtext import csv_lines     # its tables cost the JSON commands nothing
    return csv_lines(table, "\n".join(lines) + "\n")


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


def cmd_curvature(cfg, args):
    lo, hi = cfg["r_min"], cfg["r_max"]
    if lo > hi:
        raise ConfigError(f"empty radial range: {_name('r_max')} {hi!r} is below "
                          f"{_name('r_min')} {lo!r}")
    if hi > _R_SQUARE_MAX:
        raise ConfigError(f"{_name('r_max')} {hi!r} is beyond {_R_SQUARE_MAX:.3g}, "
                          f"where V ~ r^2 overflows")
    try:
        r = np.linspace(lo, hi, cfg["samples"])
        k12, k1i, kij = sectional_curvatures(cfg["n"], r)
        v, vp, _ = v_profile(cfg["n"], r)
        text = _csv(cfg, ["r", "K12", "K1i", "Kij", "V", "Vp"],
                    np.column_stack([r, k12, k1i, kij, v, vp]))
    except MemoryError:
        raise ConfigError(f"--r asks for {cfg['samples']} samples, more than "
                          f"fit in memory")
    _write_output(cfg["out"], text)
    return 0


def _residual_csv(cfg, profile):
    res = einstein_residual(profile)
    header = ["s", "r"] + [f"E1_{i}{i}" for i in range(2, profile.n + 1)] + ["E2"]
    return _csv(cfg, header, np.vstack([res.s, res.r, res.e1, res.e2]).T)


def _profile_csv(cfg, profile):
    header = ["s", "r"] + [f"f{i}" for i in range(2, profile.n + 1)]
    return _csv(cfg, header, np.vstack([profile.s, profile.r, profile.f]).T,
                extra_comments=[f"# theta_period={_fmt(profile.theta_period)}",
                                f"# cap_radius={_fmt(profile.cap_radius or 0.0)}"])


def _check_outer_radius(cfg, R):
    """The glued end of cap radius R reaches out to outer_factor * R, which
    must stay below gluing.R_MAX; an R at or past it is --R's or --ell's fault."""
    r_out = cfg["outer_factor"] * R
    if R < gluing.R_MAX <= r_out:
        raise ConfigError(f"{_name('outer_factor')} {cfg['outer_factor']!r} puts the outer "
                          f"radius of cap radius {R:g} at {r_out:g}, beyond "
                          f"{gluing.R_MAX:.3g}, where V^2 overflows")


def _glued(cfg):
    """The glued profile of glue and solve."""
    _check_outer_radius(cfg, radius_for_meridian(cfg["n"], cfg["ell"]))
    return gluing.glue(cfg["n"], cfg["ell"], cfg["outer_factor"], cfg["nodes"])


def cmd_glue(cfg, args):
    profile = _glued(cfg)
    _write_output(cfg["out"], _profile_csv(cfg, profile))
    if args.residuals:
        _write_output(args.residuals, _residual_csv(cfg, profile))
    return 0


def cmd_solve(cfg, args):
    profile = _glued(cfg)
    if not gluing.fits_window(profile.r):   # the norms of every iterate need it
        raise ConfigError(f"--nodes {cfg['nodes']} is too few for the seminorm "
                          f"window at --ell {cfg['ell']:g}")
    config = solver.SolverConfig(residual_tolerance=cfg["tol"], mode=cfg["mode"])
    final, report = solver.newton_solve(profile, config)
    if cfg["format"] == "csv":
        _write_output(cfg["out"], _profile_csv(cfg, final))
    else:
        payload = {**dataclasses.asdict(report),
                   "final_max_residual": report.residual_history[-1]}
        _write_output(cfg["out"], _json(cfg, payload))
    if args.residuals:
        _write_output(args.residuals, _residual_csv(cfg, final))
    return 0 if report.converged else 1 if report.diverged else 4


def cmd_kernel(cfg, args):
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


def cmd_norms(cfg, args):
    n, R = cfg["n"], cfg["R"]
    r = np.linspace(_OF_N["1.01 r_plus"](n), R, cfg["nodes"])
    if not (np.diff(r).min() > 0 and gluing.fits_window(r)):
        raise ConfigError(f"--nodes {cfg['nodes']} from 1.01 r_plus to --R {R!r} "
                          f"are not distinct, or too sparse for the seminorm window")
    rng = np.random.Generator(np.random.Philox(cfg["seed"]))
    grid = RadialGrid(r, n)
    k = n - 1
    hij = rng.standard_normal((r.size, k, k))
    hij = hij + np.swapaxes(hij, 1, 2)      # 0.5 (b + b^T) r^2, one temporary
    hij *= 0.5
    hij *= (r**2)[:, None, None]
    h = InvariantTensor(grid, rng.standard_normal(r.size) / r**2,
                        rng.standard_normal((k, r.size)), hij)
    wf = gluing.WeightFunction(n, R)
    rep = gluing.double_star_norm(h, wf)
    payload = {"sup": rep.sup, "star": rep.star, "double_star": rep.double_star,
               "double_star_constructive": rep.double_star_constructive,
               "u_matrix": rep.u, "c_k_index": rep.c_k_index}
    _write_output(cfg["out"], _json(cfg, payload))
    return 0


def cmd_sweep(cfg, args):
    try:
        radii = np.array([float(x) for x in cfg["R"].split(",")])
    except ValueError as exc:       # its message quotes the bad entry
        raise ConfigError(f"--R takes comma-separated numbers: {exc}") from None
    _check_outer_radius(cfg, radii.max())
    table = gluing.residual_decay_sweep(cfg["n"], radii=radii,
                                        r_out_factor=cfg["outer_factor"])
    if cfg["format"] == "json":
        text = _json(cfg, {"R": table["R"], "ell": table["ell"],
                           "weighted_residual": table["residual"],
                           "slope": table["slope"]})
    else:
        text = _csv(cfg, ["R", "ell", "weighted_residual"],
                    np.column_stack([table["R"], table["ell"], table["residual"]]),
                    extra_comments=[f"# slope={_fmt(table['slope'])}"])
    _write_output(cfg["out"], text)
    return 0


def cmd_estimate(cfg, args):
    c_fit = asymptotics.ugly_estimate_harness(cfg["n"], cfg["R"], cfg["alpha"],
                                              trials=cfg["trials"],
                                              seed=cfg["seed"],
                                              nodes=cfg["nodes"])
    _write_output(cfg["out"], _json(cfg, {"fitted_constant": c_fit}))
    return 0


_N = (int, None, ("at least", 3))
_GLUED = {"n": _N, "ell": (float, None, ("above", 0)),
          "nodes": (int, 2048, ("at least", gluing.MIN_NODES)),
          "outer_factor": (float, 4.0, ("above", 1))}
# command -> (its function, help, the formats it writes, its options as
# key -> (type, default, domain)).  The first format is the default; a tuple
# type lists the values an option may take; a None default marks a required
# option; a domain, (word, bound) pairs laid end to end with word "above",
# "at least" or "below", or None for every value, bounds the values, a bound
# named in _OF_N being that function of n, which each command lists first.
# Every command also takes out and format.
_COMMANDS = {
    "curvature": (cmd_curvature, "sectional curvatures of the cap metric", ("csv",),
                  {"n": _N, "r_min": (float, None, ("at least", "r_plus")),
                   "r_max": (float, None, None), "samples": (int, 50, ("at least", 1))}),
    "glue": (cmd_glue, "build the glued almost-Einstein profile", ("csv",), _GLUED),
    "solve": (cmd_solve, "Newton-solve the glued profile", ("json", "csv"),
              {**_GLUED, "tol": (float, 1e-8, ("above", 0)),
               "mode": (solver.MODES, "newton", None)}),
    "kernel": (cmd_kernel, "decaying-kernel classification on the cusp",
               ("json",), {"n": _N}),
    "norms": (cmd_norms, "weighted norms of a seeded random tensor", ("json",),
              {"n": _N, "R": (float, None, ("above", "1.01 r_plus")),
               "nodes": (int, 2048, ("at least", 3)), "seed": (int, 0, ("at least", 0))}),
    "sweep": (cmd_sweep, "glued-residual decay against comma-separated cap "
              "radii R", ("csv", "json"),
              {"n": _N, "R": (str, None, None), "outer_factor": _GLUED["outer_factor"]}),
    "estimate": (cmd_estimate, "randomized interior-bound harness", ("json",),
                 {"n": _N, "R": (float, None, ("above", "r_plus + 2",
                                               "below", asymptotics._R_MAX)),
                  "alpha": (float, 0.5, ("at least", 0, "below", 1)),
                  "trials": (int, 50, ("at least", 1)), "seed": (int, 0, ("at least", 0)),
                  "nodes": (int, 1024, ("at least", asymptotics.MIN_NODES))}),
}
_OF_N = {"r_plus": r_plus, "1.01 r_plus": lambda n: 1.01 * r_plus(n),
         "r_plus + 2": lambda n: r_plus(n) + 2.0}
_HOLDS = {"above": operator.gt, "at least": operator.ge, "below": operator.lt}
_BY_R = ("r_min", "r_max", "samples")     # curvature's, set by --r


def _bounds(domain):
    """The (word, bound) pairs of an option's domain."""
    return zip(domain[::2], domain[1::2]) if domain else ()


def _options(command):
    """key -> (type, default, domain) of every option of a command."""
    _, _, formats, options = _COMMANDS[command]
    return {**options, "out": (str, "-", None), "format": (formats, formats[0], None)}


def _name(key):
    """An option as messages name it: its flag, or its key where --r sets it."""
    return key if key in _BY_R else "--" + key.replace("_", "-")


# the keys a configuration file may set: those of any command
_FILE_KEYS = {key for command in _COMMANDS for key in _options(command)}


def build_parser(only=None):
    """The parser of every command, or of the command `only` alone, whose
    usage still lists every command, so that its messages read the same."""
    ap = argparse.ArgumentParser(
        prog="dehnfill",
        description="Einstein metrics on Dehn-filled ends: model metrics, "
                    "gluing, weighted norms, and Newton solvers.")
    sub = ap.add_subparsers(dest="command", required=True, metavar=None
                            if only is None else "{" + ",".join(_COMMANDS) + "}")
    for command in _COMMANDS if only is None else (only,):
        func, help_text, _, _ = _COMMANDS[command]
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key=value configuration file")
        for key, (kind, default, domain) in _options(command).items():
            choices = kind if isinstance(kind, tuple) else None
            text = "required" if default is None else f"default {default}"
            text += "".join(f", {op} {bound}" for op, bound in _bounds(domain))
            if key not in _BY_R:
                p.add_argument(_name(key), dest=key, type=str if choices else kind,
                               choices=choices, help=text)
        if command == "curvature":
            p.add_argument("--r", dest="r_range", nargs=3,
                           metavar=("MIN", "MAX", "SAMPLES"))
        if command in ("glue", "solve"):
            p.add_argument("--residuals",
                           help="also write the residual field CSV here")
    return ap


def _split_r_range(args):
    """--r MIN MAX SAMPLES: two numbers and an integer, checked by _resolve."""
    lo, hi, samples = args.r_range
    try:
        args.r_min, args.r_max, args.samples = float(lo), float(hi), int(samples)
    except ValueError:
        raise ConfigError(f"--r takes two numbers and a positive integer, "
                          f"got {' '.join(args.r_range)}") from None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # a call names its command first: only its options are declared
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        if getattr(args, "r_range", None) is not None:
            _split_r_range(args)
        return args.func(_resolve(args), args)
    except solver.NumericalError as exc:
        print(f"dehnfill: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"dehnfill: configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"dehnfill: configuration error: a size is too large to "
              f"allocate: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

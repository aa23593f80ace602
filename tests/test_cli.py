"""The command line, run in process by the golden corpus's runner.  A child
process runs a command only where the check is about a process: two
processes write the same bytes, and a capped address space makes a large
allocation fail."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from golden import corpus


def run_cli(args, out_dir="."):
    """(exit code, stdout, stderr) of one command, run in process by
    corpus.run, with RuntimeWarning raised as an error; "{dir}" in an
    argument stands for out_dir."""
    code, err, outputs = corpus.run(args, out_dir)
    return code, outputs.get("stdout", b"").decode(), err.decode()


def run_child(args, **kw):
    """One command in a child process, `python -m dehnfill.cli`."""
    return subprocess.run([sys.executable, "-m", "dehnfill.cli", *args],
                          capture_output=True, text=True, **kw)


def test_curvature_single_row(tmp_path):
    code, _, _ = run_cli(["curvature", "--n", "4", "--r", "2", "2", "1",
                          "--out", "{dir}/curv.csv"], tmp_path)
    assert code == 0
    lines = (tmp_path / "curv.csv").read_text().strip().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "r,K12,K1i,Kij,V,Vp"
    row = [float(x) for x in lines[-1].split(",")]
    assert row == [2.0, -0.75, -1.125, -0.75, 3.0, 4.5]
    assert any(l.startswith("# n=4") for l in lines)


def test_curvature_hyperbolic_rows():
    code, out, _ = run_cli(["curvature", "--n", "3", "--r", "1.5", "8", "5"])
    assert code == 0
    rows = [l for l in out.strip().splitlines()
            if not l.startswith("#") and not l.startswith("r,")]
    for row in rows:
        vals = [float(x) for x in row.split(",")]
        assert vals[1] == pytest.approx(-1.0)
        assert vals[2] == pytest.approx(-1.0)


def test_curvature_empty_range_exits_2():
    code, _, err = run_cli(["curvature", "--n", "4", "--r", "5", "2", "10"])
    assert code == 2
    assert "configuration error: empty radial range: r_max 2.0" in err


@pytest.mark.parametrize("r_max", ["1e150", str(np.finfo(float).max ** 0.5)])
def test_curvature_reaches_up_to_where_r_squared_overflows(r_max, tmp_path):
    # one float further, r_max exits 2 (in
    # test_non_finite_or_overflowing_option_exits_2)
    assert run_cli(["curvature", "--n", "4", "--r", "2", r_max, "3",
                    "--out", "{dir}/curv.csv"], tmp_path)[0] == 0
    table = _csv_numbers(tmp_path / "curv.csv")
    assert table[-1, 0] == float(r_max) and np.isfinite(table).all()


def test_kernel_json():
    code, out, _ = run_cli(["kernel", "--n", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 9
    assert doc["strict_dimension"] == 0
    assert doc["format_version"] == 1
    assert doc["config"]["n"] == 5
    assert "I" in doc["exponents"]


def test_glue_and_solve_roundtrip(tmp_path):
    code, _, _ = run_cli(["glue", "--n", "3", "--ell", "10", "--nodes", "128",
                          "--out", "{dir}/prof.csv"], tmp_path)
    assert code == 0
    text = (tmp_path / "prof.csv").read_text()
    assert text.splitlines()[0] == "# format_version=1"
    assert "s,r,f2,f3" in text

    code, out, _ = run_cli(["solve", "--n", "3", "--ell", "10", "--nodes", "256",
                            "--tol", "1e-8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["final_max_residual"] < 1e-8
    assert doc["iterations"] <= 8


def test_sweep_slope_field():
    code, out, _ = run_cli(["sweep", "--n", "3", "--R", "6,12,24"])
    assert code == 0
    slope_line = [l for l in out.splitlines() if l.startswith("# slope=")][0]
    slope = float(slope_line.split("=")[1])
    assert -2.2 < slope < -1.8


def test_norms_output():
    code, out, _ = run_cli(["norms", "--n", "4", "--R", "64", "--nodes", "400",
                            "--seed", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["double_star"] <= doc["star"] + 1e-12
    assert len(doc["u_matrix"]) == 3


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 5\n\n# comment\n")
    code, out, _ = run_cli(["kernel", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["dimension"] == 9
    _, out, _ = run_cli(["kernel", "--config", str(cfg), "--n", "4"])
    assert json.loads(out)["dimension"] == 5   # flag wins


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    code, _, err = run_cli(["kernel", "--config", str(cfg), "--n", "4"])
    assert code == 2
    assert "unknown key" in err


def test_missing_required_option_exits_2():
    assert run_cli(["glue", "--n", "3"])[0] == 2


@pytest.mark.parametrize("args", [
    ["glue", "--n", "4", "--ell", "30", "--nodes", "128", "--out", "{dir}/profile.csv"],
    ["solve", "--n", "3", "--ell", "10", "--nodes", "128", "--tol", "1e-7"],
    ["estimate", "--n", "4", "--R", "16", "--alpha", "0.5", "--trials", "5",
     "--seed", "11", "--nodes", "256"],
], ids=lambda v: v[0])
def test_two_processes_write_the_same_bytes(args, tmp_path):
    # identical configuration and seed: the same output bytes from two
    # processes of `python -m dehnfill.cli`
    written = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        res = run_child([a.replace("{dir}", str(out_dir)) for a in args])
        assert res.returncode == 0, res.stderr
        files = sorted(out_dir.iterdir())
        written.append([res.stdout, *(f.read_bytes() for f in files)])
    assert written[0] == written[1]
    assert any(written[0])


def test_residual_field_csv(tmp_path):
    code, _, _ = run_cli(["glue", "--n", "3", "--ell", "10", "--nodes", "128",
                          "--out", "{dir}/p.csv", "--residuals", "{dir}/res.csv"],
                         tmp_path)
    assert code == 0
    lines = (tmp_path / "res.csv").read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "s,r,E1_22,E1_33,E2"


def _csv_numbers(path):
    """The table of a CSV output, each field parsed back with float()."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    return np.array([[float(v) for v in l.split(",")] for l in lines])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_residual_csvs_parse_back_to_the_residual(n, tmp_path):
    # "%.17g" round-trips every double, so the glued and the solved residual
    # CSVs hold einstein_residual's arrays exactly, each field as "%.17g"
    # writes it on this Python and numpy
    from dehnfill import gluing, solver
    from dehnfill.operators import einstein_residual
    glued = gluing.glue(n, 14.0, 4.0, 256)
    solved, _ = solver.newton_solve(glued, solver.SolverConfig(residual_tolerance=1e-6))
    for command, profile in (("glue", glued), ("solve", solved)):
        out = tmp_path / f"{command}.csv"
        assert run_cli([command, "--n", str(n), "--ell", "14", "--nodes", "256",
                        *(["--tol", "1e-6"] if command == "solve" else []),
                        "--out", "{dir}/out", "--residuals", str(out)], tmp_path)[0] == 0
        res = einstein_residual(profile)
        assert np.array_equal(_csv_numbers(out),
                              np.column_stack([res.s, res.r, res.e1.T, res.e2]))
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert all(f == "%.17g" % float(f) for l in rows for f in l.split(","))


def _per_row_csv(config, header, rows, extra_comments=()):
    """_csv as it was before it took a table: one "%.17g" format a row."""
    from dehnfill import cli
    lines = [f"# format_version={cli.FORMAT_VERSION}"]
    lines += [f"# {key}={cli._fmt(config[key])}" for key in sorted(config) if key != "out"]
    lines += [*extra_comments, ",".join(header)]
    fmt = ",".join(["%.17g"] * len(header))
    lines.extend(fmt % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("table", [np.empty((0, 3)), np.array([[2.5], [-1e-300], [0.1]])],
                         ids=["no rows", "one column"])
def test_csv_writes_empty_and_one_column_tables_as_before(table):
    from dehnfill import cli
    config, header = {"n": 4, "ell": 20.0, "out": "-"}, ["a", "b", "c"][:table.shape[1]]
    assert (cli._csv(config, header, table, ["# slope=1"])
            == _per_row_csv(config, header, table.tolist(), ["# slope=1"]))


def test_sweep_json_format():
    code, out, _ = run_cli(["sweep", "--n", "3", "--R", "6,12,24", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["R"]) == 3
    assert -2.2 < doc["slope"] < -1.8


def _run_python(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_import_loads_no_optimize_or_integrate():
    # start-up cost: the package and its CLI import numpy and SciPy's
    # compiled LAPACK wrapper, not the scipy package (whose init imports
    # its test utilities, subprocess and sysconfig) nor the scipy.linalg
    # package with its array-API layer (scipy._lib._util, which pulls in
    # numpy.ma and unittest); no module of the package imports
    # scipy.optimize or scipy.integrate, which only tests use as oracles;
    # and a solve, which glues, holds its quadrature rule as constants
    # rather than importing numpy.polynomial to compute it
    heavy = ("scipy", "scipy.linalg", "scipy._lib._util", "numpy.ma", "unittest",
             "scipy.optimize", "scipy.integrate", "numpy.polynomial")
    code = ("import os, sys, dehnfill, dehnfill.cli; "
            "dehnfill.cli.main(['solve', '--n', '3', '--ell', '10', "
            "'--nodes', '256', '--out', os.devnull]); "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    assert _run_python(code) == "[]"


@pytest.mark.parametrize("first, second", [("dehnfill._lapack", "scipy.linalg"),
                                           ("scipy.linalg", "dehnfill._lapack")])
def test_lapack_routines_are_scipys(first, second):
    # dehnfill loads scipy.linalg._flapack from its file; a SciPy release
    # that moves it fails here, and either import order shares one module
    code = (f"import sys, {first}, {second}; import dehnfill._lapack as L; "
            "import scipy.linalg.lapack as S; "
            "print(L._flapack is S._flapack is sys.modules[L._NAME], "
            "all(getattr(L, f) is getattr(S, f) "
            "for f in ('dgbtrf', 'dgbtrs', 'dgtsv', 'dgeqrf', 'dormqr', "
            "'dpbtrs')))")
    assert _run_python(code) == "True True"


def test_import_loads_the_lapack_wrapper_without_scipys_package():
    # the wrapper is loaded from the file find_spec locates; on Linux it
    # finds its bundled OpenBLAS by its own RPATH, so the scipy package
    # never runs
    code = ("import sys, dehnfill, dehnfill.cli; "
            "print('scipy' in sys.modules, 'scipy.linalg._flapack' in sys.modules)")
    assert _run_python(code) == "False True"


def test_failed_wrapper_load_imports_scipy_and_loads_again():
    # where the wrapper's bundled libraries are not yet on the search path,
    # its load raises ImportError; the loader then imports scipy, whose
    # init puts them there, and loads once more
    code = ("import sys, importlib.machinery as M\n"
            "create = M.ExtensionFileLoader.create_module\n"
            "seen = []\n"
            "def create_once_scipy_runs(self, spec):\n"
            "    if spec.name == 'scipy.linalg._flapack':\n"
            "        seen.append('scipy' in sys.modules)\n"
            "        if not seen[-1]:\n"
            "            raise ImportError('bundled library not found')\n"
            "    return create(self, spec)\n"
            "M.ExtensionFileLoader.create_module = create_once_scipy_runs\n"
            "import dehnfill._lapack as L\n"
            "print(seen, L._flapack is sys.modules[L._NAME])")
    assert _run_python(code) == "[False, True] True"


def test_missing_lapack_wrapper_names_its_path(monkeypatch, tmp_path):
    import importlib.util
    from importlib.machinery import ModuleSpec

    from dehnfill import _lapack
    find_spec = importlib.util.find_spec

    def scipy_in_tmp_path(name, *args):
        if name != "scipy":
            return find_spec(name, *args)
        return ModuleSpec(name, None, origin=str(tmp_path / "__init__.py"))

    monkeypatch.delitem(sys.modules, _lapack._NAME)
    monkeypatch.setattr(importlib.util, "find_spec", scipy_in_tmp_path)
    looked_for = re.escape(str(tmp_path / "linalg" / "_flapack"))
    with pytest.raises(ImportError, match=looked_for):
        _lapack._load_flapack()


def test_numerical_failure_exits_3(monkeypatch):
    from dehnfill import solver

    def nan_solve(profile, config):
        raise solver.NumericalError("the Newton matrix holds infs or NaNs")

    monkeypatch.setattr(solver, "newton_solve", nan_solve)
    code, _, err = run_cli(["solve", "--n", "3", "--ell", "10", "--nodes", "128"])
    assert code == 3
    assert err.startswith("dehnfill: numerical failure: ")
    assert "configuration error" not in err


@pytest.mark.parametrize("args, cap, message", [
    # tol 1e-14 is below the roundoff floor of 512 nodes
    (["--nodes", "512", "--tol", "1e-14"], None, "residual stalled at the roundoff floor"),
    (["--nodes", "256"], 1, "maximum iterations reached"),
])
def test_unconverged_solve_exits_4_and_writes_its_report(
        args, cap, message, monkeypatch, tmp_path):
    import functools

    from dehnfill import solver
    if cap is not None:
        monkeypatch.setattr(solver, "SolverConfig", functools.partial(
            solver.SolverConfig, max_iterations=cap))
    assert run_cli(["solve", "--n", "3", "--ell", "10", *args,
                    "--out", "{dir}/report.json"], tmp_path)[0] == 4
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["converged"] is False and doc["diverged"] is False
    assert doc["message"] == message


def test_diverging_solve_exits_1_and_writes_its_report(monkeypatch, tmp_path):
    # every step taken uphill: the residual grows on three consecutive
    # iterations and the solve stops there
    from dehnfill import solver
    solve = solver.BandedLinearization.solve
    monkeypatch.setattr(solver.BandedLinearization, "solve",
                        lambda self, rhs: -solve(self, rhs))
    assert run_cli(["solve", "--n", "3", "--ell", "10", "--nodes", "256",
                    "--out", "{dir}/report.json"], tmp_path)[0] == 1
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["converged"] is False and doc["diverged"] is True
    assert doc["iterations"] == 3
    assert doc["message"] == "residual grew on three consecutive iterations"


# each argv of the golden corpus's REJECTED list is checked there, on every
# host, to its exact stderr
@pytest.mark.parametrize("args, option", [
    (["solve", "--n", "3", "--ell", "1e300"], "ell"),
    (["solve", "--n", "3", "--ell", "10", "--tol", "inf"], "tol"),
    (["solve", "--n", "3", "--ell", "10", "--tol", "0"], "tol"),
    (["solve", "--n", "3", "--ell", "10", "--tol=-1"], "tol"),
    (["glue", "--n", "4", "--ell=-inf"], "ell"),
    (["estimate", "--n", "4", "--R", "inf"], "R"),
    (["estimate", "--n", "4", "--R", "1e300"], "R"),
    (["norms", "--n", "4", "--R", "nan"], "R"),
    (["norms", "--n", "4", "--R", "inf"], "R"),
    (["sweep", "--n", "4", "--R", "8,inf,32"], "R"),
    (["sweep", "--n", "3", "--R", "8,1e300,32"], "R"),
    (["curvature", "--n", "3", "--r", "2", "nan", "3"], "r_max"),
    (["curvature", "--n", "3", "--r", "1.5", "3", "inf"], "r"),
    (["curvature", "--n", "3", "--r", "1.5", "3", "2.9"], "r"),
    (["curvature", "--n", "3", "--r", "1.5", "3", "1e300"], "r"),
    (["estimate", "--n", "4", "--R", "16", "--trials", "-1"], "trials"),
    (["sweep", "--n", "4", "--R", "8,8,8"], "R"),
    (["norms", "--n", "4", "--R", "10", "--nodes", "1"], "nodes"),
    (["norms", "--n", "4", "--R", "-1"], "R"),
    (["glue", "--n", "3", "--ell", "0.5"], "ell"),
    (["solve", "--n", "3", "--ell", "1e-300"], "ell"),
    (["glue", "--n", "3", "--ell", "10", "--outer-factor", "1e300"], "outer-factor"),
    (["solve", "--n", "3", "--ell", "10", "--outer-factor", "1e300"], "outer-factor"),
    (["sweep", "--n", "4", "--R", "8,16,32", "--outer-factor", "1e300"], "outer-factor"),
    (["curvature", "--n", "4", "--r", "2",
      str(np.nextafter(np.finfo(float).max ** 0.5, np.inf)), "3"], "r_max"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_non_finite_or_overflowing_option_exits_2(args, option):
    # rejected where it enters, by name, before any numpy warning
    code, out, err = run_cli(args)
    assert (code, out) == (2, "")
    assert err.startswith("dehnfill: configuration error: ")
    assert re.search(rf"\b{option}\b", err)


# the formats each command writes, its default first, and a small run of it
_WRITES = {"curvature": ("csv",), "glue": ("csv",), "solve": ("json", "csv"),
           "kernel": ("json",), "norms": ("json",), "sweep": ("csv", "json"),
           "estimate": ("json",)}
_BASE = {"curvature": {"n": "3", "r_min": "1.5", "r_max": "3", "samples": "4"},
         "glue": {"n": "3", "ell": "10", "nodes": "128"},
         "solve": {"n": "3", "ell": "10", "nodes": "256", "tol": "1e-6"},
         "kernel": {"n": "4"},
         "norms": {"n": "4", "R": "64", "nodes": "400"},
         "sweep": {"n": "3", "R": "6,12,24"},
         "estimate": {"n": "4", "R": "16", "trials": "2", "nodes": "64"}}
_BY_R = ("r_min", "r_max", "samples")       # curvature's, set by --r


def _flags(command, values):
    """The flags that set values: each by --key=value, curvature's range by
    --r MIN MAX SAMPLES."""
    argv = [f"--{k.replace('_', '-')}={v}" for k, v in values.items()
            if k not in _BY_R]
    if command == "curvature":
        argv += ["--r", *(values[k] for k in _BY_R)]
    return argv


_SMALL = {command: _flags(command, values) for command, values in _BASE.items()}


@pytest.mark.parametrize("command, fmt", [
    (c, f) for c, written in _WRITES.items() for f in ("csv", "json")
    if f not in written])
def test_format_a_command_does_not_write_exits_2(command, fmt):
    code, out, err = run_cli([command, *_SMALL[command], "--format", fmt])
    assert (code, out) == (2, "")
    assert "--format" in err


@pytest.mark.parametrize("command, fmt", [
    (c, f) for c, written in _WRITES.items() for f in written])
def test_format_a_command_writes_is_what_it_writes(command, fmt):
    code, out, _ = run_cli([command, *_SMALL[command], "--format", fmt])
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["config"]["format"] == "json"
    else:
        assert out.startswith("# format_version=1\n")
        assert "# format=csv\n" in out


@pytest.mark.parametrize("command, line, option", [
    ("kernel", "format = xml", "format"),
    ("glue", "format = json", "format"),
    ("sweep", "format = xml", "format"),
    ("solve", "mode = bogus", "mode"),
])
def test_config_file_value_outside_its_choices_exits_2(tmp_path, command, line,
                                                       option):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli([command, *_SMALL[command], "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith("dehnfill: configuration error: ")
    assert re.search(rf"\b{option}\b", err)


def test_config_file_keys_of_other_commands_are_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 5\nell = 10\ntrials = x\n")
    code, out, _ = run_cli(["kernel", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["config"] == {"format": "json", "n": 5}


def _cap_address_space():
    # a ceiling on the child's address space, so that an allocation of the
    # size asked for fails whatever the host's overcommit policy
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("args", [
    ["glue", "--n", "3", "--ell", "10", "--nodes", "100000000000"],
    ["solve", "--n", "3", "--ell", "10", "--nodes", "100000000000"],
    ["norms", "--n", "4", "--R", "64", "--nodes", "100000000000"],
    ["estimate", "--n", "4", "--R", "16", "--nodes", "100000000000"],
    ["estimate", "--n", "4", "--R", "16", "--trials", "100000000000"],
], ids=lambda v: " ".join(v))
def test_unallocatable_size_exits_2(args):
    res = run_child(args, preexec_fn=_cap_address_space)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("dehnfill: configuration error: ")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", sorted(_WRITES))
def test_help_lists_the_formats_a_command_writes(command):
    code, out, _ = run_cli([command, "--help"])
    assert code == 0
    assert f"--format {{{','.join(_WRITES[command])}}}" in out


def _parsed(parser, argv, capsys):
    """(exit code or parsed namespace, stdout, stderr) of one parse."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


_PARSES = [["--help"], ["--bogus"], ["--n", "x"], ["--n"], [],
           ["--n", "3", "stray"]]


@pytest.mark.parametrize("rest", _PARSES, ids=" ".join)
@pytest.mark.parametrize("command", sorted(_WRITES))
def test_one_command_parser_reads_as_the_full_one(command, rest, capsys):
    # help, an unknown flag, a bad int, an option without its value, the
    # required options missing and a stray positional (which the top-level
    # parser rejects with its own usage): each reads the same, exit code,
    # output and namespace, whether one command is declared or all
    from dehnfill import cli
    argv = [command, *rest]
    assert (_parsed(cli.build_parser(command), argv, capsys)
            == _parsed(cli.build_parser(), argv, capsys))


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["bogus"],
                                  ["bogus", "--n", "3"], ["--n", "3"],
                                  ["-h", "solve"]], ids=" ".join)
def test_main_without_a_command_uses_the_full_parser(argv, capsys):
    from dehnfill import cli
    got = run_cli(argv)
    assert got == _parsed(cli.build_parser(), argv, capsys)
    assert got[0] == (0 if "-h" in argv or "--help" in argv else 2)
    if got[0] == 0:         # the help lists every command, each on its line
        assert all(f"\n    {c} " in got[1] for c in cli._COMMANDS)


def test_main_declares_the_command_it_is_given(monkeypatch):
    from dehnfill import cli
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda only=None: built.append(only) or build(only))
    assert run_cli(["kernel", "--n", "3"])[0] == 0
    assert run_cli([])[0] == 2
    code, _, err = run_cli(["bogus"])
    assert code == 2
    assert built == ["kernel", None, None]
    assert "usage: dehnfill [-h] {" + ",".join(cli._COMMANDS) + "} ..." in err


def _bounds(command, key):
    """The (word, value) pairs of an option's domain, as Python numbers, a
    bound that depends on n taken at the small run's n."""
    from dehnfill import cli
    pairs = []
    for word, bound in cli._bounds(cli._options(command)[key][2]):
        if bound in cli._OF_N:
            bound = cli._OF_N[bound](int(_BASE[command]["n"]))
        pairs.append((word, float(bound) if isinstance(bound, np.floating) else bound))
    return pairs


def _outside(command, key):
    """The values just outside an option's domain, each bound itself where
    it is strict and the number just below it where it is not, and for a
    float nan and inf."""
    from dehnfill import cli
    kind = cli._options(command)[key][0]
    values = []
    for word, bound in _bounds(command, key):
        values.append(bound if word in ("above", "below") else
                      bound - 1 if kind is int else math.nextafter(bound, -math.inf))
    if kind is float:
        values += [math.nan, math.inf]
    return [repr(v) for v in values]


def _walk():
    from dehnfill import cli
    return [(command, key, value) for command in cli._COMMANDS
            for key in cli._COMMANDS[command][3] for value in _outside(command, key)]


def _run_with(command, key, value, form, tmp_path):
    """(exit code, stdout, stderr) of the small run with key set to value, by
    a flag or by a configuration line, RuntimeWarning raised as an error."""
    values = {**_BASE[command], key: value}
    if form == "flag":
        argv = [command, *_flags(command, values)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        argv = [command, "--config", str(cfg)]
    return run_cli(argv)


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", _walk(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_value_outside_its_options_domain_exits_2_naming_it(
        command, key, value, form, tmp_path):
    # every option of the table, at the edge of its domain: rejected before
    # any work, by its flag's name (curvature's range fields by their keys)
    code, out, err = _run_with(command, key, value, form, tmp_path)
    name = key if key in _BY_R else "--" + key.replace("_", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("dehnfill: configuration error: ")
    assert re.search(re.escape(name) + r"(?![\w-])", err), err


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command, key", [
    *((command, "n") for command in _BASE), ("norms", "seed"),
    ("estimate", "seed"), ("estimate", "alpha"), ("curvature", "r_min")])
def test_value_on_a_closed_bound_of_its_domain_is_accepted(
        command, key, form, tmp_path):
    word, bound = _bounds(command, key)[0]
    assert word == "at least"
    code, out, err = _run_with(command, key, repr(bound), form, tmp_path)
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("line, message", [
    ("n 4", "run.cfg:1: expected key=value"),
    ("n = four", "bad value for --n: invalid literal for int() with base 10: 'four'"),
    ("n = 4\nell = x", "bad value for --ell: could not convert string to float: 'x'"),
], ids=["no =", "int", "float"])
def test_config_file_line_it_cannot_read_exits_2(tmp_path, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(["glue", "--config", str(cfg), "--n", "3"])
    assert (code, out) == (2, "")
    assert err.startswith("dehnfill: configuration error: ")
    assert err.rstrip("\n").endswith(message)

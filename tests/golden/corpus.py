"""Golden CLI corpus: a fixed list of commands, run in process through
`dehnfill.cli.main`, with the exit code and the SHA-256 of stderr and of
every output of each recorded in `manifest.json`.  Outputs under
SMALL_BYTES, and every non-empty stderr, are committed under `outputs/`,
so that a mismatch can be diffed.

Record (rewrites the manifest and the committed outputs):

    PYTHONPATH=src python tests/golden/corpus.py

Re-record only for a stated reason: the corpus is the check that a change
leaves every CLI output byte for byte as it was.  Before re-recording,
report what would change (reruns the corpus, re-records nothing):

    PYTHONPATH=src python tests/golden/corpus.py --report

To add an entry, record the whole corpus on the host the manifest names:
there every other entry is rewritten byte for byte as it was, so `--report`
before and `git diff` after show only the new entry's manifest item and
files changing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
OUTPUTS = HERE / "outputs"
SMALL_BYTES = 16 * 1024

# "{dir}" in an argument stands for the directory the outputs go to
_SOLVES = [(3, 10, 2048), (4, 20, 2048), (4, 20, 8192), (6, 12, 1024),
           (7, 14, 512)]
COMMANDS = {}
for _n, _ell, _nodes in _SOLVES:
    for _mode in ("newton", "frozen_jacobian"):
        _name = f"solve_{_mode}_n{_n}_ell{_ell}_{_nodes}"
        COMMANDS[_name] = ["solve", "--n", str(_n), "--ell", str(_ell),
                           "--nodes", str(_nodes), "--mode", _mode,
                           "--out", f"{{dir}}/{_name}.json",
                           "--residuals", f"{{dir}}/{_name}_residuals.csv"]
for _n, _ell, _nodes in [(3, 10, 2048), (7, 14, 512)]:
    _name = f"glue_n{_n}_ell{_ell}_{_nodes}"
    COMMANDS[_name] = ["glue", "--n", str(_n), "--ell", str(_ell),
                       "--nodes", str(_nodes), "--out", f"{{dir}}/{_name}.csv",
                       "--residuals", f"{{dir}}/{_name}_residuals.csv"]
COMMANDS.update({
    "norms_n4_R64_4096": ["norms", "--n", "4", "--R", "64", "--nodes", "4096"],
    "norms_n3_R100_seed5": ["norms", "--n", "3", "--R", "100", "--seed", "5",
                            "--out", "{dir}/norms_n3_R100_seed5.json"],
    "sweep_csv": ["sweep", "--n", "4", "--R", "8,16,32,64"],
    "sweep_json": ["sweep", "--n", "3", "--R", "10,20,40", "--format", "json",
                   "--out", "{dir}/sweep_json.json"],
    "estimate": ["estimate", "--n", "4", "--R", "16", "--trials", "5"],
    "kernel": ["kernel", "--n", "5"],
    "curvature": ["curvature", "--n", "4", "--r", "1.5", "6", "50"],
})
# commands the CLI rejects as configuration errors (exit 2) before any numpy
# warning; their stderr is the CLI's own text, so test_golden.py checks them
# on every host, the rest only where the fingerprint matches.  Append only:
# an entry's name holds its index
REJECTED = ["solve --n 3 --ell nan", "norms --n 4 --R 1e200",
            "solve --n 3 --ell 1e60 --nodes 256",
            "solve --n 3 --ell 10 --nodes 256 --tol 0",
            "estimate --n 4 --R 16 --trials 0",
            "curvature --n 3 --r 1.5 3 nan", "sweep --n 4 --R 1,2,3",
            "curvature --n 3 --r 1.5 3 100000000000",
            "glue --n 3 --ell 10 --nodes 10",
            "estimate --n 4 --R 16 --nodes 3",
            "sweep --n 4 --R 8,abc,32",
            "norms --n 4 --R 0", "norms --n 4 --R 1.1", "kernel --n 2",
            "norms --n 4 --R 64 --seed -1",
            "glue --n 3 --ell 10 --outer-factor 1",
            "norms --n 4 --R 1.2725202603939",
            "curvature --n 4 --r 2 1e155 3",
            "estimate --n 4 --R 1e300", "estimate --n 4 --R 16 --alpha 1"]
for _i, _cmd in enumerate(REJECTED):
    COMMANDS[f"rejected_{_i:02d}_{_cmd.split()[0]}"] = _cmd.split()


def fingerprint():
    """The environment the recorded bytes hold for."""
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run(argv, out_dir):
    """Run one command in process, with RuntimeWarning raised as an error as
    CI raises it for the installed entry point; (exit code, stderr bytes,
    {output name: bytes}), stdout under the name "stdout" when anything is
    written to it."""
    from dehnfill import cli
    out_dir = Path(out_dir)
    args = [a.replace("{dir}", str(out_dir)) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(args)
        except SystemExit as exc:       # argparse rejects before main's handlers
            code = exc.code
    outputs = {}
    if stdout.getvalue():
        outputs["stdout"] = stdout.getvalue().encode("utf-8")
    for a in argv:
        if a.startswith("{dir}/"):
            name = a[len("{dir}/"):]
            outputs[name] = (out_dir / name).read_bytes()
    return code, stderr.getvalue().encode("utf-8"), outputs


def kept(name, key):
    """Where entry name's output key, or its "stderr", is committed, if it
    is small enough."""
    return OUTPUTS / (f"{name}.{key}" if key in ("stdout", "stderr") else key)


def record():
    OUTPUTS.mkdir(exist_ok=True)
    for old in OUTPUTS.iterdir():
        old.unlink()
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            code, err, outputs = run(argv, tmp)
            entries[name] = {"argv": argv, "exit": code, "stderr": _sha(err),
                             "outputs": {k: _sha(v) for k, v in outputs.items()}}
            small = {kept(name, k): v for k, v in outputs.items() if len(v) < SMALL_BYTES}
            if err:
                small[kept(name, "stderr")] = err
            for target, data in small.items():
                target.write_bytes(data)
    doc = {"fingerprint": fingerprint(), "commands": entries}
    MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entries)} commands in {MANIFEST}")


def _fields(data):
    """{field: [values]} of a JSON or CSV output: a JSON leaf is named by its
    key path, list entries sharing the name; a CSV field is a column or a
    `# key=value` preamble line."""
    text = data.decode("utf-8")
    fields = {}
    try:
        doc = json.loads(text)
    except ValueError:
        rows = []
        for line in text.splitlines():
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if sep:
                    fields.setdefault(key, []).append(value)
            elif line:
                rows.append(line.split(","))
        for j, name in enumerate(rows[0] if rows else []):
            fields[name] = [row[j] if j < len(row) else None for row in rows[1:]]
        return fields

    def walk(path, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{path}.{key}" if path else key, item)
        elif isinstance(value, list):
            for item in value:
                walk(f"{path}[]", item)
        else:
            fields.setdefault(path, []).append(value)

    walk("", doc)
    return fields


def _number(value):
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def changes(old, new):
    """Compare two outputs' _fields: ({numeric field: (largest absolute
    change, largest relative change)}, [other fields that differ]).  A
    field is numeric when every value on both sides is a number; a field
    missing on one side, or with another count of values, differs."""
    numeric, other = {}, []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None or len(a) != len(b):
            other.append(key)
            continue
        xa, xb = [_number(v) for v in a], [_number(v) for v in b]
        if None in xa or None in xb:
            if a != b:
                other.append(key)
            continue
        big_abs = big_rel = 0.0
        for p, q in zip(xa, xb):
            if p == q or (math.isnan(p) and math.isnan(q)):
                continue
            d = abs(q - p)
            d = math.inf if math.isnan(d) else d      # a NaN on one side only
            big_abs = max(big_abs, d)
            big_rel = max(big_rel, d / abs(p) if p and math.isfinite(p) else math.inf)
        numeric[key] = (big_abs, big_rel)
    return numeric, other


def report():
    """Rerun the corpus into a temporary directory and print, per entry, how
    its exit code, stderr and output hashes differ from the manifest, and
    per committed CSV or JSON output the largest change of every numeric
    field.  Re-records nothing."""
    manifest = json.loads(MANIFEST.read_text())
    if fingerprint() != manifest["fingerprint"]:
        print(f"fingerprint: recorded {manifest['fingerprint']}, here {fingerprint()}")
    differ = moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            entry = manifest["commands"].get(name)
            if entry is None:
                print(f"{name}: not in the manifest")
                differ += 1
                continue
            code, err, outputs = run(argv, tmp)
            notes = [f"exit {entry['exit']} -> {code}"] if code != entry["exit"] else []
            if _sha(err) != entry["stderr"]:
                notes.append("stderr hash differs")
            for key in sorted(entry["outputs"].keys() | outputs.keys()):
                if key not in outputs:
                    notes.append(f"{key} not written")
                elif _sha(outputs[key]) != entry["outputs"].get(key):
                    notes.append(f"{key} hash differs")
            differ += bool(notes)
            print(f"{name}: {'; '.join(notes) or 'identical'}")
            for key, data in outputs.items():
                path = kept(name, key)
                if not path.exists():
                    continue
                numeric, other = changes(_fields(path.read_bytes()), _fields(data))
                same = [k for k, v in numeric.items() if v == (0.0, 0.0)]
                print(f"  {path.name}: {len(same)} of {len(numeric)} numeric fields unchanged")
                for k, (big_abs, big_rel) in numeric.items():
                    if k not in same:
                        moved += 1
                        print(f"    {k}: max abs {big_abs:.3g}, max rel {big_rel:.3g}")
                for k in other:
                    print(f"    {k}: differs (not numeric, or its values were "
                          f"added or dropped)")
    print(f"{differ} of {len(COMMANDS)} entries differ; "
          f"{moved} numeric fields of committed outputs changed")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Record the golden CLI corpus.")
    ap.add_argument("--report", action="store_true",
                    help="rerun the corpus and print what differs from the "
                         "manifest, re-recording nothing")
    sys.exit(report() if ap.parse_args().report else record())

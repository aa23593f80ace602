"""The golden CLI corpus (tests/golden): every command's exit code, stderr
and outputs equal, byte for byte, those recorded in its manifest; and the
corpus's change report, which names what differs."""

import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_corpus", Path(__file__).parent / "golden" / "corpus.py")
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)

MANIFEST = json.loads(corpus.MANIFEST.read_text())


def test_manifest_lists_the_corpus():
    assert {k: v["argv"] for k, v in MANIFEST["commands"].items()} == corpus.COMMANDS


def test_ci_loop_runs_the_rejected_commands():
    # CI's console-script loop runs the installed entry point on the very
    # commands whose exit 2 and stderr the corpus records
    ci = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    loop = re.search(r"for cmd in (.*?); do", ci.read_text(), re.S).group(1)
    assert re.findall(r'"([^"]*)"', loop) == corpus.REJECTED


@pytest.mark.parametrize("name", sorted(MANIFEST["commands"]))
def test_golden_cli_output(name, tmp_path):
    recorded = MANIFEST["fingerprint"]
    here = corpus.fingerprint()
    if here != recorded:
        differ = ", ".join(f"{k} {here[k]} (recorded {recorded[k]})"
                           for k in recorded if here.get(k) != recorded[k])
        pytest.skip(f"golden bytes were recorded elsewhere: {differ}")
    entry = MANIFEST["commands"][name]
    code, err, outputs = corpus.run(entry["argv"], tmp_path)
    assert code == entry["exit"]
    assert hashlib.sha256(err).hexdigest() == entry["stderr"], err.decode()
    for key, data in outputs.items():     # a readable diff where one is kept
        kept = corpus.OUTPUTS / (f"{name}.stdout" if key == "stdout" else key)
        if kept.exists():
            assert data.decode() == kept.read_bytes().decode(), key
    got = {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}
    assert got == entry["outputs"]


def test_report_measures_the_change_of_each_numeric_field():
    old = corpus._fields(b'{"a": 1.0, "h": [1.0, 2.0], "m": "x", "t": true}')
    new = corpus._fields(b'{"a": 1.0, "h": [1.0, 2.5], "m": "y", "t": true, "z": 3}')
    assert corpus.changes(old, new) == ({"a": (0.0, 0.0), "h[]": (0.5, 0.25)},
                                        ["m", "z"])
    old = corpus._fields(b"# n=4\n# out=-\ns,E1,E2\n0,1e-3,nan\n1,-2e-3,nan\n")
    new = corpus._fields(b"# n=4\n# out=-\ns,E1,E2\n0,0,nan\n1,-2e-3,1\n")
    numeric, other = corpus.changes(old, new)
    assert numeric == {"E1": (1e-3, 1.0), "E2": (math.inf, math.inf),
                       "n": (0.0, 0.0), "s": (0.0, 0.0)}
    assert other == []


def test_report_reruns_and_names_what_differs(monkeypatch, tmp_path, capsys):
    name = "rejected_00_solve"
    doc = dict(MANIFEST, commands={name: dict(MANIFEST["commands"][name], exit=0)})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    monkeypatch.setattr(corpus, "MANIFEST", manifest)
    monkeypatch.setattr(corpus, "COMMANDS", {name: corpus.COMMANDS[name]})
    corpus.report()
    out = capsys.readouterr().out
    assert f"{name}: exit 0 -> 2\n" in out
    assert out.endswith("1 of 1 entries differ; 0 numeric fields of committed "
                        "outputs changed\n")
    assert json.loads(manifest.read_text()) == doc      # re-records nothing

"""The golden CLI corpus (tests/golden): every command's exit code, stderr
and outputs equal, byte for byte, those recorded in its manifest."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_corpus", Path(__file__).parent / "golden" / "corpus.py")
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)

MANIFEST = json.loads(corpus.MANIFEST.read_text())


def test_manifest_lists_the_corpus():
    assert {k: v["argv"] for k, v in MANIFEST["commands"].items()} == corpus.COMMANDS


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

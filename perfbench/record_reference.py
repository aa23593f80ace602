"""Record the reference outputs the benchmark checks every pass against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs every case of every workload, at both scales and for every input
seed, through the same code as a pass, and writes perfbench/reference.json.
References are recorded once, from the commit that introduced the
benchmark; re-recording them hides any change in the program's outputs,
so a change that moves outputs on purpose says so and why.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile

import workloads


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.HERE,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main():
    cases = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=workloads.HERE) as workdir:
        for scale in ("full", "quick"):
            for workload in workloads.WORKLOADS:
                seeded = workload in ("spectrum", "sweep")
                for seed in range(workloads.INPUT_SEEDS if seeded else 1):
                    for case in workloads.build_cases(workload, scale, seed, workdir):
                        case.run()
                        for key, fields in case.outputs()[0]:
                            entry = cases.setdefault(key, {})
                            clash = [k for k in fields if k in entry and entry[k] != fields[k]]
                            if clash:
                                raise SystemExit(f"{key}: {clash} differ between runs")
                            entry.update(fields)
                    print(f"recorded {scale} {workload} seed {seed}", file=sys.stderr)
    doc = {"source_commit": commit_id(), "input_seeds": workloads.INPUT_SEEDS,
           "cases": dict(sorted(cases.items()))}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

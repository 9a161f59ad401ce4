#!/usr/bin/env python3
"""Record the reference numbers the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every workload once on the reference seed, checks the output against
the invariants of its command, and writes the numbers, rounded to nine
significant digits (far inside the --tol the gate allows), to
reference.json.gz.  Re-record only when the program's results change on
purpose, and say why in the change that does it.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
from run import REFERENCE, REFERENCE_SEED, ROOT, Inputs, run_child
from workloads import WORKLOADS


def main() -> int:
    numbers = {}
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".perfbench_work"))
    try:
        for name, workload in sorted(WORKLOADS.items()):
            inputs = Inputs(workdir, workload, REFERENCE_SEED)
            sample = run_child(workdir, workload, inputs, False, 0, 170.0)
            if sample.problems:
                print(f"{name}: " + "; ".join(sample.problems), file=sys.stderr)
                return 1
            text = (workdir / "out-0.csv").read_text(encoding="utf-8")
            values = gate.reference_values(workload.command, gate.parse_csv(text))
            numbers[name] = [float(f"{v:.9g}") for v in values]
            print(f"{name}: {len(values)} numbers, wall {sample.wall_s:.2f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with gzip.GzipFile(REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(numbers, separators=(",", ":")).encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

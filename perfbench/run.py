#!/usr/bin/env python3
"""End-to-end benchmark of the graphsl command line, with a traced per-layer run.

    python3 perfbench/run.py --workload persson-path --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

``all`` runs every workload in workloads.py, spectrum-bigtree included,
which BENCHMARK.json leaves out (see NOTES.md).

Run from the root of a source checkout.  Each sample is a fresh child
process that imports graphsl from ``src/`` and calls ``graphsl.cli.main``
on documents generated from the seed, so every sample pays import and
set-up the way a user of the CLI does.  A run starts with one discarded
warm-up child: the persson-path workload on the reference seed, the
cheapest command that still meshes, assembles, factors and runs Lanczos,
and whose output must match the recorded reference.  The run then spawns
children of its workload one after another (a closed loop with one
client) for ``--seconds`` seconds, and at least three times.  Every output
passes the correctness gate (gate.py), which on the reference seed also
compares each number with the recorded reference; a sample that fails
counts as failed and its times are dropped.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json as medians over the samples.  With ``--trace 1`` it
alternates traced and untraced children and reports the per-layer metrics
as medians over the traced ones, plus the tracing overhead.  The last line
of standard output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import analysis
import gate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json.gz"
REFERENCE_SEED = 0
WARMUP = "persson-path"
BLAS_THREADS = "1"
MIN_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s, warm-up and gate included

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
RATIOS = {"fem.remesh_ratio", "eig.lu_fill", "eig.shift_gap", "eig.residual_max"}


def unit(name: str) -> str:
    """Unit of a metric, read off its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in RATIOS:
        return "ratio"
    for suffix, text in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return text
    return "count"


@dataclass
class Sample:
    """One child process: its times, memory, output size and gate verdict."""

    wall_s: float
    setup_s: float
    solve_s: float
    peak_rss_mb: float
    output_bytes: int
    record: dict | None
    problems: list[str]


class Inputs:
    """A workload's documents for one seed, written into the work directory."""

    def __init__(self, workdir: Path, workload, seed: int):
        workdir.mkdir(exist_ok=True)
        self.graph, coeffs = workload.inputs(seed)
        self.graph_path = workdir / f"graph-{seed}.json"
        self.graph_path.write_text(json.dumps(self.graph), encoding="utf-8")
        self.coeff_path = None
        if coeffs is not None:
            self.coeff_path = workdir / f"coeffs-{seed}.json"
            self.coeff_path.write_text(json.dumps(coeffs), encoding="utf-8")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(workdir, workload, inputs, trace, run_id, timeout_s, reference=None) -> Sample:
    """Spawn one CLI child, wait for it, and gate its output."""
    out_path = workdir / f"out-{run_id}.csv"
    record_path = workdir / f"record-{run_id}.json"
    spec_path = workdir / f"spec-{run_id}.json"
    coeff = str(inputs.coeff_path) if inputs.coeff_path else None
    spec = {
        "argv": workload.argv(str(inputs.graph_path), coeff, str(out_path)),
        "entry": workload.entry,
        "trace": trace,
        "run_id": run_id,
        "src": str(ROOT / "src"),
        "record": str(record_path),
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(workdir / f"stderr-{run_id}.txt", "w+", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            cwd=ROOT,
            env=child_env(),
        )
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall_s = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr_tail = err.read()[-2000:]
    rss_mb = usage.ru_maxrss * 1024 / 1e6
    problems = []
    record = None
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {stderr_tail.strip()}")
    else:
        record = json.loads(record_path.read_text(encoding="utf-8"))
        if record["entry"] is None:
            problems.append(f"the spectral entry {workload.entry} did not run exactly once")
    if problems:
        return Sample(wall_s, math.nan, math.nan, rss_mb, 0, record, problems)
    text = out_path.read_text(encoding="utf-8")
    problems = gate.check(workload, text, inputs.graph, reference)
    if trace:
        problems += analysis.coverage_problems(record["spans"], workload.spans)
    entry_start, entry_end = record["entry"]
    return Sample(
        wall_s,
        entry_start - start,
        entry_end - entry_start,
        rss_mb,
        len(text.encode("utf-8")),
        record,
        problems,
    )


def load_references() -> dict[str, list[float]]:
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def preflight() -> None:
    if not (ROOT / "src" / "graphsl" / "cli.py").is_file():
        raise SystemExit(f"no graphsl sources under {ROOT / 'src'}; run from a source checkout")
    if not REFERENCE.is_file():
        raise SystemExit(f"missing reference outputs {REFERENCE}")


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the samples and counts."""
    begin = time.monotonic()
    references = load_references()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".perfbench_work"))
    try:
        warmup = WORKLOADS[WARMUP]
        warm_inputs = Inputs(workdir / "warmup", warmup, REFERENCE_SEED)
        inputs = Inputs(workdir, workload, seed)
        seed_reference = references[workload.name] if seed == REFERENCE_SEED else None

        def remaining():
            return RUN_LIMIT_S - (time.monotonic() - begin)

        warm = run_child(
            workdir / "warmup", warmup, warm_inputs, False, 0, remaining(), references[WARMUP]
        )
        failures = [warm.problems] if warm.problems else []
        attempted = 1
        longest = warm.wall_s
        samples = {False: [], True: []}
        window = time.monotonic()
        while True:
            done = sum(len(s) for s in samples.values())
            elapsed = time.monotonic() - window
            if done >= MIN_SAMPLES and elapsed + longest > seconds:
                break
            if remaining() < 1.5 * longest:
                break
            traced = trace and done % 2 == 0
            sample = run_child(
                workdir, workload, inputs, traced, attempted, remaining(), seed_reference
            )
            attempted += 1
            longest = max(longest, sample.wall_s)
            if sample.problems:
                failures.append(sample.problems)
            else:
                samples[traced].append(sample)
        return {
            "attempted": attempted,
            "failures": failures,
            "untraced": samples[False],
            "traced": samples[True],
            "env": (warm.record or {}).get("env", {}),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(name: str, values: list[float]) -> str:
    q1, med, q3 = analysis.quartiles(values) if values else (math.nan,) * 3
    line = f"  {name:<26} median {med:.6g} {unit(name)}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"
    top = analysis.tail(values)
    if top is not None:
        line += f", p{top[0]:.0f} {top[1]:.6g}"
    return line + ")"


def report(workload, result: dict, trace: bool, benchmark: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    env = dict(result["env"])
    env.update(nproc=len(os.sched_getaffinity(0)), blas_threads=int(BLAS_THREADS))
    print(f"# {workload.name}: {workload.why}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    attempted = result["attempted"]
    failed = len(result["failures"])
    for problems in result["failures"]:
        print("# FAILED: " + "; ".join(problems))
    print(f"  {'error_rate':<26} {failed / attempted:.6g} ratio  ({failed} of {attempted} runs)")
    metrics = {}
    if not trace:
        samples = result["untraced"]
        for spec in benchmark["end_to_end"]:
            values = [getattr(s, spec["name"]) for s in samples]
            print(summarize(spec["name"], values))
            if values:
                metrics[spec["name"]] = {"value": analysis.quartiles(values)[1], "unit": spec["unit"]}
    else:
        traced = result["traced"]
        per_run = [analysis.layer_metrics(s.record, s.wall_s, s.output_bytes) for s in traced]
        medians = {}
        for name in per_run[0] if per_run else ():
            values = [m[name] for m in per_run]
            medians[name] = analysis.quartiles(values)[1]
            print(summarize(name, values))
        if traced and result["untraced"]:
            traced_wall = analysis.quartiles([s.wall_s for s in traced])[1]
            untraced_wall = analysis.quartiles([s.wall_s for s in result["untraced"]])[1]
            medians["trace.overhead_s"] = traced_wall - untraced_wall
            print(
                f"  {'trace.overhead_s':<26} {medians['trace.overhead_s']:.6g} s  "
                f"(traced wall {traced_wall:.6g} s - untraced wall {untraced_wall:.6g} s)"
            )
        if medians:
            shares = ", ".join(
                f"{layer} {medians[f'layer.{layer}_s']:.3g}"
                for layer in analysis.LAYERS + ("unassigned",)
            )
            print(f"  wall by layer (s, medians): {shares}")
        for spec in benchmark["per_layer"]:
            if spec["name"] in medians:
                metrics[spec["name"]] = {"value": medians[spec["name"]], "unit": spec["unit"]}
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    correct = failed == 0 and len(metrics) == len(wanted)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    preflight()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = measure(WORKLOADS[name], args.seed, seconds, bool(args.trace))
        results[name] = report(WORKLOADS[name], result, bool(args.trace), benchmark)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

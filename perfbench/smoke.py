"""Smoke test of the benchmark itself.

Runs every workload at minimal length, traced and untraced, and checks
that each run emits exactly the metrics BENCHMARK.json names for that mode,
each with its unit, that no op fails, and that another seed changes the
inputs but not the metric set.  Also checks that the benchmark refuses to
run, without printing a result, from a directory that holds only
BENCHMARK.json and the benchmark's own files.

Usage (from the repository root, about a minute):  python3 perfbench/smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def run(cwd, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S, check=False)
    return proc


def parse(proc):
    lines = proc.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env: "))[5:])
    return env, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        fingerprints = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            proc = run(ROOT, workload, seed, trace)
            where = f"{workload} seed={seed} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            before = len(problems)
            env, result = parse(proc)
            fingerprints[seed] = env["inputs_fingerprint"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {got} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']}/{result['attempted']} failed")
            if len(problems) == before:
                print(f"ok {where}: {result['attempted']} ops, failed_frac 0")
        if fingerprints.get(1) == fingerprints.get(2):
            problems.append(f"{workload}: seeds 1 and 2 built the same inputs")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "wide", 1, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a bare benchmark directory did not fail without output")
        else:
            print("ok: refuses to run without the sources")

    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

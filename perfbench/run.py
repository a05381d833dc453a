"""hopfcon benchmark: one closed-loop caller, three workloads, checked results.

Usage (from the repository root):

    python3 perfbench/run.py --workload wide|crosscheck|small --seed N \
        --seconds S --trace 0|1

One process drives the workload with a single caller: each op starts when
the previous one has returned.  Every op's result is checked against a
reference the benchmark computes itself (see workloads.py).  Ops are run
in whole cycles of a fixed mix, so per-op counts repeat exactly.

The host is shared.  For seconds at a time its other tenants slow this
process by up to 40%, and they are there for most of a run but seldom all
of it.  A median of per-cycle rates over a run whose time splits between
the busy and the quiet state jumps from one state to the other as the
split moves across one half.  So ops_per_s groups the untraced cycles
into windows of at least WINDOW_S of op time and reports the rate that
nine windows in ten reach (the 10th percentile of window rates).  That
is the rate of the busy state, which nearly every run contains; a slower
program moves it as it moves every window.  op_p50_ms and op_tail_ms are
taken over all untraced ops; each workload's op mix puts them inside a
cost class, away from the boundary between two.

--trace 0 prints the end-to-end metrics.  --trace 1 traces every other
cycle, prints the per-layer metrics, and writes every span to
perfbench/out/.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; lines before it give each
metric with its unit, failed_frac, the tail percentile and the recorded
environment.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
WINDOW_S = 0.5  # op time per window: averages op-to-op jitter, gives tens of windows a run

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mib": "MiB"}

PER_LAYER = {
    "states.build_ms": "ms", "states.load_ms": "ms", "states.calls": "count",
    "hypercomplex.quat_mul_us": "us", "hypercomplex.oct_mul_us": "us",
    "hypercomplex.calls": "count",
    "projection.pack_ms": "ms", "projection.quat_concurrence_ms": "ms",
    "projection.oct_concurrence_ms": "ms", "projection.busy_s": "s",
    "projection.pairs": "count/op", "projection.grid_bytes_computed": "B/op",
    "projection.pair_projections_ms": "ms", "projection.module_action_us": "us",
    "oracles.minor_ms": "ms", "oracles.generator_ms": "ms",
    "oracles.minor_terms": "count/op", "oracles.generators": "count/op",
    "oracles.busy_s": "s",
    "dynamics.closed_form_us": "us", "dynamics.numeric_us": "us",
    "dynamics.trajectory_point_us": "us",
    "cli.import_s": "s", "cli.concurrence_ms": "ms", "cli.project_ms": "ms",
    "cli.evolve_ms": "ms", "cli.verify_ms": "ms", "cli.self_ms": "ms",
    "cli.nonzero_exits": "count",
    "projection.max_abs_err": "abs", "oracles.max_abs_err": "abs",
    "dynamics.max_abs_err": "abs",
    "trace.overhead_frac": "frac",
}


@dataclass
class Phase:
    """Outcome of running whole cycles for a fixed time."""

    latencies: list = field(default_factory=list)     # seconds, untraced ops
    windows: list = field(default_factory=list)       # untraced latencies, per window
    rates: list = field(default_factory=list)         # ops/s of each untraced cycle
    traced_rates: list = field(default_factory=list)  # ops/s of each traced cycle
    traced_ops: int = 0
    attempted: int = 0
    failed: int = 0


def run_phase(workload, tracer, ledger, seconds, failures, trace=False) -> Phase:
    """Run whole cycles until ``seconds`` have passed (at least one cycle).

    With ``trace`` every other cycle is traced and its CLI ops replayed, so
    traced and untraced cycles see the same machine conditions and their
    rates give the tracing overhead.
    """
    phase = Phase()
    deadline = perf_counter() + seconds
    cycle = 0
    pending: list = []  # untraced latencies not yet in a window
    while True:
        traced = trace and cycle % 2 == 1
        tracer.enabled = traced
        latencies = []
        for op in workload.variants[cycle % len(workload.variants)]:
            tracer.op_id += 1
            phase.attempted += 1
            try:
                start = perf_counter()
                result = tracer.call(op.run, tracer, name=f"op.{op.label}")
                elapsed = perf_counter() - start
                op.check(result, ledger)
                if traced and op.replay is not None:
                    tracer.call(op.replay, tracer, ledger, name=f"replay.{op.label}")
            except Exception:  # a failed op is counted and the run goes on
                phase.failed += 1
                if len(failures) < 5:
                    failures.append(f"op {op.label}:\n{traceback.format_exc()}")
                continue
            latencies.append(elapsed)
        if latencies:
            rate = len(latencies) / sum(latencies)
            if traced:
                phase.traced_rates.append(rate)
                phase.traced_ops += len(latencies)
            else:
                phase.rates.append(rate)
                phase.latencies += latencies
                pending += latencies
                if sum(pending) >= WINDOW_S:
                    phase.windows.append(pending)
                    pending = []
        cycle += 1
        if perf_counter() >= deadline and (cycle >= 2 or not trace):
            tracer.enabled = False
            if not phase.windows and pending:  # a run too short for one full window
                phase.windows.append(pending)
            return phase


def measure_setup(workload: str, seed: int) -> tuple[list, list, set]:
    """Set-up time of SETUP_REPEATS fresh interpreters (see setup_child.py)."""
    setups, cli_imports, fingerprints = [], [], set()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed), str(OUT)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        record = json.loads(proc.stdout.splitlines()[-1])
        setups.append(record["setup_s"])
        cli_imports.append(record["cli_import_s"])
        fingerprints.add(record["fingerprint"])
    return setups, cli_imports, fingerprints


def environment(args, np_module) -> dict:
    """Machine and library facts recorded with every result."""
    env = {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np_module.__version__,
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    blas = np_module.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = blas_threads(np_module)
    env["openblas_num_threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env[f"L{level}"] = size
    return env


def blas_threads(np_module):
    """Thread count OpenBLAS uses now, asked from the library numpy loaded."""
    libs = sorted((Path(np_module.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def end_to_end(phase: Phase, setups, max_tail_pct) -> tuple[dict, dict]:
    from tracing import LADDER, median, nearest_rank, tail
    pct, tail_s, beyond = tail(phase.latencies, [p for p in LADDER if p <= max_tail_pct])
    rates = [len(window) / sum(window) for window in phase.windows]
    values = {"setup_s": median(setups), "ops_per_s": nearest_rank(rates, 10.0),
              "op_p50_ms": median(phase.latencies) * 1e3, "op_tail_ms": tail_s * 1e3,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    detail = {"op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
              "op_samples": len(phase.latencies), "cycles": len(phase.rates),
              "windows": len(phase.windows), "setup_s_samples": setups}
    return values, detail


def per_layer(tracer, phase: Phase, ledger, cli_imports) -> dict:
    from tracing import median, self_times
    spans = tracer.spans
    durations = defaultdict(list)
    busy = defaultdict(float)
    calls = defaultdict(int)
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        durations[name].append(end - start)
        layer = name.split(".", 1)[0]
        busy[layer] += own
        calls[layer] += 1

    def med(names, scale):
        return median([d for n in names for d in durations.get(n, ())]) * scale

    states_build = [n for n in durations if n.startswith("states.") and n != "states.load_state"]
    # cli.self_ms: an invocation minus the layer calls its replay makes.
    replay_op = {index: span[4] for index, span in enumerate(spans)
                 if span[0].startswith("replay.")}
    cli_time, replayed = {}, defaultdict(float)
    for name, start, end, parent, op in spans:
        if name.startswith("cli."):
            cli_time[op] = end - start
        if parent in replay_op:
            replayed[op] += end - start
    replayed_ops = set(replay_op.values())
    cli_self = [t - replayed[op] for op, t in cli_time.items() if op in replayed_ops]

    n_ops = max(1, phase.traced_ops)
    counts = tracer.counts
    points = counts["dynamics.trajectory_points"]
    untraced_rate = median(phase.rates)
    return {
        "states.build_ms": med(states_build, 1e3),
        "states.load_ms": med(["states.load_state"], 1e3),
        "states.calls": calls["states"],
        "hypercomplex.quat_mul_us": med(["hypercomplex.quat_mul"], 1e6),
        "hypercomplex.oct_mul_us": med(["hypercomplex.oct_mul"], 1e6),
        "hypercomplex.calls": calls["hypercomplex"],
        "projection.pack_ms": med(["projection.quaternify", "projection.octonify"], 1e3),
        "projection.quat_concurrence_ms": med(["projection.quat_concurrence"], 1e3),
        "projection.oct_concurrence_ms": med(["projection.oct_concurrence"], 1e3),
        "projection.busy_s": busy["projection"],
        "projection.pairs": counts["projection.pairs"] / n_ops,
        "projection.grid_bytes_computed": counts["projection.grid_bytes_computed"] / n_ops,
        "projection.pair_projections_ms": med(["projection.quat_pair_projections",
                                               "projection.oct_pair_projections"], 1e3),
        "projection.module_action_us": med(["projection.right_module_action"], 1e6),
        "oracles.minor_ms": med(["oracles.minor_concurrence"], 1e3),
        "oracles.generator_ms": med(["oracles.generator_concurrence"], 1e3),
        "oracles.minor_terms": counts["oracles.minor_terms"] / n_ops,
        "oracles.generators": counts["oracles.generators"] / n_ops,
        "oracles.busy_s": busy["oracles"],
        "dynamics.closed_form_us": med(["dynamics.evolve_closed_form"], 1e6),
        "dynamics.numeric_us": med(["dynamics.evolve_numeric"], 1e6),
        "dynamics.trajectory_point_us":
            sum(durations["dynamics.schmidt_trajectory"]) / points * 1e6 if points else 0.0,
        "cli.import_s": median(cli_imports),
        "cli.concurrence_ms": med(["cli.concurrence"], 1e3),
        "cli.project_ms": med(["cli.project"], 1e3),
        "cli.evolve_ms": med(["cli.evolve"], 1e3),
        "cli.verify_ms": med(["cli.verify"], 1e3),
        "cli.self_ms": median(cli_self) * 1e3,
        "cli.nonzero_exits": ledger.nonzero_exits,
        "projection.max_abs_err": ledger.max_abs_err["projection"],
        "oracles.max_abs_err": ledger.max_abs_err["oracles"],
        "dynamics.max_abs_err": ledger.max_abs_err["dynamics"],
        "trace.overhead_frac":
            1.0 - median(phase.traced_rates) / untraced_rate if untraced_rate else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["wide", "crosscheck", "small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "hopfcon" / "__init__.py").is_file():
        print(f"error: no hopfcon sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    setups, cli_imports, fingerprints = measure_setup(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import numpy as np
    from tracing import Tracer
    from workloads import BUILDERS, Ledger, memory_cap, with_references

    env = environment(args, np)
    tracer = Tracer(enabled=bool(args.trace))
    ledger = Ledger()
    failures: list[str] = []
    workload = BUILDERS[args.workload](args.seed, tracer, memory_cap(), OUT, with_references)
    try:
        env["inputs_fingerprint"] = workload.fingerprint
        if fingerprints != {workload.fingerprint}:
            raise RuntimeError("set-up children built different inputs from one seed")
        tracer.enabled = False
        warmup = run_phase(workload, tracer, ledger, 0.0, failures)
        measured = run_phase(workload, tracer, ledger, args.seconds, failures,
                             trace=bool(args.trace))
        if args.trace:
            metrics = per_layer(tracer, measured, ledger, cli_imports)
            units = PER_LAYER
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
            tracer.write(trace_path)
            detail = {"spans": len(tracer.spans),
                      "trace_file": str(trace_path.relative_to(HERE.parent))}
        else:
            metrics, detail = end_to_end(measured, setups, workload.max_tail_pct)
            units = END_TO_END
    finally:
        if workload.tmpdir is not None:
            shutil.rmtree(workload.tmpdir, ignore_errors=True)

    attempted = warmup.attempted + measured.attempted
    failed = warmup.failed + measured.failed
    detail["failed_frac"] = failed / attempted
    for failure in failures:
        print(failure, file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "detail": detail, **result}, indent=1))
    print("env: " + json.dumps(env))
    print("detail: " + json.dumps(detail))
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} failed_frac = {detail['failed_frac']:.6g} ({failed}/{attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time one workload's set-up in a fresh interpreter.

Set-up is ``import hopfcon`` plus building the workload's input states
through ``hopfcon.states``; the benchmark's reference computation is left
out.  ``import hopfcon.cli`` is timed on its own and counts towards set-up
only for the workload that drives the CLI.

Usage: python3 setup_child.py <workload> <seed> <scratch dir>
Prints one JSON object: setup_s, cli_import_s, fingerprint.
"""

import json
import shutil
import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    workload, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = perf_counter()
    import hopfcon  # noqa: F401
    t1 = perf_counter()
    import hopfcon.cli  # noqa: F401
    t2 = perf_counter()
    from tracing import Tracer
    from workloads import BUILDERS, memory_cap, without_references
    built = BUILDERS[workload](seed, Tracer(), memory_cap(), scratch, without_references)
    t3 = perf_counter()
    if built.tmpdir is not None:
        shutil.rmtree(built.tmpdir)
    cli_import = t2 - t1
    setup = (t1 - t0) + (t3 - t2) + (cli_import if workload == "crosscheck" else 0.0)
    print(json.dumps({"setup_s": setup, "cli_import_s": cli_import,
                      "fingerprint": built.fingerprint}))


if __name__ == "__main__":
    main()

"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace 1 --spans PATH]

Imports the package from ``src/``, loads the config, runs the workload's
suites back to back through ``cli.run_suite`` and prints one JSON line:
the monotonic time at which set-up ended, the wall and CPU time of the
suites, peak resident memory, every report's check records (or the error
its suite raised), the environment and, when traced, the per-layer metrics.
``run.py`` starts one worker per pass; it is not meant to be run by hand.
"""

import argparse
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "foliation_lab", "cli.py")):
        sys.exit(f"worker: no package sources under {SRC}")
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, SRC)
    import_start = time.perf_counter()
    import numpy
    import scipy

    import foliation_lab
    from foliation_lab import cli

    import_s = time.perf_counter() - import_start
    cfg = cli.load_config(None, workload.overrides)
    cfg["seed"] = args.seed
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(foliation_lab)

    suites = []
    cpu_start = time.process_time()
    start = time.perf_counter()
    for name in workload.suites:
        try:
            report = cli.run_suite(name, cfg)
        except Exception as exc:  # the report is lost; the run goes on with the next suite
            suites.append({"suite": name, "error": f"{type(exc).__name__}: {exc}"})
            continue
        suites.append(
            {
                "suite": report["suite"],
                "all_passed": report["all_passed"],
                "checks": [[c["name"], c["status"], c["measured"]] for c in report["checks"]],
            }
        )
    end = time.perf_counter()
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "ready": ready,
        "import_s": import_s,
        "wall_s": end - start,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "suites": suites,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "FOLIATION_LAB_THREADS": os.environ.get("FOLIATION_LAB_THREADS"),
        },
    }
    if tracer is not None:
        result["layers"] = tracer.summary(start, end)
        if args.spans:
            tracer.write(args.spans, start)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

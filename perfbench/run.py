"""foliation-lab benchmark: runs one workload for a fixed time and reports.

    python3 perfbench/run.py --workload groupoid-default [--seed 12345]
                             [--seconds S] [--trace 0|1]

Each pass is a fresh interpreter (``worker.py``) that imports the package,
loads the config and runs the workload's suites back to back, one client in
a closed loop.  Passes repeat for about ``--seconds`` (default: the
``run_seconds`` of BENCHMARK.json); ``--seconds 0`` makes one pass per
mode, a smoke run.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics (medians over passes)
with ``--trace 0``, the per-layer metrics of traced passes with
``--trace 1``.  The lines before it give quartiles, sample counts, failed
checks and the environment.  ``--workload all`` runs every workload in turn.
See README.md beside this file.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from spans import layer_metric_units
from workloads import DEFAULT_SEED, EXPECTED_CHECKS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# a run must end within 180 s; no pass may outlive that
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_ratio": "ratio",
}
PER_LAYER_UNITS = {
    **layer_metric_units(),
    "imports.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not measure the program."""


def run_pass(workload, seed, trace, started):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")]
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not finish within the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def grade(passes):
    """Check every report against its suite's fixed check list.

    Returns (attempted, failed, problems): a check fails when its record
    says so, when it is missing or unexpected, or when its suite raised.
    ``problems`` lists what makes the output itself wrong (a raised suite,
    a changed check list, an outcome that differs between passes of one
    seed), as opposed to a check that ran and did not pass.
    """
    attempted = failed = 0
    problems = []
    outcomes = set()
    for result in passes:
        outcome = []
        for suite in result["suites"]:
            expected = EXPECTED_CHECKS[suite["suite"]]
            attempted += len(expected)
            if "error" in suite:
                failed += len(expected)
                problems.append(f"{suite['suite']} raised {suite['error']}")
                outcome.append((suite["suite"], "error"))
                continue
            names = [c[0] for c in suite["checks"]]
            if names != list(expected):
                problems.append(f"{suite['suite']} reports checks {names}, expected {list(expected)}")
            status = {c[0]: c[1] for c in suite["checks"]}
            bad = [n for n in expected if status.get(n) != "pass"]
            extra = [n for n in names if n not in expected]
            failed += len(bad) + len(extra)
            if suite["all_passed"] != (not bad and not extra):
                problems.append(f"{suite['suite']} all_passed={suite['all_passed']} disagrees with its checks")
            outcome.append((suite["suite"], tuple((c[0], c[1]) for c in suite["checks"])))
        outcomes.add(tuple(outcome))
    if len(outcomes) > 1:
        problems.append("check outcomes differ between passes of one seed")
    return attempted, failed, problems


def failed_checks(passes):
    seen = []
    for suite in passes[0]["suites"]:
        if "error" in suite:
            seen.append({"suite": suite["suite"], "error": suite["error"]})
        for name, status, measured in suite.get("checks", ()):
            if status != "pass":
                seen.append({"suite": suite["suite"], "check": name, "status": status, "measured": measured})
    return seen


def spread(values):
    """Median, quartiles and samples of one metric over the passes."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


def end_to_end(plain, attempted, failed):
    samples = {name: [p[name] for p in plain] for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
    stats = {name: spread(values) for name, values in samples.items()}
    stats["check_pass_ratio"] = {"median": 1.0 - failed / attempted, "n": len(plain)}
    return stats


def per_layer(plain, traced):
    stats = {}
    problems = []
    for name in layer_metric_units():
        values = [t["layers"][name] for t in traced]
        if PER_LAYER_UNITS[name] == "count" and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes of one seed: {values}")
        stats[name] = spread(values)
    stats["imports.self_s"] = spread([p["import_s"] for p in plain + traced])
    ratio = statistics.median(t["wall_s"] for t in traced) / statistics.median(p["wall_s"] for p in plain)
    stats["trace.overhead_ratio"] = {"median": ratio, "n": len(traced)}
    return stats, problems


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared_units(spec, section):
    """Metric names and units that BENCHMARK.json declares for a section."""
    return {m["name"]: m["unit"] for m in spec[section]}


def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines():
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def run_workload(workload, seed, seconds, trace):
    started = time.monotonic()
    plain, traced = [], []
    while True:
        round_start = time.monotonic()
        plain.append(run_pass(workload, seed, 0, started))
        if trace:
            traced.append(run_pass(workload, seed, 1, started))
        now = time.monotonic()
        # one more round only if it would end nearer the deadline than stopping now
        if now - started + (now - round_start) / 2 >= seconds:
            break
    attempted, failed, problems = grade(plain + traced)
    if trace:
        stats, count_problems = per_layer(plain, traced)
        problems += count_problems
        units = PER_LAYER_UNITS
    else:
        stats = end_to_end(plain, attempted, failed)
        units = END_TO_END_UNITS
    env = dict(plain[0]["env"], git_commit=git_commit(), src_lines=src_lines())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(plain) + len(traced),
        "attempted": attempted,
        "failed": failed,
        "check_fail_ratio": failed / attempted,
        "failed_checks": failed_checks(plain),
        "problems": problems,
        "stats": stats,
        "units": units,
        "env": env,
    }


def print_report(report):
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} passes={report['passes']}")
    for name, stat in report["stats"].items():
        quartiles = f"  q1 {stat['q1']:.6g}  q3 {stat['q3']:.6g}" if "q1" in stat else ""
        print(f"{name:48s} {stat['median']:.6g} {report['units'][name]}{quartiles}  n={stat['n']}")
    detail = {k: report[k] for k in ("workload", "seed", "check_fail_ratio", "failed_checks", "problems", "env")}
    detail["samples"] = {name: stat["samples"] for name, stat in report["stats"].items() if "samples" in stat}
    print(json.dumps(detail))


def metrics_of(report, prefix=""):
    return {
        prefix + name: {"value": stat["median"], "unit": report["units"][name]}
        for name, stat in report["stats"].items()
    }


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help="how long each workload measures; 0 makes one pass per mode (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    declared = declared_units(spec, "per_layer" if args.trace else "end_to_end")
    reports = []
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, args.trace)
            reported = {name: report["units"][name] for name in report["stats"]}
            if reported != declared:
                raise BenchError(f"metrics {reported} do not match BENCHMARK.json {declared}")
            print_report(report)
            reports.append(report)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        metrics = metrics_of(reports[0])
    else:
        metrics = {k: v for r in reports for k, v in metrics_of(r, r["workload"] + "/").items()}
    print(
        json.dumps(
            {
                "correct": not any(r["problems"] for r in reports),
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

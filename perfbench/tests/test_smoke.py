"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import grade  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_declared_metric(trace, section):
    result = last_json(bench("--workload", "flow-index", "--seconds", "0", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared(section)


def test_known_defect_shows_at_seed_7():
    # adjoint_antimultiplicativity measures 1.10e-6 against 1e-6 at seeds 4 and 7
    proc = bench("--workload", "groupoid-default", "--seed", "7", "--seconds", "0")
    result = last_json(proc)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (8, 1)
    assert result["metrics"]["check_pass_ratio"]["value"] == 7 / 8
    assert '"check": "adjoint_antimultiplicativity"' in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "flow-index", "--seconds", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _pass(*suites):
    return {"suites": list(suites)}


def test_grade_counts_every_kind_of_failure():
    expected = ["parity_classification", "bi_index_components_equal_iff_odd"]
    ok = {"suite": "classify", "all_passed": True, "checks": [[n, "pass", 0.0] for n in expected]}
    failing = {"suite": "classify", "all_passed": False, "checks": [[expected[0], "fail", 1.0], [expected[1], "pass", 0.0]]}
    renamed = {"suite": "classify", "all_passed": True, "checks": [[expected[0], "pass", 0.0], ["other", "pass", 0.0]]}
    raised = {"suite": "classify", "error": "ValueError: bad"}

    assert grade([_pass(ok), _pass(ok)]) == (4, 0, [])
    attempted, failed, problems = grade([_pass(failing)])
    assert (attempted, failed, problems) == (2, 1, [])
    attempted, failed, problems = grade([_pass(renamed)])
    assert (attempted, failed) == (2, 2) and problems
    attempted, failed, problems = grade([_pass(raised)])
    assert (attempted, failed) == (2, 2) and problems
    attempted, failed, problems = grade([_pass(ok), _pass(failing)])
    assert (attempted, failed) == (4, 1)
    assert problems == ["check outcomes differ between passes of one seed"]

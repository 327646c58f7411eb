"""Golden reports: every suite's records, bit for bit, on a fixed config list.

    python tests/golden.py --check   # compare every config with the fixture
    python tests/golden.py --write   # rewrite the fixture from this checkout

Each config runs through ``cli.main``, the command-line entry point, into a
temporary report.  The fixture, ``golden_reports.json`` beside this file,
stores per config the exit code and, per record, its name, status,
``measured`` and ``data``, and its error message if it has one; every float
is stored as ``float.hex``, so NaN and the last bit round-trip.  The wall
time is left out.

``--check`` prints every record that differs, with the fixture's value, the
new one and their distance in ulps, and exits 1 on any difference.  A change
that moves records runs ``--write``; the fixture's diff then lists them.
Run from the repository root; the package is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import struct
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = pathlib.Path(__file__).resolve().parent / "golden_reports.json"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from foliation_lab import cli  # noqa: E402

SUITES = (
    "verify-coeff", "verify-flow", "verify-groupoid", "verify-jets", "index", "classify",
    "demo-nonpreservation",
)
SEEDS = (12345, 7, 90210)
REFINED = ("grid.x_step=0.002", "grid.t_step=0.01", "k_values=[2]")


def _configs():
    """(suite, overrides) of every golden config, seed 12345 first."""
    configs = []
    for seed in SEEDS:
        configs += [(suite, (f"seed={seed}",)) for suite in SUITES]
        configs.append(("verify-groupoid", (f"seed={seed}",) + REFINED))
    configs += [
        ("verify-groupoid", ("seed=12345", "grid.t_step=0.05")),
        ("verify-flow", ("seed=12345", "k_values=[1,2,3,4,5,6,12,13,20]")),
        ("verify-jets", ("seed=12345", "k_values=[1,2,3,4]")),
        # the adjoint's result layout reaches this record's trapezoid sums
        ("verify-groupoid", ("seed=3", "k_values=[1,2,3,4,5]")),
    ]
    return configs


CONFIGS = _configs()


def label(suite, overrides):
    return " ".join((suite,) + overrides)


def _encode(value):
    """value with every float as its ``float.hex`` string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_encode(item) for item in value]
    return value


def run_config(suite, overrides):
    """The exit code and encoded records of one config, run through cli.main."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        argv = [suite, "--out", out]
        for item in overrides:
            argv += ["--override", item]
        # the checks' progress lines and an errored check's traceback
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        with open(out) as fh:
            report = json.load(fh)
    keep = ("name", "status", "measured", "data", "error")
    records = [{key: rec[key] for key in keep if key in rec} for rec in report["checks"]]
    return {"exit_code": code, "records": _encode(records)}


def _ordered(x):
    """The integer whose order is that of the float x (ulps apart = difference)."""
    (n,) = struct.unpack("<q", struct.pack("<d", x))
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def _ulps(old, new):
    """Distance in ulps of two float.hex strings, or None if either is not one."""
    try:
        a, b = float.fromhex(old), float.fromhex(new)
    except (TypeError, ValueError):
        return None
    if math.isnan(a) or math.isnan(b):
        return None
    return abs(_ordered(a) - _ordered(b))


def _diffs(old, new, path):
    """(path, old, new) of every leaf where two encoded values differ."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            yield from _diffs(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _diffs(a, b, f"{path}[{i}]")
    elif old != new:
        yield path, old, new


def compare(name, expected, got):
    """One line per difference between a config's fixture entry and its run."""
    lines = []
    old_records = expected["records"]
    new_records = got["records"]
    if expected["exit_code"] != got["exit_code"]:
        lines.append(f"{name}: exit code {expected['exit_code']} -> {got['exit_code']}")
    if [r["name"] for r in old_records] != [r["name"] for r in new_records]:
        lines.append(f"{name}: records {[r['name'] for r in old_records]} -> "
                     f"{[r['name'] for r in new_records]}")
        return lines
    for old, new in zip(old_records, new_records):
        for path, a, b in _diffs(old, new, old["name"]):
            ulps = _ulps(a, b)
            far = "" if ulps is None else f" ({ulps} ulps)"
            lines.append(f"{name}: {path}: {a} -> {b}{far}")
    return lines


def check(configs=CONFIGS):
    """Every difference between the fixture and fresh runs of configs."""
    fixture = json.loads(FIXTURE.read_text())
    lines = []
    for suite, overrides in configs:
        name = label(suite, overrides)
        if name not in fixture:
            lines.append(f"{name}: not in the fixture")
            continue
        lines += compare(name, fixture[name], run_config(suite, overrides))
    return lines


def write(configs=CONFIGS):
    fixture = {label(suite, overrides): run_config(suite, overrides) for suite, overrides in configs}
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the fixture")
    mode.add_argument("--write", action="store_true", help="rewrite the fixture")
    args = parser.parse_args(argv)
    if args.write:
        write()
        print(f"wrote {len(CONFIGS)} configs to {FIXTURE}")
        return 0
    lines = check()
    for line in lines:
        print(line)
    print(f"{len(CONFIGS)} configs, {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

"""The seed-12345 golden configs reproduce the fixture bit for bit.

``golden.py --check`` runs every config; here the refined verify-groupoid
run (0.7 s) is left to it, to keep this file near a second.
"""

import json
import math

import pytest

import golden

FAST = [
    (suite, overrides)
    for suite, overrides in golden.CONFIGS
    if overrides[0] == "seed=12345" and overrides[1:] != golden.REFINED
]


@pytest.mark.parametrize("suite, overrides", FAST, ids=[golden.label(*c) for c in FAST])
def test_report_matches_the_fixture(suite, overrides):
    assert golden.check([(suite, overrides)]) == []


def test_a_one_ulp_move_is_named_with_its_distance():
    fixture = json.loads(golden.FIXTURE.read_text())
    name = golden.label("classify", ("seed=12345",))
    moved = json.loads(json.dumps(fixture[name]))
    record = moved["records"][0]
    record["measured"] = math.nextafter(float.fromhex(record["measured"]), math.inf).hex()
    lines = golden.compare(name, fixture[name], moved)
    assert len(lines) == 1
    assert record["name"] in lines[0] and "(1 ulps)" in lines[0]

"""Byte-pinned results of the geometry commands: `duality`, `sucmin` with
and without `--bounds`, `polar` and `measure` on 20 fixed 5x5 matrices
over F2 and F3 (built the way the benchmark's duality jobs are) and on two
matrices whose elimination quotients span more than 64 exponents, all
recorded with the cofactor determinants and adjugates that fraction-free
elimination replaced; then `sucmin` and `duality` on two matrices with
exponent spreads of about 100 and 200, recorded with the level walk over
every value level that weak Popov reduction replaced."""

import json
import os

import pytest

from lsdioph.cli import main

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "geometry_pins.json")
with open(PINS) as fh:
    CASES = json.load(fh)
# the commands on each matrix, in the order recorded
GROUPS = {}
for case in CASES:
    GROUPS.setdefault(case["argv"][case["argv"].index("--matrix") + 1], []).append(case)
GROUPS = list(GROUPS.values())


@pytest.mark.parametrize("group", GROUPS, ids=[f"matrix{i}" for i in range(len(GROUPS))])
def test_geometry_results_are_byte_identical(group, capsys):
    for case in group:
        assert main(case["argv"] + ["--no-timestamp"]) == 0, case["argv"]
        result = json.loads(capsys.readouterr().out)["result"]
        assert json.dumps(result, sort_keys=True) == case["result"], case["argv"]

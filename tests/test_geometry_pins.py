"""Byte-pinned results of the geometry commands: `duality`, `sucmin` with
and without `--bounds`, `polar` and `measure` on 20 fixed 5x5 matrices
over F2 and F3 (built the way the benchmark's duality jobs are) and on two
matrices whose elimination quotients span more than 64 exponents.  The
results in `geometry_pins.json` were recorded with the cofactor
determinants and adjugates that fraction-free elimination replaced."""

import json
import os

import pytest

from lsdioph.cli import main

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "geometry_pins.json")
with open(PINS) as fh:
    CASES = json.load(fh)
# five commands per matrix, in the order recorded
GROUPS = [CASES[i : i + 5] for i in range(0, len(CASES), 5)]


@pytest.mark.parametrize("group", GROUPS, ids=[f"matrix{i}" for i in range(len(GROUPS))])
def test_geometry_results_are_byte_identical(group, capsys):
    for case in group:
        assert main(case["argv"] + ["--no-timestamp"]) == 0, case["argv"]
        result = json.loads(capsys.readouterr().out)["result"]
        assert json.dumps(result, sort_keys=True) == case["result"], case["argv"]

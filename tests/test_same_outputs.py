"""tools/same_outputs.py: how it sizes the difference between two outputs."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _TOOL)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def test_csv_difference_is_relative_to_the_column_peak():
    # entries of ~1e-15 that move by 1e-17 under a column peak of 0.1 are round-off
    before = b"x,value\n0,0.1\n1,1e-15\n2,-2e-15\n"
    after = b"x,value\n0,0.1\n1,1.01e-15\n2,-2.01e-15\n"
    assert same_outputs.relative_difference(before, after, by_column=True) <= 1e-15
    # summary.json keeps the rule number by number, pairing the values of one key
    before, after = b'{"errors": [0.1, 1e-15]}', b'{"errors": [0.1, 1.01e-15]}'
    assert same_outputs.relative_difference(before, after) == pytest.approx(0.01 / 1.01)


def test_summary_keys_of_one_side_are_named_not_sized():
    before = b'{"config": {"n": 1, "theta": 2.0}, "slope": 2.0}'
    after = b'{"config": {"n": 1}, "slope": 2.0000000000000004}'
    assert same_outputs.one_sided_keys(before, after) == {"config.theta"}
    assert same_outputs.relative_difference(before, after) == pytest.approx(2.2e-16, rel=0.01)
    unequal = same_outputs.relative_difference(b'{"breakdown": null}', b'{"breakdown": 1.0}')
    assert unequal == float("inf")

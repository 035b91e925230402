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
    # summary.json keeps the rule number by number
    assert same_outputs.relative_difference(before, after) == pytest.approx(0.01 / 1.01)

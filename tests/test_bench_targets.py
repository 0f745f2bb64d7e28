"""Every function the benchmark traces by name is still where it looks.

``perfbench/workloads.py`` wraps each target by replacing
``vars(owner)[attr]``; a refactor that drops or moves one of those names
would otherwise only show up as a KeyError in a traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("target", workloads.FULL_TARGETS, ids=lambda t: t.span)
def test_traced_name_is_an_attribute_of_its_owner(target):
    assert target.attr in vars(target.owner)

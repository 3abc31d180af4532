"""Acceptance suite: one test per criterion, at the full trial counts.

Every check is exact (tolerance zero).  Each test prints its PASS/FAIL line
so `pytest -s tests/test_acceptance.py` mirrors `p1homotopy selftest`.
"""

import pytest

from p1homotopy.selftest import CHECKS

SEED = 7
TRIALS = 1000


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__.removeprefix("check_"))
def test_criterion(check):
    result = check(SEED, TRIALS)
    print(result.describe())
    assert result.passed, result.detail

"""Acceptance suite: one test per law suite of `p1homotopy selftest`, at the
full trial count.

Every check is exact (tolerance zero).  Each test prints its PASS/FAIL line
so `pytest -s tests/test_acceptance.py` mirrors the law-suite lines of
`p1homotopy selftest`.  The selftest's fourth check, the contract replay, is
not run here: `tests/test_golden.py` replays every case, the `selftest_t20`
case among them.
"""

import pytest

from p1homotopy.selftest import LAW_SUITES

SEED = 7
TRIALS = 1000


@pytest.mark.parametrize("check", LAW_SUITES, ids=lambda c: c.__name__.removeprefix("check_"))
def test_criterion(check):
    result = check(SEED, TRIALS)
    print(result.describe())
    assert result.passed, result.detail

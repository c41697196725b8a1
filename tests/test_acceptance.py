"""The acceptance gate: one test per criterion, exact comparisons throughout.

Every quantity asserted here is an integer or an exact rational, so all
tolerances are zero; the two timed criteria carry their stated wall-clock
budgets (60 s and 10 s).  Each test prints its PASS/FAIL line so a -s run
reads as a checklist.
"""

import pytest

from subdesigns import repro


def _run(number: int) -> repro.CriterionResult:
    fn = repro.ALL_CRITERIA[number - 1]
    res = fn()
    status = "PASS" if res.ok else "FAIL"
    print(f"[{status}] criterion {res.number}: {res.name} ({res.elapsed:.1f}s) - {res.details}")
    for msg in res.failures:
        print(f"         {msg}")
    return res


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(number):
    res = _run(number)
    assert res.ok, res.failures
    assert res.number == number and repro.ALL_CRITERIA[number - 1].__name__ == f"criterion_{number}"

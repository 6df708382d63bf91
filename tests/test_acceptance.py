"""Acceptance gate: every criterion of the built-in verification suite
must pass at its stated tolerance.  One pass/fail line is printed per
criterion; the same runners back the ``verify`` subcommand.
"""

import pytest

from epcag_lab.acceptance import CRITERIA, run_criterion


@pytest.mark.parametrize("number,name", [(num, name) for num, name, _ in CRITERIA])
def test_criterion(number, name):
    res = run_criterion(number, seed=0)
    print(res.line())
    assert res.passed, f"criterion {number} ({name}) failed: {res.details}"


def test_run_criterion_rejects_unknown_number():
    with pytest.raises(ValueError):
        run_criterion(99)

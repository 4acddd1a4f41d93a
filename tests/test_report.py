"""The trial runner behind every randomized check, and what it does at zero trials."""

import pytest

from nilheckeb import (
    SuiteReport,
    verify_dg,
    verify_J,
    verify_nil_relations,
    verify_presentation,
    verify_schur,
    verify_solomon,
    verify_weyl,
)


def counting(values):
    """A draw that returns ``values`` in turn and counts its calls."""
    it = iter(values)

    def draw():
        draw.calls += 1
        return next(it)

    draw.calls = 0
    return draw


def test_zero_trials_fail():
    rep = SuiteReport("t")
    draw = counting([])
    check = rep.trials("law", 0, lambda v: True, draw)
    assert not check.passed
    assert check.detail == "no trial ran"
    assert draw.calls == 0


def test_trials_that_never_apply_fail():
    rep = SuiteReport("t")
    check = rep.trials("law", 4, lambda v: None, counting(range(4)))
    assert not check.passed
    assert check.detail == "no trial ran"


def test_one_false_fails_and_every_trial_draws():
    rep = SuiteReport("t")
    first, second = counting(range(6)), counting(range(6))
    seen = []

    def holds(a, b):
        seen.append((a, b))
        return None if a == 0 else a != 2

    check = rep.trials("law", 6, holds, first, second)
    assert not check.passed
    assert check.detail == ""
    assert first.calls == second.calls == 6
    assert seen == [(k, k) for k in range(6)]


def test_applied_trials_that_hold_pass():
    rep = SuiteReport("t")
    check = rep.trials("law", 3, lambda v: None if v else True, counting(range(3)))
    assert check.passed
    assert rep.passed


SUITES = {
    "weyl": lambda t: verify_weyl(2, trials=t),
    "demazure": lambda t: verify_nil_relations(2, trials=t),
    "nilhecke": lambda t: verify_presentation(2, trials=t),
    "schur": lambda t: verify_schur(2, trials=t),
    "dg": lambda t: verify_dg(2, 2, trials=t),
}

# Checks that fail at zero trials without going through the runner.
EMPTY_DETAIL_FAILURES = {
    "dg": "raises the N-grading by one",
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_zero_trials_fail_every_suite(suite, monkeypatch):
    counts = {}
    run_trials = SuiteReport.trials

    def recording(self, check, count, holds, *draws):
        counts[check] = count
        return run_trials(self, check, count, holds, *draws)

    monkeypatch.setattr(SuiteReport, "trials", recording)
    rep = SUITES[suite](0)
    assert not rep.passed
    assert any(count == 0 for count in counts.values())
    for c in rep.checks:
        if counts.get(c.check) == 0:
            assert (c.passed, c.detail) == (False, "no trial ran"), c.check
        elif c.check.startswith(EMPTY_DETAIL_FAILURES.get(suite, "\0")):
            assert (c.passed, c.detail) == (False, ""), c.check
        else:
            assert c.passed, c.check


def test_the_solomon_suites_draw_no_trials(monkeypatch):
    # J's invariance is checked on its n images once, so verify_J and
    # verify_solomon run no trials, and the trial count that verify_solomon
    # keeps for the common suite signature changes nothing
    def refuse(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(SuiteReport, "trials", refuse)
    assert verify_J(3).passed
    reports = [verify_solomon(3, trials=t, seed=s).to_json() for t, s in [(0, 0), (8, 5)]]
    assert reports[0] == reports[1] and reports[0]["pass"]

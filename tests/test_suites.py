"""Tests for qvelab.suites: the trial harness and the suite table."""

import math

import pytest

from qvelab import suites
from qvelab.report import CheckReport


class TestRun:
    def test_counts_failing_and_nan_trials(self):
        reports = iter([CheckReport(1.0, 2.0, True),
                        CheckReport(3.0, 2.0, False),
                        CheckReport(math.nan, 2.0, math.nan <= 2.0),
                        CheckReport(0.5, 2.0, True)])
        res = suites._run("toy", 0, 4, lambda rng: next(reports))
        assert (res.name, res.trials, res.violations) == ("toy", 4, 2)
        assert not res.passed
        assert res.details[0] == (1, 3.0, 2.0)
        t, lhs, rhs = res.details[1]
        assert t == 2 and math.isnan(lhs) and rhs == 2.0
        # a NaN margin is the worst one
        assert math.isnan(res.worst_margin) and res.worst_trial == 2
        assert res.elapsed_s >= 0.0

    def test_worst_margin(self):
        reports = iter([CheckReport(1.0, 2.0, True),
                        CheckReport(3.0, 2.0, False),
                        CheckReport(0.0, 0.0, True),
                        CheckReport(3.0, 2.0, False)])
        res = suites._run("toy", 0, 4, lambda rng: next(reports))
        assert (res.worst_margin, res.worst_trial) == (1.5, 1)
        zero = suites._run("toy", 0, 2, lambda rng: CheckReport(0.0, 0.0, True))
        assert (zero.worst_margin, zero.worst_trial) == (0.0, 0)
        over = suites._run("toy", 0, 1, lambda rng: CheckReport(1e-300, 0.0, False))
        assert over.worst_margin == math.inf

    def test_rejects_nonpositive_trials(self):
        for trials in (0, -3):
            with pytest.raises(ValueError):
                suites._run("toy", 0, trials, lambda rng: CheckReport(0, 1, True))
        with pytest.raises(ValueError):
            suites.schur_ward_suite(trials=0)

    def test_groups_name_known_suites(self):
        assert suites.GROUPS["all"] == list(suites.ALL_SUITES)
        for names in suites.GROUPS.values():
            assert set(names) <= set(suites.ALL_SUITES)

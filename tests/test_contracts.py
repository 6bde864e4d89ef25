"""The numerical contracts are module constants that no call can loosen.

Every number qvelab reports rests on the solver residual, the mass an
inversion captures and the slacks of the inequality checks.  This file pins
each of them, and asserts that none of the routines that enforce them takes a
tolerance, slack or kappa argument: loosening a contract takes an edit here.
"""

import inspect

import pytest

from qvelab import measures, qve, trees


def test_contract_values():
    assert qve.RESIDUAL_TOL == 1e-12
    assert qve.MIN_CAPTURED_MASS == 0.99
    assert qve.STABILITY_KAPPA == 128.0
    assert measures.HW_SLACK == 2e-3
    assert measures.INTERLACING_SLACK == 1e-3
    assert measures.METRIC_SLACK == 1e-9
    assert trees.COUNTING_SLACK == 1e-12
    assert trees.DEGREE_SLACK == 1e-12


@pytest.mark.parametrize("fn", [qve.solve_qve, qve.stability_check,
                                measures.hw_check, measures.interlacing_check,
                                measures.metric_inequality_check,
                                trees.counting_lemma_check,
                                trees.degree_bound_check])
def test_no_call_can_loosen_a_contract(fn):
    params = inspect.signature(fn).parameters.values()
    assert not [p.name for p in params
                if any(word in p.name for word in ("tol", "slack", "kappa"))]
    assert not [p.name for p in params if p.kind is p.VAR_KEYWORD]

"""The numerical contracts are module constants that no call can loosen.

Every number qvelab reports rests on the solver residual, the mass an
inversion captures and the slacks of the inequality checks.  This file pins
each of them, and asserts that none of the routines that enforce them takes a
tolerance, slack or kappa argument: loosening a contract takes an edit here.
The count of defaulted parameters in the library modules is pinned too, so
adding an option also takes an edit here.
"""

import inspect

import pytest

from qvelab import ensembles, kernels, measures, qve, rates, suites, trees

LIBRARY_MODULES = (kernels, measures, qve, rates, trees, ensembles, suites)
DEFAULTED_PARAMETERS = 42


def test_contract_values():
    assert qve.RESIDUAL_TOL == 1e-12
    assert qve.MIN_CAPTURED_MASS == 0.99
    assert qve.STABILITY_KAPPA == 128.0
    assert measures.HW_SLACK == 2e-3
    assert measures.INTERLACING_SLACK == 1e-3
    assert measures.METRIC_SLACK == 1e-9
    assert trees.COUNTING_SLACK == 1e-12
    assert trees.DEGREE_SLACK == 1e-12
    assert measures.INTERLACING_PRECONDITION_SLACK == 1e-12
    assert suites.SCHUR_WARD_SCALE == 1e-9
    assert suites.RANK_KS_SLACK == 1e-12
    assert suites.CUT_NORM_EXACT_TOL == 1e-12
    assert suites.K_ALPHA_ROUNDTRIP_TOL == 1e-9


def test_cut_distance_sizes():
    # exact cut distance: the largest k, the stacked block, the pruning tile,
    # the incumbents and the pruning margin, with no option to change them
    assert kernels.MAX_EXACT_CUTDIST == 8
    assert kernels.CUTDIST_BLOCK == 8192
    assert kernels.CUTDIST_TILE == 4
    assert kernels.CUTDIST_INCUMBENTS == 16
    assert kernels.CUTDIST_MARGIN == 1e-9
    assert list(inspect.signature(kernels.cut_distance).parameters) == ["W1", "W2"]


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


def _library_functions():
    """Every function and class method defined in the library modules."""
    for mod in LIBRARY_MODULES:
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    fn = getattr(member, "__func__", member)
                    if inspect.isfunction(fn):
                        yield fn


def test_defaulted_parameter_count():
    count = sum(p.default is not p.empty
                for fn in _library_functions()
                for p in inspect.signature(fn).parameters.values())
    assert count == DEFAULTED_PARAMETERS

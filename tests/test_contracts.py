"""The numerical contracts are module constants that no call can loosen.

Every number qvelab reports rests on the solver residual, the mass an
inversion captures and the slacks of the inequality checks.  This file pins
each of them, and asserts that none of the routines that enforce them takes a
tolerance, slack or kappa argument: loosening a contract takes an edit here.
The count of defaulted parameters in the library modules is pinned too, so
adding an option also takes an edit here, and so do the option strings of
every CLI subcommand.
"""

import argparse
import inspect

import pytest

from qvelab import cli, ensembles, kernels, measures, qve, rates, suites, trees

LIBRARY_MODULES = (kernels, measures, qve, rates, trees, ensembles, suites)
DEFAULTED_PARAMETERS = 35


def test_contract_values():
    assert qve.RESIDUAL_TOL == 1e-12
    assert qve.MIN_CAPTURED_MASS == 0.99
    assert qve.STABILITY_KAPPA == 128.0
    assert measures.HW_SLACK == 2e-3
    # d <= 2|E| compares two QVE solutions: a rounding slack, no inversion
    assert measures.INTERLACING_SLACK == 1e-9
    assert measures.METRIC_SLACK == 1e-9
    assert trees.COUNTING_SLACK == 1e-12
    assert trees.DEGREE_SLACK == 1e-12
    assert measures.INTERLACING_PRECONDITION_SLACK == 1e-12
    assert suites.SCHUR_WARD_SCALE == 1e-9
    assert suites.RANK_KS_SLACK == 1e-12
    assert suites.CUT_NORM_EXACT_TOL == 1e-12
    assert suites.K_ALPHA_ROUNDTRIP_TOL == 1e-9
    assert rates.K_ALPHA_PSI_TOL == 1e-10
    assert rates.CHAOS_TOL == 1e-10


def test_solver_search_sizes():
    # the QVE solver's search sizes fix which points share a batched matmul
    # and LAPACK call, and numpy rounds a row differently in batches of
    # different sizes: they fix the batch composition, and so the output bits
    assert qve.NEWTON_BLOCK == 1000
    assert qve.COARSE_STRIDE == 8
    assert qve.MAX_ITER == 100
    assert qve.CONTINUATION_FACTOR == 16.0
    assert qve.MIN_FACTOR == 1.05
    assert qve.LEVEL_TOL == 1e-2
    assert qve.GRID_POINTS == 4000
    assert qve.GRID_ETA == 1e-3


def test_cut_distance_sizes():
    # exact cut distance: the largest k, the stacked block, the pruning tile,
    # the incumbents and the pruning margin, with no option to change them
    assert kernels.MAX_EXACT_CUTDIST == 8
    assert kernels.CUTDIST_BLOCK == 8192
    assert kernels.CUTDIST_TILE == 4
    assert kernels.CUTDIST_INCUMBENTS == 16
    assert kernels.CUTDIST_MARGIN == 1e-9
    assert list(inspect.signature(kernels.cut_distance).parameters) == ["W1", "W2"]


def test_ensemble_block_sizes():
    # the sampler's row block and the symmetry check's tile are constants with
    # no option to change them; neither changes an output bit
    assert ensembles.ROW_BLOCK == 1 << 15
    assert ensembles.SYMMETRY_TILE == 128
    assert list(inspect.signature(ensembles.sample_sparse_wigner).parameters) == [
        "n", "p", "law", "seed"]
    assert list(inspect.signature(ensembles.tilted_sample).parameters) == [
        "n", "p", "law", "U", "seed"]
    assert list(inspect.signature(ensembles.esm).parameters) == ["sample_or_matrix"]
    assert list(inspect.signature(ensembles.save_sample_csv).parameters) == [
        "sample", "path"]


def test_one_algorithm_per_routine():
    # the cut norm is exact only, up to MAX_EXACT_CUTNORM parts, and the
    # inversion always extrapolates with the QVE derivative at eta
    assert kernels.MAX_EXACT_CUTNORM == 12
    assert list(inspect.signature(kernels.cut_norm).parameters) == ["W"]
    assert list(inspect.signature(qve.qve_measure).parameters) == ["W", "grid"]


def test_suite_sizes():
    assert suites.RANK_KS_N == 60
    assert suites.SCHUR_WARD_N_MAX == 100
    assert suites.CUT_NORM_EXACTNESS_K_MAX == 8
    # every suite takes only its seed and its trial count
    for fn in suites.ALL_SUITES.values():
        assert list(inspect.signature(fn).parameters) == ["seed", "trials"]


def test_upper_regularity_size():
    # the exhaustive upper-regularity check: the largest part count, and no
    # option to sample past it
    assert kernels.MAX_EXACT_REGULARITY == 8
    assert list(inspect.signature(kernels.upper_regularity_check).parameters) == [
        "W", "eta", "K", "eps_list"]


@pytest.mark.parametrize("fn", [qve.solve_qve, qve.stability_check,
                                measures.hw_check, measures.interlacing_check,
                                measures.metric_inequality_check,
                                trees.counting_lemma_check,
                                trees.degree_bound_check,
                                rates.k_alpha, rates.h_L_prime,
                                rates.legendre_h_L, rates.chaos_exponent])
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


CLI_OPTIONS = {
    "qve-solve": ["--kernel", "--out", "--z"],
    "qve-measure": ["--grid", "--kernel", "--out"],
    "moments": ["--kernel", "--max-order", "--out"],
    "rate": ["--law", "--num", "--out", "--u-max", "--u-min"],
    "k-alpha": ["--alpha", "--eps", "--law", "--out"],
    "sample": ["--law", "--n", "--out", "--p", "--seed"],
    "tilt": ["--kernel", "--law", "--n", "--out", "--p", "--seed"],
    "spectrum": ["--law", "--matrix", "--n", "--out", "--p", "--seed"],
    "compare": ["--a", "--b", "--metric", "--out"],
    "cutnorm": ["--kernel", "--minus", "--out"],
    "verify": ["--out", "--seed", "--suite", "--trials"],
}


def test_cli_options():
    # a new flag, like a new library option, takes an edit here
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(opt for action in sp._actions
                        for opt in action.option_strings
                        if opt not in ("-h", "--help"))
           for name, sp in sub.choices.items()}
    assert got == CLI_OPTIONS

"""The numerical contracts are module constants that no call can loosen.

Every number qvelab reports rests on the solver residual, the mass an
inversion captures and the slacks of the inequality checks.  This file pins
each of them, and asserts that none of the routines that enforce them takes a
tolerance, slack or kappa argument: loosening a contract takes an edit here.
The count of defaulted parameters in the library modules is pinned too, so
adding an option also takes an edit here, and so do the option strings of
every CLI subcommand and the public names of every library module.
"""

import argparse
import ast
import inspect
from pathlib import Path

import pytest

from qvelab import cli, ensembles, kernels, measures, qve, rates, suites, trees

LIBRARY_MODULES = (kernels, measures, qve, rates, trees, ensembles, suites)
DEFAULTED_PARAMETERS = 32


def test_contract_values():
    assert qve.RESIDUAL_TOL == 1e-12
    assert qve.MIN_CAPTURED_MASS == 0.99
    assert qve.STABILITY_KAPPA == 128.0
    assert qve.HW_SLACK == 2e-3
    # HW_SLACK covers the inversion error of hw_check's own grid
    assert qve.HW_GRID_POINTS == 1000
    assert list(inspect.signature(qve.hw_check).parameters) == ["W", "W_prime"]
    # d <= 2|E| compares two QVE solutions: a rounding slack, no inversion
    assert qve.INTERLACING_SLACK == 1e-9
    assert measures.METRIC_SLACK == 1e-9
    assert trees.COUNTING_SLACK == 1e-12
    assert trees.DEGREE_SLACK == 1e-12
    assert qve.INTERLACING_PRECONDITION_SLACK == 1e-12
    assert suites.SCHUR_WARD_SCALE == 1e-9
    assert suites.RANK_KS_SLACK == 1e-12
    assert suites.CUT_NORM_EXACT_TOL == 1e-12
    assert suites.K_ALPHA_ROUNDTRIP_TOL == 1e-9
    assert rates.K_ALPHA_PSI_TOL == 1e-10


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
    # exact cut distance: the largest k, the stacked block, the bounding tile
    # and the stopping margin, with no option to change them
    assert kernels.MAX_EXACT_CUTDIST == 8
    assert kernels.CUTDIST_BLOCK == 2048
    assert kernels.CUTDIST_TILE == 4
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
    # bench/tracing.py reads solve_qve's points by the name z_points
    assert list(inspect.signature(qve.solve_qve).parameters) == [
        "W", "z_points", "m0", "shift"]


def test_suite_sizes():
    assert suites.RANK_KS_N == 60
    assert suites.SCHUR_WARD_N_MAX == 100
    assert suites.CUT_NORM_EXACTNESS_K_MAX == 8
    # every suite takes only its seed and its trial count
    for fn in suites.ALL_SUITES.values():
        assert list(inspect.signature(fn).parameters) == ["seed", "trials"]


@pytest.mark.parametrize("fn", [qve.solve_qve, qve.stability_check,
                                qve.hw_check, qve.interlacing_check,
                                measures.metric_inequality_check,
                                trees.counting_lemma_check,
                                trees.degree_bound_check,
                                rates.k_alpha, rates.h_L_prime,
                                rates.legendre_h_L])
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


PUBLIC_NAMES = {
    "kernels": [
        "CUTDIST_BLOCK", "CUTDIST_MARGIN", "CUTDIST_TILE",
        "CutDistance", "CutNorm", "MAX_EXACT_CUTDIST", "MAX_EXACT_CUTNORM",
        "Partition", "StepKernel", "common_refinement", "cut_distance",
        "cut_norm", "degree_function", "kernel_from_json", "kernel_to_json",
        "l1_norm", "load_kernel", "relabel", "save_kernel", "step_average",
        "to_common_partition"],
    "measures": [
        "METRIC_D_GRID", "METRIC_SLACK", "ProbMeasure1D", "QUANTILE_GRID",
        "ks_distance", "load_measure_csv", "metric_d", "metric_inequality_check",
        "save_measure_csv", "wasserstein"],
    "qve": [
        "COARSE_STRIDE", "CONTINUATION_FACTOR", "GRID_ETA", "GRID_POINTS",
        "HW_GRID_POINTS", "HW_SLACK", "INTERLACING_PRECONDITION_SLACK",
        "INTERLACING_SLACK", "LEVEL_TOL", "MAX_ITER", "MIN_CAPTURED_MASS",
        "MIN_FACTOR", "NEWTON_BLOCK", "QveMeasure", "QveSolution",
        "RESIDUAL_TOL", "SEMICIRCLE_GRID", "STABILITY_KAPPA", "SpectralGrid",
        "default_grid", "hw_check", "interlacing_check", "qve_measure",
        "semicircle_cdf", "semicircle_density", "semicircle_reference",
        "solution_to_json", "solve_qve", "stability_check", "support_bound"],
    "rates": [
        "EntryLaw", "K_ALPHA_PSI_TOL", "cgf_L", "cgf_L_prime", "h_L_prime",
        "k_alpha", "kernel_entropy", "legendre_h_L", "rate_table"],
    "trees": [
        "CATALAN", "COUNTING_SLACK", "DEGREE_SLACK", "MAX_EDGES",
        "RootedPlanarTree", "counting_lemma_check", "degree_bound_check",
        "enumerate_trees", "hom_density", "moments_table", "qve_moment",
        "rooted_density_vector", "rooted_hom_density"],
    "ensembles": [
        "ROW_BLOCK", "SYMMETRY_TILE", "SparseWignerSample", "esm",
        "load_sample_csv", "resolvent", "sample_sparse_wigner",
        "save_eigenvalues_csv", "save_sample_csv", "schur_residual",
        "tilted_sample", "ward_residual"],
    "suites": [
        "ALL_SUITES", "CUT_NORM_EXACTNESS_K_MAX", "CUT_NORM_EXACT_TOL", "GROUPS",
        "KERNEL_VALUES", "K_ALPHA_ROUNDTRIP_TOL", "MEASURE_ATOMS", "RANK_KS_N",
        "RANK_KS_SLACK", "SCHUR_WARD_N_MAX", "SCHUR_WARD_SCALE", "SuiteResult",
        "counting_suite", "cut_norm_exactness_suite", "degree_bound_suite",
        "hw_suite", "interlacing_suite", "k_alpha_roundtrip_suite",
        "metric_inequality_suite", "rank_ks_suite", "run_suites",
        "schur_ward_suite", "stability_suite"],
}


def test_public_names():
    # a module's public names are the functions and classes it defines and
    # its UPPER_CASE constants, without a leading underscore: code that no
    # CLI path or suite reaches takes an edit here to come back
    got = {mod.__name__.rpartition(".")[2]: sorted(
               name for name, obj in vars(mod).items()
               if not name.startswith("_")
               and (name.isupper()
                    or callable(obj)
                    and getattr(obj, "__module__", None) == mod.__name__))
           for mod in LIBRARY_MODULES}
    assert got == PUBLIC_NAMES


def test_no_unused_imports():
    # a top-level import that no line of its module reads is dead surface;
    # __init__.py imports only to re-export, so it is exempt
    unused = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in bound.items() if name not in read]
    assert unused == []



def test_measures_is_a_leaf():
    # measures knows only atoms and grids: no import node in the file,
    # function bodies included, names a qvelab module but report, so the QVE
    # measure's code stays behind qve
    named = set()
    for node in ast.walk(ast.parse(Path(measures.__file__).read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = ([f"qvelab.{alias.name}" for alias in node.names]
                     if module in (".", "qvelab") else [module])
        else:
            continue
        named.update(name.rpartition(".")[2] for name in names
                     if name.startswith((".", "qvelab")))
    assert named == {"report"}

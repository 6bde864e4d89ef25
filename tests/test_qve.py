"""Tests for qvelab.qve: QVE solver, Stieltjes inversion, stability."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import trapezoid

from qvelab import kernels, qve, trees
from qvelab.errors import GridTooNarrow, NotConverged, PreconditionViolated
from qvelab.kernels import Partition, StepKernel


def random_kernel(rng, k, hi=4.0):
    vals = rng.uniform(0.0, hi, size=(k, k))
    vals = 0.5 * (vals + vals.T)
    return StepKernel(Partition.equal(k), vals)


def semicircle_m(z):
    """Herglotz root of m^2 + z m + 1 = 0 (closed-form oracle)."""
    r = np.sqrt(np.asarray(z, complex) ** 2 - 4.0)
    m1 = (-z + r) / 2.0
    m2 = (-z - r) / 2.0
    return np.where(m1.imag > 0, m1, m2)


def damped_oracle(S, z, tol=1e-12, max_iter=200_000):
    """Independent plain damped fixed-point solver (scalar loop, omega=1/2)."""
    k = S.shape[0]
    m = np.full(k, -1.0 / z, dtype=complex)
    for _ in range(max_iter):
        f = -1.0 / (z + S @ m)
        if np.abs(m - f).max() <= tol / 2:
            break
        m = 0.5 * m + 0.5 * f
    return m


def reference_density(W, grid):
    """Richardson density of qve_measure without the coarse-to-fine start:
    the eta solve walks the continuation at every grid point, and the eta/2
    solve starts from it.

    Returns the renormalized density and the mass captured before it."""
    x = grid.x
    sol_eta = qve.solve_qve(W, x + 1j * grid.eta)
    sol_half = qve.solve_qve(W, x + 0.5j * grid.eta, m0=sol_eta.m_values)
    rho_eta, rho_half = (sol.average().imag / np.pi for sol in (sol_eta, sol_half))
    rho = np.clip(2.0 * rho_half - rho_eta, 0.0, None)
    mass = trapezoid(rho, x)
    return rho / mass, mass


@st.composite
def kernel_values(draw):
    """Symmetric values in [0, 4] of an equal-part kernel with k <= 8, some
    rows possibly zero."""
    k = draw(st.integers(1, 8))
    vals = draw(arrays(float, (k, k), elements=st.floats(0.0, 4.0)))
    vals = 0.5 * (vals + vals.T)
    zero = draw(arrays(bool, k))
    vals[zero, :] = 0.0
    vals[:, zero] = 0.0
    return vals


@st.composite
def inversion_cases(draw):
    """A kernel from kernel_values and a grid around its support whose
    spacing is eta times 1/2, 1 or 2."""
    vals = draw(kernel_values())
    eta = draw(st.sampled_from([1e-3, 1e-2]))
    spacing = eta * draw(st.sampled_from([0.5, 1.0, 2.0]))
    return vals, eta, spacing


def grid_around(W, eta, spacing):
    b = qve.support_bound(W)
    n = int(np.ceil(2.0 * (b + 1.0) / spacing)) + 1
    return qve.SpectralGrid(-b - 1.0, b + 1.0, n, eta)


# a kernel of small entries on a grid coarser than eta: Newton misses from
# the interpolated start at some points, which fall back to the continuation
FALLBACK_CASE = (np.array([[5.2e-5, 1.905e-5], [1.905e-5, 1.04e-6]]), 1e-3, 4e-3)


@pytest.fixture
def continuation_sizes(monkeypatch):
    """Number of points of each _continuation call, in call order."""
    sizes = []
    continuation = qve._continuation

    def counting(z, shift, S):
        sizes.append(z.size)
        return continuation(z, shift, S)

    monkeypatch.setattr(qve, "_continuation", counting)
    return sizes


class TestSolveQve:
    def test_constant_kernel_2i(self):
        # [DERIVED] closed-form root of m^2 + zm + 1 = 0 with Im m > 0
        sol = qve.solve_qve(StepKernel.constant(1.0), [2j])
        m = sol.m_values[0, 0]
        assert abs(m - (math.sqrt(2.0) - 1.0) * 1j) <= 1e-12

    def test_constant_kernel_10i(self):
        # [DERIVED] i (sqrt(104) - 10) / 2
        sol = qve.solve_qve(StepKernel.constant(1.0), [10j])
        m = sol.m_values[0, 0]
        assert abs(m - 1j * (math.sqrt(104.0) - 10.0) / 2.0) <= 1e-12

    def test_symmetric_two_part_reduces_to_scalar(self):
        # [DERIVED] symmetry reduction: m1 = m2 solves the scalar equation
        # with variance (a + b) / 2
        a, b = 3.0, 1.0
        W = StepKernel(Partition.equal(2), [[a, b], [b, a]])
        for z in (0.5 + 0.3j, 2j, -1.0 + 1j):
            sol = qve.solve_qve(W, [z])
            m1, m2 = sol.m_values[0]
            assert abs(m1 - m2) <= 1e-10
            s = (a + b) / 2.0
            # scalar oracle: Herglotz root of s m^2 + z m + 1 = 0
            disc = np.sqrt(complex(z) ** 2 - 4.0 * s)
            roots = [(-z + disc) / (2 * s), (-z - disc) / (2 * s)]
            scalar = next(r for r in roots if r.imag > 0)
            assert abs(m1 - scalar) <= 1e-10

    def test_residual_and_herglotz_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            W = random_kernel(rng, int(rng.integers(1, 5)))
            z = rng.uniform(-3, 3, 5) + 1j * rng.uniform(0.05, 5.0, 5)
            sol = qve.solve_qve(W, z)
            assert sol.residuals.max() <= 1e-12
            assert (sol.m_values.imag > 0).all()

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            qve.solve_qve(StepKernel.constant(1.0), [1.0 - 1j])

    def test_not_converged_lists_points(self, monkeypatch):
        monkeypatch.setattr(qve, "MAX_ITER", 0)
        with pytest.raises(NotConverged) as exc:
            qve.solve_qve(StepKernel.constant(1.0), [2j, 1 + 1j])
        assert exc.value.points == [2j, 1 + 1j]
        assert exc.value.exit_code == 1

    def test_continuation_near_axis_small_entries(self):
        # a level accepted at LEVEL_TOL with Re m of the wrong sign used to
        # leave these points unsolved; the warm start from Im z = 1e-3 is the
        # oracle, and the measure is symmetric, so m(-x) = -conj(m(x))
        W = StepKernel(Partition.equal(2), [[2.0 ** -7, 1.0], [1.0, 0.0]])
        z = np.array([-0.00075 + 0.0005j, 0.00075 + 0.0005j])
        sol = qve.solve_qve(W, z)
        assert sol.residuals.max() <= 1e-12
        assert (sol.m_values.imag > 0).all()
        warm = qve.solve_qve(W, z, m0=qve.solve_qve(W, z + 0.0005j).m_values)
        assert np.abs(sol.m_values - warm.m_values).max() <= 1e-10
        assert np.abs(sol.m_values[0] + sol.m_values[1].conj()).max() <= 1e-10

    def test_uniqueness_two_initializations(self):
        # uniqueness proxy: default start -1/z vs warm start i*ones
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            W = random_kernel(rng, k)
            z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
            m_a = qve.solve_qve(W, [z]).m_values
            m_b = qve.solve_qve(W, [z], m0=1j * np.ones((1, k))).m_values
            assert np.abs(m_a - m_b).max() <= 1e-10

    def test_matches_independent_damped_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            W = random_kernel(rng, k)
            S = qve._coupling_matrix(W)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 3.0))
            m = qve.solve_qve(W, [z]).m_values[0]
            assert np.abs(m - damped_oracle(S, z)).max() <= 1e-9


class TestQveStieltjes:
    def test_constant_kernel(self):
        # [DERIVED] single part, equals m
        val = complex(qve.solve_qve(StepKernel.constant(1.0), [2j]).average()[0])
        assert abs(val - (math.sqrt(2.0) - 1.0) * 1j) <= 1e-12

    def test_stieltjes_bound(self):
        # [TRIVIAL] |m(z)| <= 1 / Im z
        rng = np.random.default_rng(3)
        for _ in range(20):
            W = random_kernel(rng, 3)
            z = complex(rng.uniform(-4, 4), rng.uniform(0.2, 5.0))
            assert abs(complex(qve.solve_qve(W, [z]).average()[0])) <= 1.0 / z.imag + 1e-12

    def test_block_kernel_vs_oracle(self):
        # [DERIVED] independent damped-iteration oracle at tolerance 1e-12
        W = StepKernel(Partition.equal(2), [[2.0, 0.0], [0.0, 0.0]])
        z = 3j
        S = qve._coupling_matrix(W)
        m_ref = damped_oracle(S, z)
        expected = float(W.partition.part_measures @ m_ref.imag)
        got = complex(qve.solve_qve(W, [z]).average()[0])
        assert abs(got - complex(W.partition.part_measures @ m_ref)) <= 1e-10
        assert abs(got.imag - expected) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(vals=kernel_values(), x=st.floats(-5.0, 5.0), y=st.floats(0.05, 4.0),
           c=st.floats(0.25, 4.0))
    def test_scaling(self, vals, x, y, c):
        # [PAPER] S -> cS maps the QVE solution m(z) to c^{-1/2} m(z / sqrt c)
        W = StepKernel(Partition.equal(vals.shape[0]), vals)
        cW = StepKernel(W.partition, c * vals)
        z = complex(x, y)
        got = complex(qve.solve_qve(cW, [z]).average()[0])
        want = complex(qve.solve_qve(W, [z / math.sqrt(c)]).average()[0]) / math.sqrt(c)
        assert abs(got - want) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(vals=kernel_values(), x=st.floats(-5.0, 5.0), y=st.floats(0.05, 4.0),
           data=st.data())
    def test_relabel_invariance(self, vals, x, y, data):
        # [PAPER] the average of m over equal parts ignores their order
        W = StepKernel(Partition.equal(vals.shape[0]), vals)
        sigma = data.draw(st.permutations(range(W.k)))
        z = complex(x, y)
        got = complex(qve.solve_qve(kernels.relabel(W, sigma), [z]).average()[0])
        want = complex(qve.solve_qve(W, [z]).average()[0])
        assert abs(got - want) <= 1e-12


class TestSupportBound:
    def test_constant_one(self):
        # [PAPER] semicircle support [-2, 2]
        assert abs(qve.support_bound(StepKernel.constant(1.0)) - 2.0) <= 1e-12

    def test_zero(self):
        # [TRIVIAL]
        assert qve.support_bound(StepKernel.constant(0.0, 2)) == 0.0

    def test_block(self):
        # [DERIVED] max row sum 2
        W = StepKernel(Partition.equal(2), [[4.0, 0.0], [0.0, 0.0]])
        assert abs(qve.support_bound(W) - 2.0 * math.sqrt(2.0)) <= 1e-12

    def test_measure_supported_within_bound(self):
        rng = np.random.default_rng(4)
        W = random_kernel(rng, 3)
        b = qve.support_bound(W)
        mu = qve.qve_measure(W)
        x = mu.x
        outside = np.abs(x) > b + 0.05
        # density beyond the bound is inversion smoothing only: tiny mass
        assert trapezoid(mu.density[outside], x[outside]) <= 2e-3


class TestQveMeasure:
    def test_semicircle_density(self):
        # [DERIVED] closed-form semicircle; rho(0) ~ 1/pi
        mu = qve.qve_measure(StepKernel.constant(1.0))
        at0 = np.interp(0.0, mu.x, mu.density)
        assert abs(at0 - 1.0 / math.pi) <= 1e-3
        assert np.abs(
            mu.density - qve.semicircle_density(mu.x)
        ).max() <= 2e-3

    def test_zero_kernel_concentrates_at_zero(self):
        # [TRIVIAL] m = -1/z is the transform of delta_0
        grid = qve.SpectralGrid(-1.0, 1.0, 2001, 1e-3)
        mu = qve.qve_measure(StepKernel.constant(0.0), grid)
        # Poisson smoothing of delta_0 at eta: mass within +-0.05 is ~ 97%
        inside = np.abs(mu.x) <= 0.05
        assert trapezoid(mu.density[inside], mu.x[inside]) >= 0.95
        assert abs(mu.moment(1)) <= 1e-6

    def test_symmetric_density_even(self):
        # [PAPER] symmetric kernels give symmetric measures
        rng = np.random.default_rng(5)
        W = random_kernel(rng, 3)
        mu = qve.qve_measure(W)
        F = mu.cdf(mu.x)
        F_neg = mu.cdf(-mu.x)
        assert np.abs(F_neg + F - 1.0).max() <= 1e-3

    def test_grid_too_narrow(self):
        grid = qve.SpectralGrid(-0.5, 0.5, 200, 1e-3)
        with pytest.raises(GridTooNarrow):
            qve.qve_measure(StepKernel.constant(1.0), grid)

    def test_grid_too_narrow_names_refinement(self):
        # the zero row puts an atom at 0, a spike of width eta that a grid
        # coarser than eta undersamples however wide it is
        W = StepKernel(Partition.equal(2), [[0.0, 0.0], [0.0, 4.0]])
        grid = qve.default_grid(W)
        with pytest.raises(GridTooNarrow, match=r"spacing 0\.00191, eta 0\.001\); refine"):
            qve.qve_measure(W, grid)
        wide = qve.SpectralGrid(3 * grid.x_min, 3 * grid.x_max, grid.n_points, grid.eta)
        with pytest.raises(GridTooNarrow, match="refine"):
            qve.qve_measure(W, wide)
        fine = qve.SpectralGrid(grid.x_min, grid.x_max, 10 * grid.n_points, grid.eta)
        assert qve.qve_measure(W, fine).density.max() > 0

    def test_grid_too_narrow_names_widening(self):
        W = StepKernel.constant(1.0)
        with pytest.raises(GridTooNarrow, match=r"eta 0\.001\); widen the grid past \+-2$"):
            qve.qve_measure(W, qve.SpectralGrid(-0.5, 0.5, 2000, 1e-3))
        with pytest.raises(GridTooNarrow, match=r"refine the grid to a spacing <= eta and widen"):
            qve.qve_measure(W, qve.SpectralGrid(-0.5, 0.5, 200, 1e-3))
        # a large eta smears mass past the support bound itself
        with pytest.raises(GridTooNarrow, match=r"eta 0\.5\); widen the grid$"):
            qve.qve_measure(W, qve.SpectralGrid(-2.0, 2.0, 4001, 0.5))

    @settings(max_examples=25, deadline=None)
    @given(case=inversion_cases())
    @example(case=(np.zeros((1, 1)), 1e-3, 5e-4))
    @example(case=(np.array([[0.0, 0.0], [0.0, 4.0]]), 1e-3, 5e-4))
    @example(case=FALLBACK_CASE)
    def test_matches_full_grid_continuation(self, case):
        # the coarse-to-fine start changes where Newton starts, not what it
        # converges to: the density matches solves without m0.  Both meet the
        # residual contract, so the masses differ in the last digits, and the
        # renormalization scales that by the density: the bound is relative
        # to the peak, which an atom at 0 makes about 1/(pi eta)
        vals, eta, spacing = case
        W = StepKernel(Partition.equal(vals.shape[0]), vals)
        grid = grid_around(W, eta, spacing)
        want, mass = reference_density(W, grid)
        if mass < qve.MIN_CAPTURED_MASS:
            with pytest.raises(GridTooNarrow):
                qve.qve_measure(W, grid)
        else:
            got = qve.qve_measure(W, grid).density
            assert np.abs(got - want).max() <= 1e-11 * max(1.0, want.max())

    @settings(max_examples=20, deadline=None)
    @given(vals=kernel_values())
    def test_moments_match_recursion(self, vals):
        # [PAPER] the inverted measure's moments are the tree sums, which the
        # vector Catalan recursion computes.  The bound is criterion 3's 1e-3,
        # relative above 1 as M_6 reaches a few hundred, plus the rescaling
        # the inversion may make: it keeps MIN_CAPTURED_MASS of the mass and
        # renormalizes, so a spike at 0 that the default grid (spacing above
        # eta) under-resolves lifts every moment by up to 1/MIN_CAPTURED_MASS.
        # A zero row puts an atom at 0, which the inversion refuses
        W = StepKernel(Partition.equal(vals.shape[0]), vals)
        try:
            mu = qve.qve_measure(W)
        except GridTooNarrow:
            return
        rescale = 1.0 / qve.MIN_CAPTURED_MASS - 1.0
        for order, want in trees.moments_table(W, 6):
            assert (abs(mu.moment(order) - want)
                    <= 1e-3 * max(1.0, want) + rescale * want)

    def test_interpolated_start_is_used(self, continuation_sizes):
        # only the coarse points walk the continuation on a smooth density
        qve.qve_measure(StepKernel.constant(1.0), qve.SpectralGrid(-3.0, 3.0, 4000, 1e-3))
        assert 0 < sum(continuation_sizes) < 4000

    def test_continuation_fallback_fires(self, continuation_sizes):
        vals, eta, spacing = FALLBACK_CASE
        W = StepKernel(Partition.equal(2), vals)
        grid = grid_around(W, eta, spacing)
        qve.qve_measure(W, grid)
        n_coarse = len({*range(0, grid.n_points, qve.COARSE_STRIDE), grid.n_points - 1})
        assert continuation_sizes[0] == n_coarse
        assert sum(continuation_sizes) > n_coarse

    def test_moment_consistency_with_trees(self):
        # cross-module invariant: grid moments match the tree formula
        from qvelab import trees
        rng = np.random.default_rng(6)
        for _ in range(5):
            k = int(rng.integers(1, 5))
            W = random_kernel(rng, k)
            mu = qve.qve_measure(W)
            for order in (2, 4):
                assert abs(mu.moment(order) - trees.qve_moment(order, W)) <= 1e-3


class TestSemicircleReference:
    def test_mass(self):
        # [TRIVIAL] normalization
        # trapezoid of the exact density on the 2000-point grid: edge quadrature
        # error is O(h^(3/2)) ~ 4e-6
        mu = qve.semicircle_reference()
        assert abs(trapezoid(mu.density, mu.x) - 1.0) <= 1e-5

    def test_second_moment(self):
        # [DERIVED] Catalan C_1
        assert abs(qve.semicircle_reference().moment(2) - 1.0) <= 1e-4

    def test_fourth_moment(self):
        # [DERIVED] Catalan C_2
        assert abs(qve.semicircle_reference().moment(4) - 2.0) <= 1e-3

    def test_cdf_closed_form_endpoints(self):
        # the closed-form CDF is exact; the grid measure interpolates it
        assert float(qve.semicircle_cdf(np.array([-2.0]))[0]) == 0.0
        assert float(qve.semicircle_cdf(np.array([2.0]))[0]) == 1.0
        assert abs(float(qve.semicircle_cdf(np.array([0.0]))[0]) - 0.5) <= 1e-15
        mu = qve.semicircle_reference()
        assert abs(float(mu.cdf(-2.0))) <= 1e-5
        assert abs(float(mu.cdf(2.0)) - 1.0) <= 1e-5
        assert abs(float(mu.cdf(0.0)) - 0.5) <= 1e-5


class TestStabilityCheck:
    def test_zero_perturbation(self):
        # [TRIVIAL] identical equations
        W = StepKernel.constant(1.0)
        rep = qve.stability_check(W, [0.0], 200j)
        assert rep.holds and rep.lhs <= 1e-11

    def test_small_perturbation(self):
        # [DERIVED] both sides from the solver
        W = StepKernel.constant(1.0)
        rep = qve.stability_check(W, [0.01], 200j)
        assert rep.holds
        assert rep.lhs < rep.rhs / 10.0

    def test_random_kernels(self):
        # [DERIVED] Monte Carlo suite (full 200-trial run in acceptance)
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = 3
            W = random_kernel(rng, k)
            S = qve._coupling_matrix(W)
            snorm = float(np.abs(S).sum(axis=1).max())
            im = qve.STABILITY_KAPPA * max(snorm, 1.0) ** 2 * 1.5
            z = complex(rng.uniform(-im / 2, im / 2), im)
            d = rng.uniform(-1e-3, 1e-3, k) + 1j * rng.uniform(-1e-3, 1e-3, k)
            assert qve.stability_check(W, d, z).holds

    def test_precondition_violated(self):
        with pytest.raises(PreconditionViolated):
            qve.stability_check(StepKernel.constant(1.0), [0.0], 2j)


class TestSpectralGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            qve.SpectralGrid(1.0, 0.0, 100, 1e-3)
        with pytest.raises(ValueError):
            qve.SpectralGrid(0.0, 1.0, 1, 1e-3)
        with pytest.raises(ValueError):
            qve.SpectralGrid(0.0, 1.0, 100, 0.0)

    def test_default_grid_spans_support(self):
        W = StepKernel.constant(1.0)
        grid = qve.default_grid(W)
        assert grid.x_min == -3.0 and grid.x_max == 3.0
        assert grid.n_points == 4000 and grid.eta == 1e-3


class TestSolutionJson:
    def test_round_trippable_fields(self):
        import json
        sol = qve.solve_qve(StepKernel.constant(1.0, 2), [2j, 3j])
        data = json.loads(qve.solution_to_json(sol))
        assert len(data) == 2
        assert data[0]["residual"] <= 1e-12
        z0 = complex(*data[0]["z"])
        assert z0 == 2j
        assert len(data[0]["m"]) == 2


def test_semicircle_solver_speed():
    # mirrors acceptance criterion 1 at unit-test scale
    z = np.linspace(-3, 3, 50) + 2j
    t0 = time.time()
    sol = qve.solve_qve(StepKernel.constant(1.0), z)
    assert time.time() - t0 < 1.0
    assert np.abs(sol.m_values[:, 0] - semicircle_m(z)).max() <= 1e-10

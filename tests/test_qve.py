"""Tests for qvelab.qve: QVE solver, Stieltjes inversion, stability."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import trapezoid

from qvelab import kernels, qve
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

    def test_not_converged_lists_points(self):
        with pytest.raises(NotConverged) as exc:
            qve.solve_qve(StepKernel.constant(1.0), [2j, 1 + 1j], max_iter=0)
        assert exc.value.points == [2j, 1 + 1j]
        assert exc.value.exit_code == 1

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
        val = qve.qve_stieltjes(StepKernel.constant(1.0), 2j)
        assert abs(val - (math.sqrt(2.0) - 1.0) * 1j) <= 1e-12

    def test_stieltjes_bound(self):
        # [TRIVIAL] |m(z)| <= 1 / Im z
        rng = np.random.default_rng(3)
        for _ in range(20):
            W = random_kernel(rng, 3)
            z = complex(rng.uniform(-4, 4), rng.uniform(0.2, 5.0))
            assert abs(qve.qve_stieltjes(W, z)) <= 1.0 / z.imag + 1e-12

    def test_block_kernel_vs_oracle(self):
        # [DERIVED] independent damped-iteration oracle at tolerance 1e-12
        W = StepKernel(Partition.equal(2), [[2.0, 0.0], [0.0, 0.0]])
        z = 3j
        S = qve._coupling_matrix(W)
        m_ref = damped_oracle(S, z)
        expected = float(W.partition.part_measures @ m_ref.imag)
        got = qve.qve_stieltjes(W, z)
        assert abs(got - complex(W.partition.part_measures @ m_ref)) <= 1e-10
        assert abs(got.imag - expected) <= 1e-10


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

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
from qvelab.errors import (GridTooNarrow, NotConverged, PreconditionViolated,
                           SolveFailure)
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
    """Extrapolated density of qve_measure without the coarse-to-fine start:
    the eta solve walks the continuation at every grid point, and the density
    (Im mbar - eta Re mbar')/pi takes the derivative at that solution.

    Returns the renormalized density and the mass captured before it."""
    x = grid.x
    sol = qve.solve_qve(W, x + 1j * grid.eta)
    dm = qve._dm_dz(sol.m_values, qve._coupling_matrix(W))
    mbar, dmbar = sol.average(), dm @ sol.part_measures
    rho = np.clip((mbar.imag - grid.eta * dmbar.real) / np.pi, 0.0, None)
    mass = trapezoid(rho, x)
    return rho / mass, mass


def _reference_sup_res(m, zd, S):
    return np.abs(m + 1.0 / (zd + m @ S.T)).max(axis=1)


def _reference_newton(m, zd, S, tol, stats=None):
    """qve._newton as it was before its step reused workspaces, kept as the
    bit-identity oracle: fresh temporaries on every step, a gather of the
    live points on every step, and the halving set-up on every step.
    ``stats`` optionally counts the halved trials under "halved"."""
    eye = np.eye(S.shape[0])
    res = _reference_sup_res(m, zd, S)
    tol = np.zeros_like(res) + tol
    todo = np.flatnonzero(~(res <= tol))
    for lo in range(0, todo.size, qve.NEWTON_BLOCK):
        idx = todo[lo:lo + qve.NEWTON_BLOCK]
        mb, zb, rb, tb = m[idx], zd[idx], res[idx], tol[idx]
        live = np.ones(idx.size, dtype=bool)
        for _ in range(qve.MAX_ITER):
            live &= ~(rb <= tb)
            if not live.any():
                break
            a = np.flatnonzero(live)
            ma, za, ra = mb[a], zb[a], rb[a]
            inv = 1.0 / (za + ma @ S.T)
            jac = eye - (inv * inv)[:, :, None] * S
            try:
                delta = np.linalg.solve(jac, -(ma + inv)[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                break
            step = np.ones(a.size)
            trial = ma + delta
            rt = _reference_sup_res(trial, za, S)
            ok = (rt < ra) & (trial.imag > 0).all(axis=1)
            for _halving in range(40):
                redo = np.flatnonzero(~ok)
                if redo.size == 0:
                    break
                if stats is not None:
                    stats["halved"] = stats.get("halved", 0) + redo.size
                step[redo] *= 0.5
                trial[redo] = ma[redo] + step[redo, None] * delta[redo]
                rt[redo] = _reference_sup_res(trial[redo], za[redo], S)
                ok[redo] = (rt[redo] < ra[redo]) & (trial[redo].imag > 0).all(axis=1)
            mb[a[ok]], rb[a[ok]] = trial[ok], rt[ok]
            live[a[~ok]] = False
        m[idx], res[idx] = mb, rb
    return m, res


def _reference_dm_dz(m, S):
    """qve._dm_dz with a fresh m^2 and J on every block."""
    k = S.shape[0]
    dm = np.empty_like(m)
    for lo in range(0, m.shape[0], qve.NEWTON_BLOCK):
        m2 = m[lo:lo + qve.NEWTON_BLOCK] ** 2
        jac = m2[:, :, None] * -S
        jac.reshape(-1, k * k)[:, ::k + 1] += 1.0
        dm[lo:lo + qve.NEWTON_BLOCK] = np.linalg.solve(jac, m2[:, :, None])[:, :, 0]
    return dm


def seeded_kernel(rng, k):
    """random_kernel, with one zero row when k is even."""
    W = random_kernel(rng, k)
    if k % 2:
        return W
    vals = W.values.copy()
    r = int(rng.integers(k))
    vals[r, :] = vals[:, r] = 0.0
    return StepKernel(W.partition, vals)


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
        # both points lie below sqrt(||S||_inf) = 1, where no start is exact
        monkeypatch.setattr(qve, "MAX_ITER", 0)
        with pytest.raises(NotConverged) as exc:
            qve.solve_qve(StepKernel.constant(1.0), [0.5 + 0.05j, 1 + 0.1j])
        assert exc.value.points == [0.5 + 0.05j, 1 + 0.1j]
        assert exc.value.exit_code == 1

    def test_continued_counts_the_walks(self, continuation_sizes):
        # 1i is the contraction height of the constant kernel, 2i above it and
        # 0.5 + 0.05i below it: all three points walk, and only the last
        # starts above its target; a warm start at the target calls no walk
        W = StepKernel.constant(1.0)
        sol = qve.solve_qve(W, [2j, 0.5 + 0.05j, 1j])
        assert sol.continued == 1 and continuation_sizes == [3]
        warm = qve.solve_qve(W, sol.z_points, m0=sol.m_values)
        assert warm.continued == 0 and continuation_sizes == [3]
        assert warm.m_values.tobytes() == sol.m_values.tobytes()

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

    def test_converges_at_the_cusp(self):
        # z = 1e-7i, near the cusp of this kernel at x = 0: the walk with
        # tight levels stalls where the Jacobian's condition number reaches
        # 2e13, and the second walk, with levels at LEVEL_TOL, reaches the
        # target; m is about (0.0064i, 621i)
        W = StepKernel(Partition.equal(2), [[3.0, 0.5], [0.5, 0.0]])
        sol = qve.solve_qve(W, [1e-7j])
        assert sol.residuals.max() <= qve.RESIDUAL_TOL
        assert (sol.m_values.imag > 0).all()
        assert np.abs(sol.m_values[0] - [0.0064j, 621j]).max() <= 0.01 * 621

    @settings(max_examples=40, deadline=None)
    @given(vals=kernel_values(), data=st.data())
    def test_near_axis_contracts(self, vals, data):
        """[PAPER] The domain in which solve_qve claims to converge: an
        equal-part kernel with k <= 8 and values in [0, 4], zero rows
        allowed, at z = x + i eta with eta in [1e-3, 1] and
        |x| <= support_bound + 1.  Every solution it returns there has
        residual <= 1e-12 and Im m > 0 (the Herglotz branch), and a point it
        misses is reported by a typed NotConverged that names it."""
        W = StepKernel(Partition.equal(vals.shape[0]), vals)
        b = qve.support_bound(W)
        n = data.draw(st.integers(1, 8))
        x = data.draw(st.lists(st.floats(-b - 1.0, b + 1.0), min_size=n, max_size=n))
        log_eta = data.draw(st.lists(st.floats(-3.0, 0.0), min_size=n, max_size=n))
        z = np.array(x) + 1j * 10.0 ** np.array(log_eta)
        try:
            sol = qve.solve_qve(W, z)
        except NotConverged as exc:
            assert exc.exit_code == 1
            assert exc.points and set(exc.points) <= set(z.tolist())
            return
        assert sol.residuals.max() <= 1e-12
        assert (sol.m_values.imag > 0).all()

    def test_uniqueness_two_initializations(self):
        # uniqueness proxy: default row-sum start vs warm start i*ones
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


def unequal_kernel(rng, k, scale):
    """Symmetric values in [0, 4 scale] on k parts of unequal measure, one
    row zero when k is even."""
    cuts = np.sort(rng.choice(np.arange(1, 64), size=k - 1, replace=False)) / 64.0
    vals = scale * rng.uniform(0.0, 4.0, size=(k, k))
    vals = 0.5 * (vals + vals.T)
    if k % 2 == 0:
        r = int(rng.integers(k))
        vals[r, :] = vals[:, r] = 0.0
    return StepKernel(Partition([*cuts, 1.0]), vals)


class TestRowSumStart:
    """Every point's first level starts Newton from the scalar QVE of each
    row sum, at or above the contraction height sqrt(||S||_inf)."""

    @pytest.mark.parametrize("W", [
        StepKernel.constant(1.0),
        StepKernel.constant(0.0, 3),
        StepKernel(Partition.equal(2), [[3.0, 1.0], [1.0, 3.0]]),
        StepKernel(Partition.equal(3), [[0.0, 1.0, 2.0], [1.0, 2.0, 0.0], [2.0, 0.0, 1.0]]),
        StepKernel(Partition([0.25, 1.0]), [[4.0, 0.0], [0.0, 4.0 / 3.0]]),
    ], ids=["constant", "zero", "two-part", "circulant", "block-unequal"])
    def test_exact_for_constant_row_sums(self, W):
        # [DERIVED] with s_i = s for all i, m_i = m solves -1/m = z + s m, so
        # the start is the QVE solution and Newton has nothing left to do
        S = qve._coupling_matrix(W)
        assert np.ptp(S.sum(axis=1)) <= 1e-15
        b = qve.support_bound(W)
        z = np.linspace(-b - 1.0, b + 1.0, 7) + 1j * max(b / 2.0, 1e-3)
        start = qve._row_sum_start(z[:, None] + np.zeros(W.k), S)
        assert qve._sup_res(start, z[:, None] + np.zeros(W.k), S).max() <= qve.RESIDUAL_TOL
        sol = qve.solve_qve(W, z)
        assert sol.continued == 0
        assert np.array_equal(sol.m_values, start)
        assert (sol.m_values.imag > 0).all()

    def test_matches_continuation_on_seeded_kernels(self):
        # unequal parts, zero rows and values scaled over four decades, at
        # Im z from the contraction height sqrt(||S||_inf) = b/2 up to 2b:
        # no point starts above its target, and each is the Herglotz
        # solution that Newton at the target reaches from another start, the
        # solution one support bound higher
        rng = np.random.default_rng(30)
        for trial in range(60):
            k = 1 + trial % 8
            W = unequal_kernel(rng, k, 10.0 ** rng.uniform(-2.0, 2.0))
            b = qve.support_bound(W)
            z = (rng.uniform(-b - 1.0, b + 1.0, 6)
                 + 1j * np.append(b / 2.0, rng.uniform(b / 2.0, 2.0 * b, 5)))
            sol = qve.solve_qve(W, z)
            assert sol.continued == 0
            assert sol.residuals.max() <= qve.RESIDUAL_TOL
            assert (sol.m_values.imag > 0).all()
            want = qve.solve_qve(W, z, m0=qve.solve_qve(W, z + 1j * b).m_values)
            assert want.continued == 0
            assert np.abs(sol.m_values - want.m_values).max() <= 1e-10

    def test_scaled_start_matches_the_unscaled_formula(self):
        # [DERIVED] scaling by a power of two is exact away from under- and
        # overflow, so on ordinary inputs the scaled start has the bits of
        # the unscaled formula
        def unscaled(zd, S):
            r = np.sqrt(zd * zd - 4.0 * S.sum(axis=1))
            r[np.abs(zd + r) < np.abs(zd - r)] *= -1.0
            return -2.0 / (zd + r)

        rng = np.random.default_rng(36)
        for trial in range(300):
            k = 1 + trial % 8
            S = qve._coupling_matrix(unequal_kernel(rng, k, 10.0 ** rng.uniform(-2.0, 2.0)))
            zd = (rng.uniform(-10.0, 10.0, (40, 1))
                  + 1j * 10.0 ** rng.uniform(-4.0, 1.0, (40, 1)) + np.zeros(k))
            if trial % 2:
                zd += rng.normal(size=zd.shape) + 1j * rng.uniform(0.0, 1.0, zd.shape)
            assert np.array_equal(qve._row_sum_start(zd, S), unscaled(zd, S))

    @pytest.mark.parametrize("s", [0.0, 1e-300])
    def test_tiny_row_sums_give_a_finite_start(self, s):
        # [DERIVED] as s -> 0 the Herglotz root tends to -1/z; the textbook
        # (-w + r)/(2s) overflows there, and any RuntimeWarning is an error
        z = np.array([[2j], [0.5 + 1e-3j], [-3.0 + 1e-150j]])
        start = qve._row_sum_start(z, np.array([[s]]))
        assert np.isfinite(start).all() and (start.imag > 0).all()
        assert np.allclose(start, -1.0 / z, rtol=1e-15, atol=0.0)
        sol = qve.solve_qve(StepKernel.constant(s, 2), z.ravel())
        assert sol.residuals.max() <= qve.RESIDUAL_TOL
        assert np.allclose(sol.m_values, -1.0 / z, rtol=1e-15, atol=0.0)


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


class TestDmDz:
    @settings(max_examples=40, deadline=None)
    @given(vals=kernel_values(), re=st.floats(-5.0, 5.0),
           log_im=st.floats(-3.0, 0.0))
    def test_matches_central_difference(self, vals, re, log_im):
        # [DERIVED] m is analytic in z, so dm/dz is its derivative along the
        # real axis.  h = 1e-4 Im z keeps the O(h^2) truncation and the
        # solver's 1e-12 residual divided by h near 1e-8 relative
        W = StepKernel(Partition.equal(vals.shape[0]), vals)
        z = complex(re, 10.0 ** log_im)
        h = 1e-4 * z.imag
        m = qve.solve_qve(W, [z - h, z, z + h]).m_values
        dm = qve._dm_dz(m[1:2], qve._coupling_matrix(W))[0]
        fd = (m[2] - m[0]) / (2.0 * h)
        assert np.all(np.abs(dm - fd) <= 1e-6 * np.abs(dm))

    def test_zero_kernel_is_inverse_square(self):
        # [TRIVIAL] m = -1/z solves the QVE of the zero kernel and J = I, so
        # m' = m^2 = 1/z^2 bit for bit
        z = np.array([0.3 + 1e-3j, -2.0 + 0.5j, 1j])
        m = np.repeat((-1.0 / z)[:, None], 3, axis=1)
        dm = qve._dm_dz(m, np.zeros((3, 3)))
        assert np.array_equal(dm, np.repeat((1.0 / z)[:, None] ** 2, 3, axis=1))
        assert np.allclose(dm[:, 0], 1.0 / z ** 2, rtol=1e-15, atol=0.0)

    def test_blocks_match_one_solve(self):
        # the blocking is invisible: each point's system is solved alone
        rng = np.random.default_rng(3)
        W = random_kernel(rng, 3)
        S = qve._coupling_matrix(W)
        z = np.linspace(-3.0, 3.0, qve.NEWTON_BLOCK + 7) + 1e-2j
        m = qve.solve_qve(W, z).m_values
        whole = qve._dm_dz(m, S)
        for i in (0, qve.NEWTON_BLOCK - 1, qve.NEWTON_BLOCK, z.size - 1):
            assert np.array_equal(whole[i], qve._dm_dz(m[i:i + 1], S)[0])

    def test_singular_jacobian_raises(self):
        # J = 1 - m^2 S vanishes at m = 1, S = 1
        with pytest.raises(SolveFailure):
            qve._dm_dz(np.array([[1.0 + 0j]]), np.array([[1.0]]))

    def test_non_finite_derivative_raises(self):
        with pytest.raises(SolveFailure):
            qve._dm_dz(np.array([[complex(np.nan, 1.0)]]), np.array([[1.0]]))


class TestNewtonBitIdentity:
    """qve._newton and qve._dm_dz reuse workspaces; the reference functions
    above allocate afresh.  The rows each matmul and solve sees are the same,
    so the output is the same to the bit."""

    @pytest.mark.parametrize("max_iter", [2, 100])
    def test_newton_matches_reference(self, monkeypatch, max_iter):
        # MAX_ITER = 2 leaves points unconverged, so their iterates are
        # compared too; the start i*ones near the axis forces halving
        monkeypatch.setattr(qve, "MAX_ITER", max_iter)
        rng = np.random.default_rng(18)
        stats, unconverged = {}, 0
        for k in range(1, 9):
            W = seeded_kernel(rng, k)
            S = qve._coupling_matrix(W)
            b = qve.support_bound(W)
            n = qve.NEWTON_BLOCK + 37 if k == 3 else 200
            for eta in (1e-1, 1e-2, 1e-3):
                z = np.sort(rng.uniform(-b - 1.0, b + 1.0, n)) + 1j * eta
                zd = z[:, None] + rng.uniform(-0.1, 0.1, k) * (k > 4)
                per_point = np.where(rng.random(n) < 0.5, qve.LEVEL_TOL, qve.RESIDUAL_TOL)
                for m0, tol in ((1j * np.ones((n, k)), qve.RESIDUAL_TOL),
                                (-1.0 / zd, per_point)):
                    want = _reference_newton(m0.copy(), zd, S, tol, stats)
                    got = qve._newton(m0.copy(), zd, S, tol)
                    assert np.array_equal(got[0], want[0])
                    assert np.array_equal(got[1], want[1])
                    unconverged += int(np.sum(~(want[1] <= tol)))
        assert stats["halved"] > 0
        assert unconverged > 0 or max_iter > 2

    def test_measure_matches_reference(self, monkeypatch):
        rng = np.random.default_rng(18)
        cases = [(seeded_kernel(rng, k), None) for k in range(1, 9)]
        zero_row = StepKernel(Partition.equal(2), [[0.0, 0.0], [0.0, 4.0]])
        cases.append((zero_row, grid_around(zero_row, 1e-3, 5e-4)))

        def densities():
            out = []
            for W, grid in cases:
                try:
                    out.append(qve.qve_measure(W, grid).density.tobytes())
                except GridTooNarrow as exc:
                    out.append(str(exc))
            return out

        got = densities()
        monkeypatch.setattr(qve, "_newton", _reference_newton)
        monkeypatch.setattr(qve, "_dm_dz", _reference_dm_dz)
        want = densities()
        assert got == want
        assert sum(isinstance(d, bytes) for d in got) >= 5


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

    def test_solves_the_grid_once(self, monkeypatch):
        # the coarse points, then the full grid at eta from their
        # interpolation; the eta -> 0 extrapolation solves nothing more
        calls = []
        solve = qve.solve_qve

        def counting(W, z_points, m0=None, shift=None):
            calls.append((np.asarray(z_points).copy(), m0 is not None))
            return solve(W, z_points, m0=m0, shift=shift)

        monkeypatch.setattr(qve, "solve_qve", counting)
        grid = qve.SpectralGrid(-3.0, 3.0, 4000, 1e-3)
        qve.qve_measure(StepKernel.constant(1.0), grid)
        assert len(calls) == 2
        (zc, warm_c), (zf, warm_f) = calls
        assert zc.size == len({*range(0, 4000, qve.COARSE_STRIDE), 3999}) and not warm_c
        assert np.array_equal(zf, grid.x + 1j * grid.eta) and warm_f

    def test_nan_density_is_grid_too_narrow(self, monkeypatch):
        # a NaN density has a NaN mass, which must fail the mass check
        monkeypatch.setattr(qve, "_dm_dz", lambda m, S: np.full_like(m, np.nan))
        with pytest.raises(GridTooNarrow, match="mass nan"):
            qve.qve_measure(StepKernel.constant(1.0))

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

"""Tests for qvelab.measures: 1-D measures and the three spectral metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from qvelab import measures, qve, rates
from qvelab.errors import PartitionMismatch, PreconditionViolated
from qvelab.kernels import Partition, StepKernel
from qvelab.measures import ProbMeasure1D


def atom(x):
    return ProbMeasure1D.from_atoms([float(x)])


def random_atoms(rng, n=6):
    x = rng.uniform(-3, 3, n)
    w = rng.uniform(0.1, 1.0, n)
    return ProbMeasure1D.from_atoms(x, w / w.sum())


def lp_transport(mu, nu, order):
    """Independent small-instance LP transport oracle for atomic measures."""
    nx, ny = mu.x.size, nu.x.size
    cost = np.abs(mu.x[:, None] - nu.x[None, :]) ** order
    A_eq = []
    b_eq = []
    for i in range(nx):
        row = np.zeros((nx, ny))
        row[i, :] = 1.0
        A_eq.append(row.ravel())
        b_eq.append(mu.w[i])
    for j in range(ny):
        row = np.zeros((nx, ny))
        row[:, j] = 1.0
        A_eq.append(row.ravel())
        b_eq.append(nu.w[j])
    res = linprog(cost.ravel(), A_eq=np.array(A_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    assert res.success
    return res.fun ** (1.0 / order)


class TestProbMeasure1D:
    def test_atoms_sorted_normalized(self):
        mu = ProbMeasure1D.from_atoms([2.0, -1.0, 0.5], [0.2, 0.5, 0.3])
        assert np.array_equal(mu.x, [-1.0, 0.5, 2.0])
        assert abs(mu.w.sum() - 1.0) <= 1e-12

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ProbMeasure1D.from_atoms([0.0, 1.0], [0.9, 0.3])
        with pytest.raises(ValueError):
            ProbMeasure1D.from_atoms([0.0, 1.0], [-0.1, 1.1])

    def test_no_atoms(self):
        with pytest.raises(ValueError, match="no atoms"):
            ProbMeasure1D.from_atoms([])

    def test_grid_cdf_monotone(self):
        x = np.linspace(-2, 2, 500)
        mu = ProbMeasure1D.from_grid(x, np.exp(-x ** 2))
        cdf = mu.cdf_values
        assert (np.diff(cdf) >= -1e-15).all()
        assert abs(cdf[0]) <= 1e-12 and abs(cdf[-1] - 1.0) <= 1e-12

    def test_atom_cdf_and_quantile(self):
        mu = ProbMeasure1D.from_atoms([-1.0, 1.0])
        assert float(mu.cdf(0.0)) == 0.5
        assert float(mu.cdf(-1.0)) == 0.5
        assert float(mu.cdf_left(-1.0)) == 0.0
        assert float(mu.quantile(0.25)) == -1.0
        assert float(mu.quantile(0.75)) == 1.0

    def test_moments(self):
        mu = ProbMeasure1D.from_atoms([-1.0, 1.0])
        assert mu.moment(1) == 0.0
        assert mu.moment(2) == 1.0


class TestStieltjes:
    def test_delta0_at_i(self):
        # [DERIVED] -1/i = i
        assert abs(atom(0.0).stieltjes(1j) - 1j) <= 1e-15

    def test_bound(self):
        # [TRIVIAL] kernel bound 1/Im z
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu = random_atoms(rng)
            z = complex(rng.uniform(-5, 5), rng.uniform(0.3, 4.0))
            assert abs(mu.stieltjes(z)) <= 1.0 / z.imag + 1e-12

    def test_semicircle_at_2i(self):
        # [DERIVED] closed form from the fixed-point equation
        mu = qve.semicircle_reference()
        target = (math.sqrt(2.0) - 1.0) * 1j
        assert abs(mu.stieltjes(2j) - target) <= 1e-4

    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            atom(0.0).stieltjes(1.0)


class TestMetricD:
    def test_identity(self):
        # [TRIVIAL]
        rng = np.random.default_rng(1)
        mu = random_atoms(rng)
        assert measures.metric_d(mu, mu) == 0.0

    def test_delta_pair_grid_oracle(self):
        # [DERIVED] direct evaluation over the same fixed grid
        mu, nu = atom(0.0), atom(1.0)
        oracle = max(abs(1.0 / (0.0 - z) - 1.0 / (1.0 - z))
                     for z in measures.METRIC_D_GRID)
        assert abs(measures.metric_d(mu, nu) - oracle) <= 1e-15

    def test_symmetry(self):
        # [TRIVIAL]
        rng = np.random.default_rng(2)
        mu, nu = random_atoms(rng), random_atoms(rng)
        assert measures.metric_d(mu, nu) == measures.metric_d(nu, mu)


class TestKsDistance:
    def test_delta_pair(self):
        # [TRIVIAL]
        assert measures.ks_distance(atom(0.0), atom(1.0)) == 1.0

    def test_identity(self):
        # [TRIVIAL]
        rng = np.random.default_rng(3)
        mu = random_atoms(rng)
        assert measures.ks_distance(mu, mu) == 0.0

    def test_two_atoms_vs_delta(self):
        # [DERIVED] CDF step comparison
        mu = ProbMeasure1D.from_atoms([-1.0, 1.0])
        assert measures.ks_distance(mu, atom(0.0)) == 0.5


class TestWasserstein:
    def test_delta_pair_w1(self):
        # [TRIVIAL]
        assert abs(measures.wasserstein(atom(0.0), atom(1.0), 1) - 1.0) <= 1e-12

    def test_identity(self):
        # [TRIVIAL]
        rng = np.random.default_rng(4)
        mu = random_atoms(rng)
        assert measures.wasserstein(mu, mu, 2) == 0.0

    def test_two_atoms_vs_delta_w2(self):
        # [DERIVED] quantile integral sqrt((1 + 1)/2)
        mu = ProbMeasure1D.from_atoms([0.0, 2.0])
        assert abs(measures.wasserstein(mu, atom(1.0), 2) - 1.0) <= 1e-12

    def test_matches_lp_transport_oracle(self):
        # invariant: quantile formula equals the LP oracle on small instances
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = random_atoms(rng, int(rng.integers(2, 7)))
            nu = random_atoms(rng, int(rng.integers(2, 7)))
            for order in (1, 2):
                assert abs(measures.wasserstein(mu, nu, order)
                           - lp_transport(mu, nu, order)) <= 1e-6

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            measures.wasserstein(atom(0.0), atom(1.0), 3)


class TestTriangleInequalities:
    def test_all_three_metrics(self):
        rng = np.random.default_rng(6)
        fns = [measures.metric_d, measures.ks_distance,
               lambda a, b: measures.wasserstein(a, b, 1),
               lambda a, b: measures.wasserstein(a, b, 2)]
        for _ in range(30):
            a, b, c = (random_atoms(rng) for _ in range(3))
            for fn in fns:
                assert fn(a, c) <= fn(a, b) + fn(b, c) + 1e-9


class TestMetricInequality:
    def test_random_pairs(self):
        # [DERIVED] Monte Carlo suite (500-case run in the verify suites)
        rng = np.random.default_rng(7)
        for _ in range(100):
            rep = measures.metric_inequality_check(random_atoms(rng),
                                                   random_atoms(rng))
            assert rep.holds

    def test_identical(self):
        # [TRIVIAL] 0 <= 0
        rng = np.random.default_rng(8)
        mu = random_atoms(rng)
        rep = measures.metric_inequality_check(mu, mu)
        assert rep.holds and rep.lhs == 0.0

    def test_delta_pair(self):
        # [TRIVIAL] grid-d <= 1
        rep = measures.metric_inequality_check(atom(0.0), atom(1.0))
        assert rep.holds and rep.rhs <= 1.0


class TestHwCheck:
    def test_identical(self):
        # [TRIVIAL]
        W = StepKernel.constant(1.0)
        rep = measures.hw_check(W, W)
        assert rep.holds and rep.lhs <= 2e-3

    def test_scaled_semicircles(self):
        # [DERIVED] W2(semicircle, 2x semicircle) = 1 <= sqrt(3)
        rep = measures.hw_check(StepKernel.constant(1.0),
                                StepKernel.constant(4.0))
        assert rep.holds
        assert abs(rep.lhs - 1.0) <= 5e-3
        assert abs(rep.rhs - (math.sqrt(3.0) + 2e-3)) <= 1e-12

    def test_random_pairs(self):
        # [DERIVED] Monte Carlo suite (full 200-trial run in acceptance)
        rng = np.random.default_rng(9)
        for _ in range(5):
            k = int(rng.integers(1, 5))
            vals = rng.uniform(0, 4, (k, k))
            W = StepKernel(Partition.equal(k), 0.5 * (vals + vals.T))
            vals = rng.uniform(0, 4, (k, k))
            Wp = StepKernel(Partition.equal(k), 0.5 * (vals + vals.T))
            assert measures.hw_check(W, Wp).holds


class TestInterlacingCheck:
    def test_empty_difference(self):
        # [TRIVIAL] identical kernels: d = 0
        W = StepKernel.constant(1.0, 4)
        rep = measures.interlacing_check(W, W, 0.0)
        assert rep.holds and rep.lhs <= 1e-3

    def test_single_modified_part(self):
        # [DERIVED] one part of four modified, E = 0.25
        rng = np.random.default_rng(10)
        vals = rng.uniform(0, 4, (4, 4))
        vals = 0.5 * (vals + vals.T)
        W = StepKernel(Partition.equal(4), vals)
        vals2 = vals.copy()
        row = rng.uniform(0, 4, 4)
        vals2[0, :] = row
        vals2[:, 0] = row
        Wp = StepKernel(Partition.equal(4), vals2)
        rep = measures.interlacing_check(W, Wp, 0.25)
        assert rep.holds
        assert abs(rep.info["measure_diff"] - 0.25) <= 1e-12

    def test_full_modification(self):
        # [TRIVIAL] bound 2 always holds since d <= 1 on Im z >= 2
        rng = np.random.default_rng(11)
        vals = rng.uniform(0, 4, (2, 2))
        W = StepKernel(Partition.equal(2), 0.5 * (vals + vals.T))
        vals = rng.uniform(0, 4, (2, 2))
        Wp = StepKernel(Partition.equal(2), 0.5 * (vals + vals.T))
        rep = measures.interlacing_check(W, Wp, 1.0)
        assert rep.holds

    def test_precondition_violated(self):
        W = StepKernel.constant(1.0, 4)
        Wp = StepKernel.constant(2.0, 4)   # all parts differ
        with pytest.raises(PreconditionViolated):
            measures.interlacing_check(W, Wp, 0.25)

    def test_partition_mismatch(self):
        with pytest.raises(PartitionMismatch):
            measures.interlacing_check(StepKernel.constant(1.0, 2),
                                       StepKernel.constant(1.0, 3), 1.0)


@st.composite
def kernel_pairs(draw):
    """Two kernels on k <= 4 equal parts, the second equal to the first off
    one part's row and column.  Entries in [0.25, 4] keep every part's degree
    away from 0: there the default grid under-resolves the spike of the
    density at 0, and the grid side of a comparison would measure that."""
    k = draw(st.integers(1, 4))
    vals = draw(arrays(float, (k, k), elements=st.floats(0.25, 4.0)))
    vals = 0.5 * (vals + vals.T)
    other = vals.copy()
    i = draw(st.integers(0, k - 1))
    other[i, :] = other[:, i] = draw(arrays(float, k, elements=st.floats(0.25, 4.0)))
    part = Partition.equal(k)
    return StepKernel(part, vals), StepKernel(part, other)


@st.composite
def relabelled_kernels(draw):
    """A kernel on k <= 8 equal parts, some rows possibly zero, and the same
    kernel with its parts permuted."""
    k = draw(st.integers(1, 8))
    vals = draw(arrays(float, (k, k), elements=st.floats(0.0, 4.0)))
    vals = 0.5 * (vals + vals.T)
    zero = draw(arrays(bool, k))
    vals[zero, :] = vals[:, zero] = 0.0
    sigma = np.array(draw(st.permutations(range(k))))
    part = Partition.equal(k)
    return StepKernel(part, vals), StepKernel(part, vals[np.ix_(sigma, sigma)])


class TestQveMeasureKind:
    """A QVE measure answers Stieltjes transforms from its kernel's QVE
    solution and inverts only when its grid is read."""

    def test_grid_is_qve_measure_on_first_read(self, inversions):
        W = StepKernel(Partition.equal(2), [[2.0, 0.5], [0.5, 1.0]])
        mu = qve.QveMeasure(W)
        assert mu.kind == "qve" and mu.kernel is W
        assert mu.stieltjes(0.5 + 2j) == qve.solve_qve(W, [0.5 + 2j]).average()[0]
        assert inversions == []
        ref = qve.qve_measure(W)
        inversions.clear()
        for name in ("x", "density", "cdf_values"):
            assert getattr(mu, name).tobytes() == getattr(ref, name).tobytes()
        assert mu.moment(4) == ref.moment(4)
        t = np.linspace(0.0, 1.0, 7)
        assert mu.quantile(t).tobytes() == ref.quantile(t).tobytes()
        assert mu.cdf(t).tobytes() == ref.cdf(t).tobytes()
        assert len(inversions) == 1      # the grid is built once

    def test_interlacing_and_rate_bound_invert_nothing(self, inversions):
        W = StepKernel.constant(1.0, 4)
        vals = np.ones((4, 4))
        vals[0, :] = vals[:, 0] = 2.0
        assert measures.interlacing_check(W, StepKernel(W.partition, vals), 0.25).holds
        rates.rate_upper_bound(rates.EntryLaw.rademacher(),
                               qve.semicircle_reference(),
                               [StepKernel.constant(c) for c in (0.5, 1.0)], tol=0.01)
        assert inversions == []

    @settings(max_examples=20, deadline=None)
    @given(pair=kernel_pairs())
    def test_d_is_the_solver_difference(self, pair):
        # [DERIVED] d of two QVE measures is max |mbar_W - mbar_W'| over
        # METRIC_D_GRID from two solves, bit for bit, and the d of the two
        # inverted grids approximates it
        W, Wp = pair
        d = measures.metric_d(qve.QveMeasure(W), qve.QveMeasure(Wp))
        direct = np.abs(qve.solve_qve(W, measures.METRIC_D_GRID).average()
                        - qve.solve_qve(Wp, measures.METRIC_D_GRID).average()).max()
        assert d == float(direct)
        grid_d = measures.metric_d(qve.qve_measure(W), qve.qve_measure(Wp))
        assert abs(d - grid_d) <= 1e-4

    @settings(max_examples=30, deadline=None)
    @given(pair=relabelled_kernels())
    def test_relabelling_invariance(self, pair):
        # [PAPER] a permutation of the parts leaves the QVE measure as it is
        W, Ws = pair
        assert measures.metric_d(qve.QveMeasure(W), qve.QveMeasure(Ws)) <= 1e-12


class TestCsvRoundTrip:
    def test_eigenvalues(self, tmp_path):
        from qvelab import ensembles

        path = tmp_path / "eig.csv"
        ensembles.save_eigenvalues_csv(
            ensembles.esm(np.diag([0.5, -1.0, 2.0])), path)
        back = measures.load_measure_csv(path)
        assert back.kind == "atoms"
        assert np.array_equal(back.x, [-1.0, 0.5, 2.0])
        assert np.array_equal(back.w, np.full(3, 1.0 / 3.0))

    @pytest.mark.parametrize("text", ["eigenvalue\n0.5\n1.0,2.0\n",
                                      "x,weight\n0.25,0.5\n0.5\n",
                                      "x,density,cdf\n0.0,1.0,0.5,7\n"])
    def test_row_with_wrong_field_count_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            measures.load_measure_csv(path)

    @pytest.mark.parametrize("text", ["eigenvalue\n", "x,weight\n",
                                      "value\n0.5\n"])
    def test_empty_or_unknown_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            measures.load_measure_csv(path)
    def test_atoms(self, tmp_path):
        rng = np.random.default_rng(12)
        mu = random_atoms(rng)
        path = tmp_path / "atoms.csv"
        measures.save_measure_csv(mu, path)
        back = measures.load_measure_csv(path)
        assert np.array_equal(back.x, mu.x)
        # from_atoms renormalizes on load, which can shift weights by 1 ulp
        assert np.allclose(back.w, mu.w, rtol=1e-15, atol=0.0)

    def test_grid(self, tmp_path):
        x = np.linspace(-1, 1, 200)
        mu = ProbMeasure1D.from_grid(x, 1.0 - x ** 2)
        path = tmp_path / "grid.csv"
        measures.save_measure_csv(mu, path)
        back = measures.load_measure_csv(path)
        assert np.array_equal(back.x, mu.x)
        assert np.array_equal(back.density, mu.density)
        assert np.array_equal(back.cdf_values, mu.cdf_values)

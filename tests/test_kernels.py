"""Tests for qvelab.kernels: partitions, stepping, cut norm, cut distance."""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qvelab import kernels
from qvelab.errors import AsymmetricInput, ExactTooLarge, PartMeasureMismatch
from qvelab.kernels import Partition, StepKernel


def random_kernel(rng, k, lo=0.0, hi=4.0, signed=False):
    vals = rng.uniform(lo, hi, size=(k, k))
    vals = 0.5 * (vals + vals.T)
    return StepKernel(Partition.equal(k), vals, signed=signed)


def brute_force_cut_norm(W):
    """Independent oracle: explicit loop over all subset pairs (S, T)."""
    mu = W.partition.part_measures
    M = W.values * np.outer(mu, mu)
    k = W.k
    best = 0.0
    for s_set in range(1 << k):
        for t_set in range(1 << k):
            acc = 0.0
            for a in range(k):
                if not (s_set >> a) & 1:
                    continue
                for b in range(k):
                    if (t_set >> b) & 1:
                        acc += M[a, b]
            best = max(best, abs(acc))
    return best


# ---------------------------------------------------------------------------
# Partition


class TestPartition:
    def test_equal_partition(self):
        p = Partition.equal(4)
        assert p.k == 4
        assert np.allclose(p.part_measures, 0.25)
        assert p.is_equal_measure()
        assert p.is_rational

    @pytest.mark.parametrize("k", range(1, 13))
    def test_equal_parts_measure_alike(self, k):
        # one rounding of each exact 1/k, not differences of rounded i/k
        assert Partition.equal(k).part_measures.tolist() == [float(Fraction(1, k))] * k

    def test_float_boundaries_subtract_as_floats(self):
        p = Partition([0.1, 0.45, 1.0])
        assert p.part_measures.tolist() == [0.1, 0.45 - 0.1, 1.0 - 0.45]

    def test_measures_sum_to_one(self):
        p = Partition([0.3, 0.55, 1.0])
        assert abs(p.part_measures.sum() - 1.0) <= 1e-12

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Partition([0.5, 0.4, 1.0])

    def test_rejects_bad_last(self):
        with pytest.raises(ValueError):
            Partition([0.5, 0.9])

    def test_rejects_nonpositive_start(self):
        with pytest.raises(ValueError):
            Partition([0.0, 1.0])

    def test_unequal_measure_detected(self):
        assert not Partition([0.3, 1.0]).is_equal_measure()

    def test_hash_agrees_with_eq(self):
        # boundaries 6e-13 apart are equal, and straddle a 12-digit rounding
        a = Partition([0.1234567890125 - 3e-13, 1.0])
        b = Partition([0.1234567890125 + 3e-13, 1.0])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        vals = [[1.0, 2.0], [2.0, 0.0]]
        assert len({StepKernel(a, vals), StepKernel(b, vals)}) == 1

    def test_rejects_nan_boundary(self):
        with pytest.raises(ValueError):
            Partition([0.3, math.nan, 1.0])


# ---------------------------------------------------------------------------
# StepKernel


class TestStepKernel:
    def test_symmetry_required(self):
        with pytest.raises(AsymmetricInput):
            StepKernel(Partition.equal(2), [[0.0, 1.0], [2.0, 0.0]])

    def test_nonnegative_required(self):
        with pytest.raises(ValueError):
            StepKernel(Partition.equal(2), [[0.0, -1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("bad, name", [(math.inf, "inf"), (math.nan, "nan")])
    def test_non_finite_value_named(self, bad, name):
        # named as a non-finite value, before the symmetry check can call a
        # NaN asymmetric
        with pytest.raises(ValueError,
                           match=rf"kernel value {name} at \(0, 1\) is not finite"):
            StepKernel(Partition.equal(3), [[1.0, bad, 0.0], [bad, 0.0, 0.0],
                                            [0.0, 0.0, 1.0]])

    def test_signed_allows_negative(self):
        W = StepKernel(Partition.equal(2), [[0.5, -0.5], [-0.5, 0.5]],
                       signed=True)
        assert W.signed

    def test_constant(self):
        W = StepKernel.constant(3.0, 2)
        assert np.array_equal(W.values, np.full((2, 2), 3.0))

    def test_hash_agrees_with_eq_on_signed_zero(self):
        a = StepKernel(Partition.equal(2), [[0.0, 1.0], [1.0, 0.0]], signed=True)
        b = StepKernel(Partition.equal(2), [[-0.0, 1.0], [1.0, 0.0]], signed=True)
        assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# degree_function


class TestDegreeFunction:
    def test_constant_one(self):
        # [TRIVIAL] constant kernel
        assert np.allclose(kernels.degree_function(StepKernel.constant(1.0)), [1.0])

    def test_two_part_block(self):
        # [DERIVED] direct integral 2 * (1/2)
        W = StepKernel(Partition.equal(2), [[2.0, 0.0], [0.0, 0.0]])
        assert np.allclose(kernels.degree_function(W), [1.0, 0.0])

    def test_off_diagonal(self):
        # [DERIVED] direct integral
        W = StepKernel(Partition.equal(2), [[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(kernels.degree_function(W), [0.5, 0.5])


# ---------------------------------------------------------------------------
# step_average


class TestStepAverage:
    def test_constant_invariant(self):
        # [TRIVIAL] averaging a constant
        W = StepKernel.constant(2.5, 1)
        out = kernels.step_average(W, Partition.equal(3))
        assert np.allclose(out.values, 2.5)

    def test_idempotent_on_own_partition(self):
        # [TRIVIAL] projection idempotence
        rng = np.random.default_rng(1)
        W = random_kernel(rng, 4)
        out = kernels.step_average(W, W.partition)
        assert np.allclose(out.values, W.values, atol=1e-14)

    def test_coarsen_to_one_part(self):
        # [DERIVED] 4 * (1/4) mass averaged over the unit square
        W = StepKernel(Partition.equal(2), [[4.0, 0.0], [0.0, 0.0]])
        out = kernels.step_average(W, Partition([1.0]))
        assert np.allclose(out.values, [[1.0]])

    def test_l1_contraction(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            W = random_kernel(rng, 5, lo=-2.0, hi=2.0, signed=True)
            P = Partition.equal(int(rng.integers(1, 4)))
            assert (kernels.l1_norm(kernels.step_average(W, P))
                    <= kernels.l1_norm(W) + 1e-12)

    def test_refining_the_largest_value_keeps_it(self):
        # the symmetrization halves before it sums, so a value near the top of
        # the float range stays finite (any RuntimeWarning is an error here)
        W = StepKernel(Partition.equal(2), [[1.0, 1.0], [1.0, 1e308]])
        out = kernels.step_average(W, Partition.equal(4))
        assert out.values[3, 3] == 1e308


def _reference_cut_distance(W1, W2):
    """The k! loop cut_distance once ran: one exact cut norm per permutation
    in itertools.permutations order, the first strict minimum wins."""
    a, b = kernels._align_equal_parts(W1, W2)
    mu2 = np.outer(a.partition.part_measures, a.partition.part_measures)
    best_val, best_perm = math.inf, None
    for perm in itertools.permutations(range(a.k)):
        diff = (a.values - b.values[np.ix_(perm, perm)]) * mu2
        v = kernels._cut_norm_exact(diff)[0]
        if v < best_val:
            best_val, best_perm = v, perm
    return best_val, best_perm


def assert_matches_reference(W1, W2):
    d = kernels.cut_distance(W1, W2)
    value, perm = _reference_cut_distance(W1, W2)
    assert d.value == value
    assert d.permutation == perm


@st.composite
def kernel_pairs(draw, max_k):
    """Two k-part kernels with values in [0, 4]; a few repeated round values
    (zero included) make exact ties between permutations likely."""
    k = draw(st.integers(1, max_k))
    entries = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 4.0]),
                        st.floats(0.0, 4.0))
    pair = []
    for _ in range(2):
        v = draw(arrays(float, (k, k), elements=entries))
        pair.append(StepKernel(Partition.equal(k), np.triu(v) + np.triu(v, 1).T))
    return pair


# ---------------------------------------------------------------------------
# cut_norm


class TestCutNorm:
    def test_zero_kernel(self):
        # [TRIVIAL]
        W = StepKernel.constant(0.0, 3)
        assert kernels.cut_norm(W).value == 0.0

    def test_indicator_table_shared_read_only(self):
        table = kernels._indicator_table(3)
        assert kernels._indicator_table(3) is table
        assert not table.flags.writeable
        # the returned indicator is the caller's own copy
        res = kernels.cut_norm(StepKernel.constant(1.0, 3))
        res.s[0] = 0.0
        assert kernels.cut_norm(StepKernel.constant(1.0, 3)).s[0] == 1.0

    def test_signed_difference_example(self):
        # [DERIVED] exhaustive enumeration over the 16 part-indicator pairs
        W = StepKernel(Partition.equal(2), [[0.5, -0.5], [-0.5, 0.5]],
                       signed=True)
        res = kernels.cut_norm(W)
        assert abs(res.value - 0.125) <= 1e-15

    def test_constant(self):
        # [DERIVED] nonnegativity makes S = T = (0,1] optimal
        for c in (0.5, 1.0, 3.25):
            W = StepKernel.constant(c, 2)
            assert abs(kernels.cut_norm(W).value - c) <= 1e-12

    def test_exact_too_large(self):
        W = StepKernel.constant(1.0, 13)
        with pytest.raises(ExactTooLarge):
            kernels.cut_norm(W)

    def test_matches_subset_pair_brute_force(self):
        # dual-route check against a fully independent enumeration
        rng = np.random.default_rng(4)
        for _ in range(60):
            k = int(rng.integers(1, 7))
            W = random_kernel(rng, k, lo=-2.0, hi=2.0, signed=True)
            fast = kernels.cut_norm(W).value
            assert abs(fast - brute_force_cut_norm(W)) <= 1e-12

    def test_bounded_by_l1(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            k = int(rng.integers(1, 9))
            W = random_kernel(rng, k, lo=-3.0, hi=3.0, signed=True)
            assert kernels.cut_norm(W).value <= kernels.l1_norm(W) + 1e-12

    def test_relabel_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            W = random_kernel(rng, k)
            Wp = random_kernel(rng, k)
            sigma = list(rng.permutation(k))
            before = kernels.cut_norm(W.sub(Wp)).value
            after = kernels.cut_norm(
                kernels.relabel(W, sigma).sub(kernels.relabel(Wp, sigma))
            ).value
            assert abs(before - after) <= 1e-14


# ---------------------------------------------------------------------------
# cut_distance


class TestCutDistance:
    def test_relabel_gives_zero(self):
        # [TRIVIAL] relabelling invariance
        rng = np.random.default_rng(7)
        W = random_kernel(rng, 4)
        sigma = [2, 0, 3, 1]
        d = kernels.cut_distance(W, kernels.relabel(W, sigma))
        assert d.value <= 1e-14

    def test_self_distance_zero(self):
        # [TRIVIAL]
        rng = np.random.default_rng(8)
        W = random_kernel(rng, 3)
        assert kernels.cut_distance(W, W).value <= 1e-14

    def test_swapped_blocks(self):
        # [DERIVED] swap permutation aligns blocks
        W1 = StepKernel(Partition.equal(2), [[1.0, 0.0], [0.0, 0.0]])
        W2 = StepKernel(Partition.equal(2), [[0.0, 0.0], [0.0, 1.0]])
        assert kernels.cut_distance(W1, W2).value <= 1e-14

    def test_exact_too_large(self):
        W = StepKernel.constant(1.0, 9)
        with pytest.raises(ExactTooLarge):
            kernels.cut_distance(W, W)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            a, b, c = (random_kernel(rng, 3) for _ in range(3))
            dab = kernels.cut_distance(a, b).value
            dbc = kernels.cut_distance(b, c).value
            dac = kernels.cut_distance(a, c).value
            assert dac <= dab + dbc + 1e-12

    def test_exact_matches_brute_force(self):
        # independent oracle: |s^T D t| over all 2^k x 2^k pairs of 0/1
        # vectors for every permuted difference D; first minimum wins
        rng = np.random.default_rng(14)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            W1, W2 = random_kernel(rng, k), random_kernel(rng, k)
            mu = W1.partition.part_measures
            S = np.array(list(itertools.product((0.0, 1.0), repeat=k)))
            best_val, best_perm = np.inf, None
            for perm in itertools.permutations(range(k)):
                D = (W1.values - W2.values[np.ix_(perm, perm)]) * np.outer(mu, mu)
                val = np.abs(S @ D @ S.T).max()
                if val < best_val:
                    best_val, best_perm = val, perm
            d = kernels.cut_distance(W1, W2)
            assert abs(d.value - best_val) <= 1e-12
            assert tuple(d.permutation) == best_perm

    @settings(max_examples=40, deadline=None)
    @given(kernel_pairs(max_k=6))
    def test_bit_identical_to_reference_loop(self, pair):
        assert_matches_reference(*pair)

    def test_bit_identical_to_reference_loop_k7(self):
        rng = np.random.default_rng(15)
        for _ in range(2):
            assert_matches_reference(random_kernel(rng, 7), random_kernel(rng, 7))

    @pytest.mark.parametrize("k", [2, 5, 7])
    def test_ties_keep_the_first_permutation(self, k):
        # constant kernels: every permutation ties, the identity wins
        one, three = StepKernel.constant(1.0, k), StepKernel.constant(3.0, k)
        assert kernels.cut_distance(one, three).permutation == tuple(range(k))
        assert_matches_reference(one, three)
        rng = np.random.default_rng(16 + k)
        A = random_kernel(rng, k)
        # relabelled pair: distance 0, possibly at several permutations
        assert_matches_reference(A, kernels.relabel(A, rng.permutation(k)))
        # floor pair: |sum of D| is the same for every permutation and
        # dominates, so every permutation ties up to rounding
        assert_matches_reference(A, StepKernel(A.partition, A.values + 2.0))
        # repeated parts: swapping two equal parts ties exactly
        v = rng.uniform(0.0, 4.0, (k, k))
        v = np.triu(v) + np.triu(v, 1).T
        v[:, 1] = v[:, 0]
        v[1, :] = v[0, :]
        assert_matches_reference(StepKernel(A.partition, v), A)

    def test_temporaries_stay_bounded(self):
        rng = np.random.default_rng(17)
        A, B = random_kernel(rng, 8), random_kernel(rng, 8)
        kernels.cut_distance(A, A)      # fills the permutation table cache
        tracemalloc.start()
        try:
            kernels.cut_distance(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_permutation_table_shared_read_only(self):
        table = kernels._permutation_table(4)
        assert kernels._permutation_table(4) is table
        assert not table.flags.writeable
        assert [tuple(row) for row in table] == list(
            itertools.permutations(range(4)))


# ---------------------------------------------------------------------------
# relabel


class TestRelabel:
    def test_identity(self):
        # [TRIVIAL]
        rng = np.random.default_rng(11)
        W = random_kernel(rng, 4)
        assert kernels.relabel(W, range(4)) == W

    def test_inverse_round_trip(self):
        # [TRIVIAL] group action
        rng = np.random.default_rng(12)
        W = random_kernel(rng, 5)
        sigma = list(rng.permutation(5))
        inv = list(np.argsort(sigma))
        assert kernels.relabel(kernels.relabel(W, sigma), inv) == W

    def test_two_part_swap(self):
        # [DERIVED] index substitution
        W = StepKernel(Partition.equal(2), [[1.0, 2.0], [2.0, 3.0]])
        out = kernels.relabel(W, [1, 0])
        assert np.array_equal(out.values, [[3.0, 2.0], [2.0, 1.0]])

    def test_unequal_parts_rejected(self):
        W = StepKernel(Partition([0.3, 1.0]), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(PartMeasureMismatch):
            kernels.relabel(W, [1, 0])

    def test_non_permutation_rejected(self):
        W = StepKernel.constant(1.0, 2)
        with pytest.raises(ValueError):
            kernels.relabel(W, [0, 0])


# ---------------------------------------------------------------------------
# l1_norm


class TestL1Norm:
    def test_zero(self):
        assert kernels.l1_norm(StepKernel.constant(0.0, 2)) == 0.0

    def test_constant_one(self):
        assert abs(kernels.l1_norm(StepKernel.constant(1.0, 3)) - 1.0) <= 1e-12

    def test_block(self):
        # [DERIVED] 2 * (1/4)
        W = StepKernel(Partition.equal(2), [[2.0, 0.0], [0.0, 0.0]])
        assert abs(kernels.l1_norm(W) - 0.5) <= 1e-12


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_json_round_trip_rational(self):
        rng = np.random.default_rng(14)
        W = random_kernel(rng, 3)
        text = kernels.kernel_to_json(W)
        back = kernels.kernel_from_json(text)
        assert back == W
        # bit-exact boundaries and a byte-identical re-serialization
        assert back.partition.boundaries == W.partition.boundaries
        assert kernels.kernel_to_json(back) == text

    def test_json_fraction_boundaries(self):
        W = StepKernel(Partition([Fraction(1, 3), Fraction(2, 3), Fraction(1)]),
                       np.eye(3) + 1.0)
        data = json.loads(kernels.kernel_to_json(W))
        assert data["boundaries"] == ["1/3", "2/3", "1/1"]

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        W = random_kernel(rng, 4)
        path = tmp_path / "kernel.json"
        kernels.save_kernel(W, path)
        assert kernels.load_kernel(path) == W


# ---------------------------------------------------------------------------
# common refinement


class TestCommonRefinement:
    def test_refinement_preserves_values(self):
        W1 = StepKernel(Partition([0.5, 1.0]), [[1.0, 2.0], [2.0, 3.0]])
        W2 = StepKernel(Partition([0.25, 1.0]), [[4.0, 0.0], [0.0, 1.0]])
        a, b = kernels.to_common_partition(W1, W2)
        assert a.partition == b.partition
        assert abs(kernels.l1_norm(a) - kernels.l1_norm(W1)) <= 1e-12
        assert abs(kernels.l1_norm(b) - kernels.l1_norm(W2)) <= 1e-12

    def test_sub_is_signed(self):
        W1 = StepKernel.constant(1.0, 2)
        W2 = StepKernel.constant(2.0, 2)
        d = W1.sub(W2)
        assert d.signed
        assert np.allclose(d.values, -1.0)

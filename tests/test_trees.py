"""Tests for qvelab.trees: enumeration, homomorphism densities, moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qvelab import kernels, trees
from qvelab.errors import ExactTooLarge, PartitionMismatch
from qvelab.kernels import Partition, StepKernel
from qvelab.trees import RootedPlanarTree


def random_kernel(rng, k, hi=4.0):
    vals = rng.uniform(0.0, hi, size=(k, k))
    vals = 0.5 * (vals + vals.T)
    return StepKernel(Partition.equal(k), vals)


def brute_force_hom_density(tree, w):
    """Independent oracle: explicit sum over all part assignments.  w is one
    kernel for every edge or a list of one kernel per edge, edge t being
    tree.edges()[t]."""
    edge_kernels = [w] * tree.n_edges if isinstance(w, StepKernel) else w
    part = (w if isinstance(w, StepKernel) else w[0]).partition
    mu = part.part_measures
    n = tree.n_vertices
    total = 0.0
    for assign in np.ndindex(*([part.k] * n)):
        term = 1.0
        for v in range(n):
            term *= mu[assign[v]]
        for W, (a, b) in zip(edge_kernels, tree.edges()):
            term *= W.values[assign[a], assign[b]]
        total += term
    return total


def tree_moment(order, W, pools):
    """Oracle: the moment as the sum of hom densities over enumerated trees."""
    if order % 2:
        return 0.0
    return sum(trees.hom_density(t, W) for t in pools[order // 2])


@st.composite
def kernel_values(draw):
    """Symmetric nonnegative k x k values, k <= 6; entries are 0 or at least
    1e-3, so no moment of order <= 16 underflows."""
    k = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 4.0))
    vals = draw(arrays(float, (k, k), elements=entry))
    return np.triu(vals) + np.triu(vals, 1).T


@st.composite
def decorated_trees(draw):
    """A tree with 1..4 edges and an independent kernel per edge: entries 0 or
    in [1e-3, 4], on 1..3 equal parts or on the parts (0, 0.1], (0.1, 0.45],
    (0.45, 1]."""
    pool = trees.enumerate_trees(draw(st.integers(1, 4)))
    tree = draw(st.sampled_from(pool))
    part = draw(st.sampled_from([Partition.equal(1), Partition.equal(2),
                                 Partition.equal(3), Partition([0.1, 0.45, 1.0])]))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 4.0))
    w = []
    for _ in range(tree.n_edges):
        vals = draw(arrays(float, (part.k, part.k), elements=entry))
        w.append(StepKernel(part, np.triu(vals) + np.triu(vals, 1).T))
    return tree, w


class TestRootedPlanarTree:
    def test_dyck_validation(self):
        with pytest.raises(ValueError):
            RootedPlanarTree((0, 1))          # negative prefix
        with pytest.raises(ValueError):
            RootedPlanarTree((1, 1, 0))       # unbalanced
        with pytest.raises(ValueError):
            RootedPlanarTree((1, 2, 0, 0))    # non-bit

    def test_string_round_trip(self):
        t = RootedPlanarTree.from_string("110100")
        assert t.to_string() == "110100"
        assert t.n_edges == 3 and t.n_vertices == 4

    def test_path_and_cherry_structure(self):
        path = RootedPlanarTree.from_string("1100")
        cherry = RootedPlanarTree.from_string("1010")
        assert path.parents() == [-1, 0, 1]
        assert cherry.parents() == [-1, 0, 0]
        assert path.edges() == [(0, 1), (1, 2)]


class TestEnumerateTrees:
    def test_k0(self):
        # [TRIVIAL] root only
        assert len(trees.enumerate_trees(0)) == 1

    def test_k2(self):
        # [DERIVED] Catalan C_2 = 2: path and cherry
        out = trees.enumerate_trees(2)
        assert len(out) == 2
        assert {t.to_string() for t in out} == {"1100", "1010"}

    def test_k4(self):
        # [DERIVED] Catalan C_4
        assert len(trees.enumerate_trees(4)) == 14

    def test_catalan_counts(self):
        for k in range(11):
            out = trees.enumerate_trees(k)
            assert len(out) == trees.CATALAN[k]
            assert len({t.word for t in out}) == trees.CATALAN[k]

    def test_deterministic_order(self):
        a = [t.word for t in trees.enumerate_trees(5)]
        b = [t.word for t in trees.enumerate_trees(5)]
        assert a == b == sorted(a)

    def test_too_large(self):
        with pytest.raises(ExactTooLarge):
            trees.enumerate_trees(11)

    def test_negative(self):
        with pytest.raises(ValueError):
            trees.enumerate_trees(-1)


class TestHomDensity:
    def test_single_edge_constant(self):
        # [TRIVIAL]
        edge = RootedPlanarTree.from_string("10")
        assert abs(trees.hom_density(edge, StepKernel.constant(1.0)) - 1.0) <= 1e-15

    def test_single_edge_equals_l1(self):
        # [DERIVED] definition coincides with the mean
        rng = np.random.default_rng(0)
        edge = RootedPlanarTree.from_string("10")
        for _ in range(10):
            W = random_kernel(rng, int(rng.integers(1, 5)))
            assert abs(trees.hom_density(edge, W)
                       - kernels.l1_norm(W)) <= 1e-12

    def test_two_edge_path(self):
        # [DERIVED] explicit block summation gives 1
        path = RootedPlanarTree.from_string("1100")
        W = StepKernel(Partition.equal(2), [[0.0, 2.0], [2.0, 0.0]])
        assert abs(trees.hom_density(path, W) - 1.0) <= 1e-12

    def test_matches_brute_force(self):
        # dual-route check: DP vs explicit assignment sum
        rng = np.random.default_rng(1)
        for k_edges in (1, 2, 3):
            for tree in trees.enumerate_trees(k_edges):
                W = random_kernel(rng, 3)
                assert abs(trees.hom_density(tree, W)
                           - brute_force_hom_density(tree, W)) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(case=decorated_trees())
    def test_per_edge_decoration_matches_brute_force(self, case):
        # dual-route check for per-edge kernels: stack pass vs assignment sum
        tree, w = case
        want = brute_force_hom_density(tree, w)
        mu = w[0].partition.part_measures
        assert trees.hom_density(tree, w) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert float(mu @ trees.rooted_density_vector(tree, w)) == pytest.approx(
            want, rel=1e-12, abs=0.0)

    def test_monotone_in_kernel(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k_edges = int(rng.integers(1, 5))
            pool = trees.enumerate_trees(k_edges)
            tree = pool[int(rng.integers(0, len(pool)))]
            W = random_kernel(rng, 3)
            bump = rng.uniform(0, 1, (3, 3))
            bump = 0.5 * (bump + bump.T)
            Wp = StepKernel(W.partition, W.values + bump)
            assert (trees.hom_density(tree, Wp)
                    >= trees.hom_density(tree, W) - 1e-12)


class TestRootedHomDensity:
    def test_root_only(self):
        # [PAPER] convention t = 1 for the single-vertex tree
        t = RootedPlanarTree(())
        assert trees.rooted_hom_density(t, StepKernel.constant(1.0), 0) == 1.0

    def test_single_edge_constant(self):
        # [TRIVIAL]
        edge = RootedPlanarTree.from_string("10")
        assert abs(trees.rooted_hom_density(edge, StepKernel.constant(1.0), 0)
                   - 1.0) <= 1e-15

    def test_single_edge_off_diagonal(self):
        # [DERIVED] 2 * (1/2)
        edge = RootedPlanarTree.from_string("10")
        W = StepKernel(Partition.equal(2), [[0.0, 2.0], [2.0, 0.0]])
        assert abs(trees.rooted_hom_density(edge, W, 0) - 1.0) <= 1e-12

    def test_integrating_root_gives_hom_density(self):
        # invariant: sum_part lambda * rooted == hom within 1e-12
        rng = np.random.default_rng(3)
        for k_edges in (0, 1, 2, 3):
            for tree in trees.enumerate_trees(k_edges):
                W = random_kernel(rng, 4)
                vec = trees.rooted_density_vector(tree, W)
                total = float(W.partition.part_measures @ vec)
                assert abs(total - trees.hom_density(tree, W)) <= 1e-12


class TestQveMoment:
    def test_constant_order4(self):
        # [DERIVED] Catalan C_2
        assert abs(trees.qve_moment(4, StepKernel.constant(1.0)) - 2.0) <= 1e-15

    def test_odd_moments_vanish(self):
        # [PAPER] odd moments vanish
        rng = np.random.default_rng(4)
        W = random_kernel(rng, 3)
        for order in (1, 3, 5, 7):
            assert trees.qve_moment(order, W) == 0.0

    def test_order0(self):
        # [TRIVIAL] total mass
        rng = np.random.default_rng(5)
        assert trees.qve_moment(0, random_kernel(rng, 2)) == 1.0

    def test_catalan_exact(self):
        W = StepKernel.constant(1.0)
        for k, c in enumerate(trees.CATALAN[:7]):
            assert trees.qve_moment(2 * k, W) == float(c)

    def test_second_moment_is_l1(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            W = random_kernel(rng, 3)
            assert abs(trees.qve_moment(2, W) - kernels.l1_norm(W)) <= 1e-12

    def test_order22_is_catalan11(self):
        # [DERIVED] no order cap: 11 edges exceed tree enumeration
        assert trees.qve_moment(22, StepKernel.constant(1.0)) == 58786.0

    def test_matches_tree_sum(self):
        # dual-route check: recursion vs tree enumeration, k = 1..8 on equal
        # parts plus one unequal partition
        rng = np.random.default_rng(11)
        pools = [trees.enumerate_trees(j) for j in range(9)]
        Ws = [random_kernel(rng, k) for k in range(1, 9)]
        vals = rng.uniform(0.0, 4.0, size=(3, 3))
        Ws.append(StepKernel(Partition([0.1, 0.45, 1.0]), 0.5 * (vals + vals.T)))
        for W in Ws:
            rows = trees.moments_table(W, 16)
            for order, got in rows:
                want = tree_moment(order, W, pools)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                assert trees.qve_moment(order, W) == got

    def test_matches_tree_sum_order20(self):
        # the 16796 trees with 10 edges, the most enumeration allows
        W = random_kernel(np.random.default_rng(12), 2)
        want = tree_moment(20, W, {10: trees.enumerate_trees(10)})
        assert trees.qve_moment(20, W) == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=50, deadline=None)
    @given(vals=kernel_values(), c=st.floats(0.1, 10.0))
    def test_scaling(self, vals, c):
        # [PAPER] W -> cW scales M_2j by c^j
        part = Partition.equal(vals.shape[0])
        base = trees.moments_table(StepKernel(part, vals), 16)
        scaled = trees.moments_table(StepKernel(part, c * vals), 16)
        for (order, m), (_, mc) in zip(base, scaled):
            assert mc == pytest.approx(c ** (order // 2) * m, rel=1e-12, abs=0.0)

    @settings(max_examples=50, deadline=None)
    @given(vals=kernel_values(), data=st.data())
    def test_relabel_invariance(self, vals, data):
        # [PAPER] permuting the parts of an equal partition fixes the measure
        k = vals.shape[0]
        sigma = data.draw(st.permutations(range(k)))
        W = StepKernel(Partition.equal(k), vals)
        base = trees.moments_table(W, 16)
        moved = trees.moments_table(kernels.relabel(W, sigma), 16)
        for (_, m), (_, mr) in zip(base, moved):
            assert mr == pytest.approx(m, rel=1e-12, abs=0.0)


class TestCountingLemma:
    def test_identical_decorations(self):
        # [TRIVIAL] lhs = 0
        rng = np.random.default_rng(7)
        tree = trees.enumerate_trees(3)[2]
        w = [random_kernel(rng, 3) for _ in range(3)]
        rep = trees.counting_lemma_check(tree, w, w)
        assert rep.holds and rep.lhs == 0.0

    def test_single_edge(self):
        # [DERIVED] cut norm dominates the plain integral
        rng = np.random.default_rng(8)
        edge = trees.enumerate_trees(1)[0]
        for _ in range(20):
            w = [random_kernel(rng, 3)]
            wp = [random_kernel(rng, 3)]
            rep = trees.counting_lemma_check(edge, w, wp)
            assert rep.holds
            assert abs(rep.lhs
                       - abs(kernels.l1_norm(w[0]) - kernels.l1_norm(wp[0]))) <= 1e-12

    def test_random_suite(self):
        # [DERIVED] Monte Carlo inequality suite (full run in acceptance)
        rng = np.random.default_rng(9)
        for _ in range(40):
            k_edges = int(rng.integers(1, 5))
            pool = trees.enumerate_trees(k_edges)
            tree = pool[int(rng.integers(0, len(pool)))]
            w = [random_kernel(rng, 3) for _ in range(k_edges)]
            wp = [random_kernel(rng, 3) for _ in range(k_edges)]
            assert trees.counting_lemma_check(tree, w, wp).holds

    def test_partition_mismatch(self):
        edge = trees.enumerate_trees(1)[0]
        w = [StepKernel.constant(1.0, 2)]
        wp = [StepKernel.constant(1.0, 3)]
        with pytest.raises(PartitionMismatch):
            trees.counting_lemma_check(edge, w, wp)


class TestDegreeBound:
    def test_root_only(self):
        # [TRIVIAL] empty product
        rep = trees.degree_bound_check(RootedPlanarTree(()), [])
        assert rep.holds and rep.lhs == rep.rhs == 1.0

    def test_single_edge_constant(self):
        # [TRIVIAL] equality at the constant kernel
        edge = trees.enumerate_trees(1)[0]
        rep = trees.degree_bound_check(edge, [StepKernel.constant(1.0)])
        assert rep.holds and abs(rep.lhs - rep.rhs) <= 1e-12

    def test_random_suite(self):
        # [DERIVED] Monte Carlo inequality suite
        rng = np.random.default_rng(10)
        for _ in range(40):
            k_edges = int(rng.integers(1, 5))
            pool = trees.enumerate_trees(k_edges)
            tree = pool[int(rng.integers(0, len(pool)))]
            w = [random_kernel(rng, 3) for _ in range(k_edges)]
            part = int(rng.integers(0, 3))
            assert trees.degree_bound_check(tree, w, part).holds


class TestMomentsTable:
    def test_rows(self):
        rows = trees.moments_table(StepKernel.constant(1.0), 6)
        assert rows == [(0, 1.0), (1, 0.0), (2, 1.0), (3, 0.0),
                        (4, 2.0), (5, 0.0), (6, 5.0)]

    def test_negative_order(self):
        with pytest.raises(ValueError):
            trees.moments_table(StepKernel.constant(1.0), -1)

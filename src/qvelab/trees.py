"""Rooted planar trees via Dyck words, homomorphism densities, and moments.

Unlabelled rooted planar trees with k edges are in bijection with balanced
Dyck words of length 2k, so enumerating the words enumerates the trees with
no symmetry quotient -- exactly Catalan(k) of them.  Summing tree densities
of a kernel gives the even moments of its QVE measure; odd moments vanish.

That sum is the paper's combinatorial formula and stays here as the oracle
for the moments and for the counting and degree-bound checks; a density is
one stack pass over the Dyck word, edge t being its t-th '1'.  The moments
themselves come from the vector Catalan recursion, which expanding
-1/m = z + S m in 1/z gives with S = V diag(lambda):

    a(0) = 1,  a(j) = sum_{p+q=j-1} a(p) o (S a(q)),  M_2j = lambda . a(j).

a(j) is the rooted density vector summed over all trees with j edges (split
a tree at the root's first child), so for nonnegative kernels no term
cancels, and M_2j costs O(j^2 k) instead of Catalan(j) tree passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExactTooLarge, PartitionMismatch
from .kernels import StepKernel, cut_norm, degree_function
from .report import CheckReport

MAX_EDGES = 10
# rounding slacks of counting_lemma_check and degree_bound_check; constants so
# no call can loosen them
COUNTING_SLACK = 1e-12
DEGREE_SLACK = 1e-12

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


@dataclass(frozen=True)
class RootedPlanarTree:
    """Rooted planar tree encoded by its Dyck word (1 = down an edge, 0 = up)."""

    word: tuple

    def __post_init__(self):
        depth = 0
        for b in self.word:
            if b not in (0, 1):
                raise ValueError("Dyck word bits must be 0/1")
            depth += 1 if b else -1
            if depth < 0:
                raise ValueError("Dyck word has a negative prefix")
        if depth != 0:
            raise ValueError("Dyck word is not balanced")

    @property
    def n_edges(self) -> int:
        return len(self.word) // 2

    def parents(self) -> list:
        """Parent index per vertex (root = 0 with parent -1), DFS order."""
        parent = [-1]
        stack = [0]
        nxt = 1
        for b in self.word:
            if b:
                parent.append(stack[-1])
                stack.append(nxt)
                nxt += 1
            else:
                stack.pop()
        return parent

    def edges(self) -> list:
        """Edges (parent, child) in DFS order; edge t is the t-th '1'."""
        return [(p, v) for v, p in enumerate(self.parents()) if p >= 0]


def enumerate_trees(k: int) -> list:
    """All rooted planar trees with k edges, in lexicographic Dyck order."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > MAX_EDGES:
        raise ExactTooLarge(f"tree enumeration limited to k <= {MAX_EDGES}")
    words = []

    def rec(prefix, opens, closes):
        if opens == k and closes == k:
            words.append(tuple(prefix))
            return
        if opens > closes:
            rec(prefix + [0], opens, closes + 1)
        if opens < k:
            rec(prefix + [1], opens + 1, closes)

    rec([], 0, 0)
    return [RootedPlanarTree(w) for w in words]


def _edge_kernels(tree: RootedPlanarTree, w):
    """Normalize a decoration to (one kernel per edge, part measures).

    A StepKernel decorates every edge with its own partition's measures; a
    list holds one kernel per edge, all sharing a partition.  The root-only
    tree with a list decoration gets the one-part measure [1].
    """
    if isinstance(w, StepKernel):
        return [w] * tree.n_edges, w.partition.part_measures
    kernels = list(w)
    if len(kernels) != tree.n_edges:
        raise PartitionMismatch(f"need {tree.n_edges} edge kernels, "
                                f"got {len(kernels)}")
    if not kernels:
        return kernels, np.ones(1)
    part = kernels[0].partition
    if any(kk.partition != part for kk in kernels):
        raise PartitionMismatch("edge kernels must share a partition")
    return kernels, part.part_measures


def rooted_density_vector(tree: RootedPlanarTree, w) -> np.ndarray:
    """Per-part vector of rooted homomorphism densities, in one stack pass
    over the Dyck word.

    A '1' opens a vertex with the all-ones message and the next edge kernel;
    a '0' closes it and multiplies its parent's message by (V_e * mu) @ f, f
    its own message.  Children close in DFS order, as the products need.
    """
    kernels, mu = _edge_kernels(tree, w)
    edge_kernels = iter(kernels)    # edge t is the t-th '1'
    stack = [(None, np.ones(len(mu)))]     # (edge kernel, message) per open vertex
    for b in tree.word:
        if b:
            stack.append((next(edge_kernels), np.ones(len(mu))))
        else:
            kk, f = stack.pop()
            parent = stack[-1][1]
            parent *= (kk.values * mu[None, :]) @ f
    return stack[0][1]


def rooted_hom_density(tree: RootedPlanarTree, W, part: int) -> float:
    """Rooted density with the root pinned in the given part (t = 1 for the
    single-vertex tree)."""
    return float(rooted_density_vector(tree, W)[part])


def hom_density(tree: RootedPlanarTree, W) -> float:
    """Homomorphism density t(F, W), integrating the rooted density."""
    _, mu = _edge_kernels(tree, W)
    return float(mu @ rooted_density_vector(tree, W))


def _even_moments(W: StepKernel, n: int) -> np.ndarray:
    """M_0, M_2, ..., M_2n of the QVE measure by the vector Catalan recursion;
    DomainError naming the first order whose moment overflows."""
    mu = W.partition.part_measures
    S = W.values * mu[None, :]
    a = np.empty((n + 1, W.k))
    Sa = np.empty((n + 1, W.k))
    a[0] = 1.0
    Sa[0] = S @ a[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n + 1):
            a[j] = (a[:j] * Sa[j - 1::-1]).sum(axis=0)
            Sa[j] = S @ a[j]
        # a row-wise sum, unlike a @ mu, rounds each row the same for every n
        moments = (a * mu).sum(axis=1)
    over = np.flatnonzero(~np.isfinite(moments))
    if over.size:
        raise DomainError(f"moment of order {2 * over[0]} overflows a float")
    return moments


def qve_moment(order: int, W: StepKernel) -> float:
    """Moment of the QVE measure: the tree-density sum, computed by the
    vector Catalan recursion, for even orders; exactly zero for odd orders."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order % 2 == 1:
        return 0.0
    return float(_even_moments(W, order // 2)[-1])


def _max_sup_degree(kernels) -> float:
    """Largest sup-degree over the edge kernels; 0 when there are none."""
    return max((float(degree_function(kk).max()) for kk in kernels), default=0.0)


def counting_lemma_check(tree: RootedPlanarTree, w, w_prime) -> CheckReport:
    """Counting bound for decorated trees, up to COUNTING_SLACK:
    |t(F,w) - t(F,w')| <= M^(e-1) * sum_e ||W_e - W'_e||_box."""
    kernels, _ = _edge_kernels(tree, w)
    kernels_p, _ = _edge_kernels(tree, w_prime)
    if kernels and kernels[0].partition != kernels_p[0].partition:
        raise PartitionMismatch("decorations must share a partition")
    lhs = abs(hom_density(tree, w) - hom_density(tree, w_prime))
    e = tree.n_edges
    M = max(_max_sup_degree(kernels), _max_sup_degree(kernels_p))
    total = sum(cut_norm(a.sub(b)).value for a, b in zip(kernels, kernels_p))
    rhs = (M ** (e - 1) if e > 1 else 1.0) * total
    return CheckReport(lhs, rhs, lhs <= rhs + COUNTING_SLACK, {"M": M, "edges": e})


def degree_bound_check(tree: RootedPlanarTree, w, part: int) -> CheckReport:
    """Rooted densities are bounded by the max sup-degree to the edge count,
    up to DEGREE_SLACK."""
    kernels, _ = _edge_kernels(tree, w)
    lhs = rooted_hom_density(tree, w, part)
    rhs = _max_sup_degree(kernels) ** tree.n_edges
    return CheckReport(lhs, rhs, lhs <= rhs + DEGREE_SLACK, {"edges": tree.n_edges})


def moments_table(W: StepKernel, max_order: int):
    """(order, moment) rows for orders 0..max_order, from one recursion run."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    even = _even_moments(W, max_order // 2)
    return [(o, 0.0 if o % 2 else float(even[o // 2]))
            for o in range(max_order + 1)]

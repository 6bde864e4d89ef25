"""Step kernels on (0,1]: partitions, stepping, cut norm, cut distance, relabelling.

A step kernel is a symmetric function on (0,1]^2 that is constant on products
of partition parts.  All kernel computations in the package run through this
representation; boundaries constructed from graphs are kept as exact rationals
so equal-measure checks never drift.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    AsymmetricInput,
    ExactTooLarge,
    PartMeasureMismatch,
)

_TOL = 1e-12


def _as_boundary(b):
    """Normalize a boundary entry: Fractions stay exact, everything else -> float."""
    if isinstance(b, Fraction):
        return b
    if isinstance(b, int):
        return Fraction(b)
    if isinstance(b, str):
        return Fraction(b)
    return float(b)


@dataclass(frozen=True)
class Partition:
    """Ascending boundaries in (0,1] ending at 1; part i is (b_{i-1}, b_i]."""

    boundaries: tuple

    def __init__(self, boundaries):
        bs = tuple(_as_boundary(b) for b in boundaries)
        if len(bs) == 0:
            raise ValueError("partition needs at least one boundary")
        vals = [float(b) for b in bs]
        # negated comparisons, so that a NaN boundary fails them
        if not all(b2 > b1 for b1, b2 in zip(vals, vals[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if not (vals[0] > 0):
            raise ValueError("boundaries must lie in (0,1]")
        if not abs(vals[-1] - 1.0) <= _TOL:
            raise ValueError("last boundary must equal 1")
        object.__setattr__(self, "boundaries", bs)

    @classmethod
    def equal(cls, k: int) -> "Partition":
        """Equal-measure partition into k parts with exact rational boundaries."""
        return cls(tuple(Fraction(i, k) for i in range(1, k + 1)))

    @property
    def k(self) -> int:
        return len(self.boundaries)

    @functools.cached_property
    def part_measures(self) -> np.ndarray:
        """Lengths of the parts, computed once and shared read-only."""
        vals = np.array([float(b) for b in self.boundaries])
        mu = np.diff(np.concatenate(([0.0], vals)))
        mu.setflags(write=False)
        return mu

    @property
    def is_rational(self) -> bool:
        return all(isinstance(b, Fraction) for b in self.boundaries)

    def is_equal_measure(self) -> bool:
        if self.is_rational:
            prev = Fraction(0)
            lengths = set()
            for b in self.boundaries:
                lengths.add(b - prev)
                prev = b
            return len(lengths) == 1
        mu = self.part_measures
        return bool(np.all(np.abs(mu - mu[0]) <= _TOL))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        if self.k != other.k:
            return False
        a = [float(b) for b in self.boundaries]
        b = [float(x) for x in other.boundaries]
        return all(abs(x - y) <= _TOL for x, y in zip(a, b))

    def __hash__(self):
        # __eq__ compares boundaries within a tolerance, and only k exactly
        return hash(self.k)


@dataclass(frozen=True)
class StepKernel:
    """Symmetric step function on (0,1]^2, nonnegative unless ``signed``.

    ``values[i][j]`` is the constant value on part_i x part_j.  Signed kernels
    arise only as differences W - W' fed to the cut norm.
    """

    partition: Partition
    values: np.ndarray
    signed: bool = field(default=False, compare=False)

    def __init__(self, partition, values, signed=False):
        if not isinstance(partition, Partition):
            partition = Partition(partition)
        v = np.array(values, dtype=float)
        k = partition.k
        if v.shape != (k, k):
            raise ValueError(f"values must be {k}x{k}, got {v.shape}")
        bad = np.argwhere(~np.isfinite(v))
        if bad.size:
            at = tuple(bad[0].tolist())
            raise ValueError(f"kernel value {float(v[at])!r} at {at} "
                             "is not finite")
        if not np.array_equal(v, v.T):
            raise AsymmetricInput("kernel values must be symmetric")
        if not signed and np.any(v < 0):
            raise ValueError("kernel values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "signed", signed)

    @classmethod
    def constant(cls, c: float, k: int = 1) -> "StepKernel":
        return cls(Partition.equal(k), np.full((k, k), float(c)))

    @property
    def k(self) -> int:
        return self.partition.k

    def sub(self, other: "StepKernel") -> "StepKernel":
        """Signed difference self - other on the common refinement."""
        a, b = to_common_partition(self, other)
        return StepKernel(a.partition, a.values - b.values, signed=True)

    def __eq__(self, other):
        if not isinstance(other, StepKernel):
            return NotImplemented
        return self.partition == other.partition and np.array_equal(
            self.values, other.values
        )

    def __hash__(self):
        # + 0.0 maps -0.0, which __eq__ equates with 0.0, to 0.0
        return hash((self.partition, (self.values + 0.0).tobytes()))


# ---------------------------------------------------------------------------
# basic operations


def degree_function(W: StepKernel) -> np.ndarray:
    """Per-part degree d_W(i) = sum_j values[i][j] * measure_j."""
    return W.values @ W.partition.part_measures


def truncate_by_degree(W: StepKernel, C: float) -> StepKernel:
    """Zero rows/columns whose degree exceeds C (same partition)."""
    if C < 0:
        raise ValueError("C must be >= 0")
    keep = (degree_function(W) <= C).astype(float)
    return StepKernel(W.partition, W.values * np.outer(keep, keep), signed=W.signed)


def _overlap_matrix(p_out: Partition, p_in: Partition) -> np.ndarray:
    """O[i, a] = Lebesgue measure of (out part i) & (in part a)."""
    bo = np.concatenate(([0.0], [float(b) for b in p_out.boundaries]))
    bi = np.concatenate(([0.0], [float(b) for b in p_in.boundaries]))
    lo = np.maximum(bo[:-1, None], bi[None, :-1])
    hi = np.minimum(bo[1:, None], bi[None, 1:])
    return np.clip(hi - lo, 0.0, None)


def step_average(W: StepKernel, P: Partition) -> StepKernel:
    """P-stepped kernel: average of W over products of P's parts."""
    O = _overlap_matrix(P, W.partition)
    mu = P.part_measures
    num = O @ W.values @ O.T
    out = num / np.outer(mu, mu)
    out = 0.5 * (out + out.T)
    return StepKernel(P, out, signed=W.signed)


def common_refinement(p1: Partition, p2: Partition) -> Partition:
    """Partition generated by the union of both boundary sets."""
    if p1.is_rational and p2.is_rational:
        merged = sorted(set(p1.boundaries) | set(p2.boundaries))
        return Partition(merged)
    vals = sorted(set(float(b) for b in p1.boundaries)
                  | set(float(b) for b in p2.boundaries))
    out = [vals[0]]
    for v in vals[1:]:
        if v - out[-1] > _TOL:
            out.append(v)
    out[-1] = 1.0
    return Partition(out)


def to_common_partition(W1: StepKernel, W2: StepKernel):
    """Re-express both kernels exactly on the common refinement."""
    if W1.partition == W2.partition:
        return W1, W2
    P = common_refinement(W1.partition, W2.partition)
    return step_average(W1, P), step_average(W2, P)


def relabel(W: StepKernel, sigma) -> StepKernel:
    """Relabelled kernel W^sigma: values[i][j] = W.values[sigma(i)][sigma(j)]."""
    sigma = list(sigma)
    if sorted(sigma) != list(range(W.k)):
        raise ValueError("sigma must be a permutation of the part indices")
    if not W.partition.is_equal_measure():
        raise PartMeasureMismatch("relabelling requires equal part measures")
    return StepKernel(W.partition, W.values[np.ix_(sigma, sigma)], signed=W.signed)


def kernel_from_graph(adjacency, p: float) -> StepKernel:
    """Kernel of an edge-weighted graph: equal n-part partition, values a_ij / p."""
    a = np.array(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.array_equal(a, a.T):
        raise AsymmetricInput("adjacency must be symmetric")
    if np.any(a < 0):
        raise ValueError("adjacency entries must be nonnegative")
    if not (0 < p < 1):
        raise ValueError("p must lie in (0,1)")
    return StepKernel(Partition.equal(a.shape[0]), a / p)


def l1_norm(W: StepKernel) -> float:
    """Integral of |W| over the unit square."""
    mu = W.partition.part_measures
    return float(np.abs(W.values) @ mu @ mu)


# ---------------------------------------------------------------------------
# cut norm and cut distance

MAX_EXACT_CUTNORM = 12
MAX_EXACT_CUTDIST = 8
HEURISTIC_RESTARTS = 20         # random starts of the heuristic cut norm
CUTDIST_BLOCK = 8192            # (permutation, indicator row) pairs per product
CUTDIST_TILE = 4                # indicator rows in the first pruning tile
CUTDIST_INCUMBENTS = 16         # lowest-bound permutations scored for the incumbent
# Relative slack on the incumbent when pruning.  A tile score and the full
# score of one permutation differ from the exact values by rounding only,
# about 1e-15 of the cut norm, so the margin only admits extra survivors;
# the result is always the argmin of full-table scores.
CUTDIST_MARGIN = 1e-9


@dataclass
class CutNorm:
    value: float
    exact: bool
    s: np.ndarray
    t: np.ndarray


@functools.cache
def _indicator_table(k: int) -> np.ndarray:
    """All 2^k 0/1 vectors of length k, row-ordered by bitmask.

    Cached per k and read-only, since every caller shares the one array.
    """
    masks = np.arange(1 << k, dtype=np.int64)
    table = ((masks[:, None] >> np.arange(k)) & 1).astype(float)
    table.flags.writeable = False
    return table


@functools.cache
def _permutation_table(k: int) -> np.ndarray:
    """All k! permutations of range(k) as rows, in itertools.permutations order.

    Cached per k and read-only, since every caller shares the one array.
    """
    table = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    table.flags.writeable = False
    return table


def _weighted_values(W: StepKernel) -> np.ndarray:
    mu = W.partition.part_measures
    return W.values * np.outer(mu, mu)


def _row_scores(R: np.ndarray) -> np.ndarray:
    """max over 0/1 vectors t of |r t|, for each row r = s^T D of R = S @ D.

    The max is attained by taking either all positive or all negative
    coordinates of r, which is the vertex enumeration reduced along one side.
    R may be a stack of products; the last axis is reduced.
    """
    return np.maximum(np.clip(R, 0.0, None).sum(axis=-1),
                      np.clip(-R, 0.0, None).sum(axis=-1))


def _cut_norm_exact(M: np.ndarray):
    """Max over 0/1 vectors s,t of |s^T M t|, with a maximising pair."""
    k = M.shape[0]
    S = _indicator_table(k)
    scores = _row_scores(S @ M)
    best = np.argmax(scores)
    s = S[best].copy()
    r = s @ M
    if np.clip(r, 0.0, None).sum() >= np.clip(-r, 0.0, None).sum():
        t = (r > 0).astype(float)
    else:
        t = (r < 0).astype(float)
    return float(scores[best]), s, t


def _cut_norm_heuristic(M: np.ndarray, rng: np.random.Generator):
    """Randomized greedy local search from HEURISTIC_RESTARTS random starts;
    certified lower bound only."""
    k = M.shape[0]
    best_val, best_s, best_t = 0.0, np.zeros(k), np.zeros(k)
    for _ in range(HEURISTIC_RESTARTS):
        s = (rng.random(k) < 0.5).astype(float)
        t = (rng.random(k) < 0.5).astype(float)
        improved = True
        while improved:
            improved = False
            for vec, other, left in ((s, t, True), (t, s, False)):
                for i in range(k):
                    cur = abs(s @ M @ t)
                    vec[i] = 1.0 - vec[i]
                    if abs(s @ M @ t) > cur + 1e-15:
                        improved = True
                    else:
                        vec[i] = 1.0 - vec[i]
        val = abs(s @ M @ t)
        if val > best_val:
            best_val, best_s, best_t = val, s.copy(), t.copy()
    return float(best_val), best_s, best_t


def cut_norm(W: StepKernel, mode: str = "exact", seed: int = 0) -> CutNorm:
    """Cut norm sup_{S,T} |int_{SxT} W| of a (possibly signed) step kernel.

    Exact mode enumerates part-indicator vertices (k <= 12); heuristic mode
    returns a certified lower bound flagged non-exact.
    """
    M = _weighted_values(W)
    if mode == "exact":
        if W.k > MAX_EXACT_CUTNORM:
            raise ExactTooLarge(
                f"exact cut norm limited to k <= {MAX_EXACT_CUTNORM}, got {W.k}"
            )
        val, s, t = _cut_norm_exact(M)
        return CutNorm(val, True, s, t)
    if mode == "heuristic":
        rng = np.random.default_rng(seed)
        val, s, t = _cut_norm_heuristic(M, rng)
        return CutNorm(val, False, s, t)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class CutDistance:
    value: float
    exact: bool
    permutation: tuple


def _align_equal_parts(W1: StepKernel, W2: StepKernel):
    a, b = to_common_partition(W1, W2)
    if not a.partition.is_equal_measure():
        raise PartMeasureMismatch(
            "cut distance requires a common equal-measure refinement"
        )
    return a, b


def cut_distance(W1: StepKernel, W2: StepKernel) -> CutDistance:
    """min over part permutations sigma of ||W1 - W2^sigma||_box, exact for
    k <= MAX_EXACT_CUTDIST.

    The k! relabelled differences are scored as stacks of at most
    CUTDIST_BLOCK (permutation, indicator row) pairs, with the indicator rows
    taken largest subsets first, and pruned:

    - every permutation is scored on a first tile of CUTDIST_TILE rows, which
      bounds its cut norm from below;
    - the CUTDIST_INCUMBENTS permutations with the smallest bounds are scored
      on the full table, and their minimum U bounds the distance from above;
    - the survivors, whose bound is at most U * (1 + CUTDIST_MARGIN), get the
      full-table product _cut_norm_exact uses, and its rows are scored in
      tiles that double in size; a permutation is dropped as soon as one
      tile scores above U * (1 + CUTDIST_MARGIN).

    A permutation that is never dropped has scored every row of that product,
    so its score is bit-identical to cut_norm(W1 - W2^sigma).  The value is
    the least such score, and the permutation the first minimiser in
    itertools.permutations order, ties included.
    """
    a, b = _align_equal_parts(W1, W2)
    k = a.k
    if k > MAX_EXACT_CUTDIST:
        raise ExactTooLarge(
            f"exact cut distance limited to k <= {MAX_EXACT_CUTDIST}, got {k}"
        )
    mu2 = np.outer(a.partition.part_measures, a.partition.part_measures)
    A, B = a.values, b.values
    P = _permutation_table(k)
    S = _indicator_table(k)
    # rows by decreasing subset size: the large subsets carry the difference
    # of the total masses, so they bound most permutations on the first tile
    order = np.argsort(-S.sum(axis=1), kind="stable")
    edges = ([0] + [CUTDIST_TILE << j for j in range(k)
                    if CUTDIST_TILE << j < len(S)] + [len(S)])

    def diffs(perms):
        p = P[perms]
        return (A - B[p[:, :, None], p[:, None, :]]) * mu2

    def full_scores(perms, cut):
        """Exact cut norm of each permuted difference, scored tile by tile
        on the full-table product; a permutation is left with a partial
        score above cut as soon as one tile exceeds cut."""
        out = np.full(len(perms), -np.inf)
        step = max(1, CUTDIST_BLOCK // len(S))
        for i in range(0, len(perms), step):
            R = S @ diffs(perms[i:i + step])
            best = out[i:i + step]
            live = np.arange(len(R))
            for lo, hi in zip(edges, edges[1:]):
                tile = R[live[:, None], order[lo:hi]]
                best[live] = np.maximum(best[live],
                                        _row_scores(tile).max(axis=-1))
                live = live[best[live] <= cut]
                if not live.size:
                    break
        return out

    first = S[order[:CUTDIST_TILE]]
    step = CUTDIST_BLOCK // max(CUTDIST_TILE, k)
    bound = np.concatenate([
        _row_scores(first @ diffs(slice(i, i + step))).max(axis=-1)
        for i in range(0, len(P), step)])
    few = np.argsort(bound, kind="stable")[:CUTDIST_INCUMBENTS]
    cut = full_scores(few, np.inf).min() * (1.0 + CUTDIST_MARGIN)
    alive = np.flatnonzero(bound <= cut)
    full = full_scores(alive, cut)
    best = int(np.argmin(full))
    return CutDistance(float(full[best]), True,
                       tuple(int(i) for i in P[alive[best]]))


# ---------------------------------------------------------------------------
# upper regularity

MAX_EXACT_REGULARITY = 8  # Bell(8) = 4140 groupings of 8 parts


@dataclass
class RegularityReport:
    passed: bool
    tested_partitions: int
    violation: tuple | None  # (eps, grouping, mass) of the first violation


def _set_partitions(n: int):
    """All set partitions of range(n), as lists of index lists."""
    if n == 0:
        yield []
        return
    for rest in _set_partitions(n - 1):
        elem = n - 1
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [elem]] + rest[i + 1:]
        yield rest + [[elem]]


def _group_average(W: StepKernel, groups):
    """Measure-weighted averages of W over each pair of groups of its parts,
    with the groups' measures."""
    mu = W.partition.part_measures
    sizes = np.array([mu[g].sum() for g in groups])
    block = np.empty((len(groups), len(groups)))
    for i, gi in enumerate(groups):
        for j, gj in enumerate(groups):
            block[i, j] = (mu[gi] @ W.values[np.ix_(gi, gj)] @ mu[gj]) / (
                sizes[i] * sizes[j]
            )
    return block, sizes


def upper_regularity_check(W: StepKernel, eta: float, K,
                           eps_list) -> RegularityReport:
    """Test the upper-regularity mass condition over every partition.

    For each grouping P of the parts (groups of measure >= eta) and each eps,
    checks that the mass of the P-stepped kernel above K[eps] is at most eps.
    The family is exhaustive, so W may have at most MAX_EXACT_REGULARITY parts.
    """
    if not W.partition.is_equal_measure():
        raise PartMeasureMismatch("upper regularity check expects equal parts")
    n = W.k
    if n > MAX_EXACT_REGULARITY:
        raise ExactTooLarge(f"upper regularity check limited to "
                            f"k <= {MAX_EXACT_REGULARITY}, got {n}")
    min_size = max(1, math.ceil(eta * n - 1e-12))
    candidates = [p for p in _set_partitions(n)
                  if all(len(g) >= min_size for g in p)]

    tested = 0
    for groups in candidates:
        block, sizes = _group_average(W, groups)
        wt = np.outer(sizes, sizes)
        tested += 1
        for eps in eps_list:
            mass = float((block * wt)[block > K[eps]].sum())
            if mass > eps + _TOL:
                return RegularityReport(False, tested,
                                        (eps, [list(g) for g in groups], mass))
    return RegularityReport(True, tested, None)


# ---------------------------------------------------------------------------
# serialization


def _boundary_to_json(b):
    if isinstance(b, Fraction):
        return f"{b.numerator}/{b.denominator}"
    return float(b)


def kernel_to_json(W: StepKernel) -> str:
    return json.dumps({
        "boundaries": [_boundary_to_json(b) for b in W.partition.boundaries],
        "values": W.values.tolist(),
    })


def kernel_from_json(text: str) -> StepKernel:
    """Kernel from {"boundaries": [...], "values": [[...]]}; ValueError naming
    the first missing key (StepKernel names a value that is not finite)."""
    data = json.loads(text)
    for key in ("boundaries", "values"):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"kernel JSON has no {key!r} key")
    bounds = [Fraction(b) if isinstance(b, str) else float(b)
              for b in data["boundaries"]]
    return StepKernel(Partition(bounds), data["values"])


def save_kernel(W: StepKernel, path):
    with open(path, "w") as fh:
        fh.write(kernel_to_json(W))
        fh.write("\n")


def load_kernel(path) -> StepKernel:
    with open(path) as fh:
        return kernel_from_json(fh.read())

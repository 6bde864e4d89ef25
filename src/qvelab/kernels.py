"""Step kernels on (0,1]: partitions, stepping, cut norm, cut distance, relabelling.

A step kernel is a symmetric function on (0,1]^2 that is constant on products
of partition parts.  All kernel computations in the package run through this
representation; equal partitions keep exact rational boundaries so
equal-measure checks never drift.
"""

from __future__ import annotations

import functools
import itertools
import json
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
    """Normalize a boundary entry: Fractions stay exact, ints and strings such
    as "1/3" become Fractions, everything else -> float.  A string that
    Fraction rejects ("1/0", "x") raises a ValueError that names it."""
    if isinstance(b, Fraction):
        return b
    if isinstance(b, int):
        return Fraction(b)
    if isinstance(b, str):
        try:
            return Fraction(b)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"partition boundary {b!r} is not a fraction") from exc
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
        """Lengths of the parts, computed once and shared read-only.  Each is
        one rounding of b_i - b_{i-1}: exact for Fraction boundaries, so the
        k parts of Partition.equal(k) all measure float(1/k)."""
        bs = self.boundaries
        mu = np.array([float(b - a) for a, b in zip((0, *bs), bs)])
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
    # halved before the sum, so two finite values cannot overflow it
    out = 0.5 * out + 0.5 * out.T
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


def l1_norm(W: StepKernel) -> float:
    """Integral of |W| over the unit square."""
    mu = W.partition.part_measures
    return float(np.abs(W.values) @ mu @ mu)


# ---------------------------------------------------------------------------
# cut norm and cut distance

MAX_EXACT_CUTNORM = 12
MAX_EXACT_CUTDIST = 8
# (permutation, indicator row) pairs per product.  The first full-table stack
# sets the stopping score, so it is kept small: at k = 6 it holds 32
# permutations, and the bound leaves a median of 42 on random pairs.
CUTDIST_BLOCK = 2048
CUTDIST_TILE = 4                # indicator rows that bound each permutation
# Relative slack on the least full score when stopping.  A bound and the full
# score of one permutation differ from the exact values by rounding only,
# about 1e-15 of the cut norm, so the margin only scores extra stacks; the
# result is always the argmin of full-table scores.
CUTDIST_MARGIN = 1e-9


@dataclass
class CutNorm:
    value: float
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


def cut_norm(W: StepKernel) -> CutNorm:
    """Cut norm sup_{S,T} |int_{SxT} W| of a (possibly signed) step kernel,
    exact by enumerating part-indicator vertices (k <= MAX_EXACT_CUTNORM)."""
    if W.k > MAX_EXACT_CUTNORM:
        raise ExactTooLarge(
            f"exact cut norm limited to k <= {MAX_EXACT_CUTNORM}, got {W.k}"
        )
    val, s, t = _cut_norm_exact(_weighted_values(W))
    return CutNorm(val, s, t)


@dataclass
class CutDistance:
    value: float
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

    The k! relabelled differences are scored in two passes:

    - every permutation is scored on the CUTDIST_TILE largest indicator rows,
      which bounds its cut norm from below;
    - in ascending bound order, stacks of at most CUTDIST_BLOCK (permutation,
      indicator row) pairs are scored on the full-table product
      _cut_norm_exact uses, until a stack's bounds all exceed the least full
      score * (1 + CUTDIST_MARGIN).

    A scored permutation's score is bit-identical to cut_norm(W1 - W2^sigma).
    The value is the least such score, and the permutation the first minimiser
    in itertools.permutations order, ties included.
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

    def diffs(perms):
        p = P[perms]
        return (A - B[p[:, :, None], p[:, None, :]]) * mu2

    # the largest subsets carry the difference of the total masses, so they
    # bound most permutations
    first = S[np.argsort(-S.sum(axis=1), kind="stable")[:CUTDIST_TILE]]
    step = CUTDIST_BLOCK // max(CUTDIST_TILE, k)
    bound = np.concatenate([
        _row_scores(first @ diffs(slice(i, i + step))).max(axis=-1)
        for i in range(0, len(P), step)])
    order = np.argsort(bound, kind="stable")
    full = np.full(len(P), np.inf)
    least = np.inf
    step = CUTDIST_BLOCK // len(S)
    for i in range(0, len(P), step):
        perms = order[i:i + step]
        if bound[perms[0]] > least * (1.0 + CUTDIST_MARGIN):
            break                       # perms[0] has the stack's least bound
        full[perms] = _row_scores(S @ diffs(perms)).max(axis=-1)
        least = min(least, full[perms].min())
    best = int(np.argmin(full))
    return CutDistance(float(full[best]), tuple(int(i) for i in P[best]))


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
    bounds = [b if isinstance(b, str) else float(b) for b in data["boundaries"]]
    return StepKernel(Partition(bounds), data["values"])


def save_kernel(W: StepKernel, path):
    with open(path, "w") as fh:
        fh.write(kernel_to_json(W))
        fh.write("\n")


def load_kernel(path) -> StepKernel:
    with open(path) as fh:
        return kernel_from_json(fh.read())

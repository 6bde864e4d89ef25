"""Sparse Wigner samples, exponential tilting, spectra and resolvent identities.

A sample is kept as the draw of its upper-triangle edges, a stream of row
blocks that the CSV writer and the dense matrix consume as they arrive.  No
step holds a whole-sample array unless a caller reads ``rows``, ``cols`` or
``values``.  Per-entry randomness comes from a counter-based hash of
(seed, i, j, stream), so sampling is order-independent, reproducible, and
parallelizable; identical seeds give bit-identical samples.

The hash applies the finalizer of splitmix64 (Steele, Lea and Flood's
splittable generator) in four stages, one per key.  The sampler walks the
upper triangle in row blocks of at most ROW_BLOCK entries: it hashes the seed
and row stages once per row and the column key once per column, and mixes
each block in place in work arrays reused from block to block.  The
(seed, i, j) stage is shared by both streams: stream 0 decides every entry's
edge, stream 1 only the edges' values.  A block's edges leave the sampler as
(rows, cols, atom), the value being the atom-th value of the entry law, so
the writer formats each atom once.  The output does not depend on the block
size.
"""

from __future__ import annotations

import functools
import re
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricInput,
    DivisibilityError,
    DomainError,
    EigFailure,
    PartMeasureMismatch,
    SolveFailure,
)
from .kernels import StepKernel
from .measures import ProbMeasure1D
from .rates import EntryLaw, cgf_L, h_L_prime

# splitmix64 constants
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INC = np.uint64(0x9E3779B97F4A7C15)
_STREAM_KEYS = (_INC, np.uint64(1) + _INC)   # edge stream 0, value stream 1

# upper-triangle entries the sampler hashes per row block, so also the most
# sample CSV lines written at once; and the lines the CSV reader parses at
# once.  The output does not depend on it; it keeps a block's work arrays
# inside the L2 cache
ROW_BLOCK = 1 << 15

# side of the square tiles over which esm compares M with its transpose
SYMMETRY_TILE = 128


def _mix64(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place on the uint64 array x (tmp: scratch)."""
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= _M1
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= _M2
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp
    return x


def _row_stage(seed: int, i: np.ndarray) -> np.ndarray:
    """The hash of (seed, i) for each uint64 row index in i."""
    h = np.array([seed], dtype=np.uint64) + _INC
    h = _mix64(h, np.empty_like(h))
    h = h ^ (i * _M1 + _INC)
    return _mix64(h, np.empty_like(h))


def _col_key(j: np.ndarray) -> np.ndarray:
    """The key each uint64 column index in j mixes into its row's hash."""
    return j * _M2 + _INC


def _uniform(h: np.ndarray) -> np.ndarray:
    """The top 53 bits of each hash as a float in [0, 1)."""
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@dataclass
class SparseWignerSample:
    """Realized X = (A o Xi) / sqrt(np), kept as the draw of the edges rows <
    cols of Xi: ``draw()`` yields them row block by row block as (rows, cols,
    atom), A being atoms[atom] on each edge.  The samplers return it before
    anything is hashed; ``rows``, ``cols``, ``values`` and the dense
    ``entries`` are made from that stream when first read."""

    n: int
    p: float
    seed: int
    atoms: np.ndarray     # the values A can take, a zero atom included
    draw: Callable[[], Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]]
    _edge_count: int | None = field(default=None, init=False, repr=False)

    def _walk(self):
        """The blocks of ``draw()``; a walk to the end records edge_count."""
        count = 0
        for block in self.draw():
            count += block[0].size
            yield block
        self._edge_count = count

    @functools.cached_property
    def entries(self) -> np.ndarray:  # X, symmetric, zero diagonal
        scaled = self.atoms / np.sqrt(self.n * self.p)
        out = np.zeros((self.n, self.n), order="F")
        for rows, cols, atom in self._walk():
            _fill(out, rows, cols, scaled[atom])
        return out

    @functools.cached_property
    def _edges(self):
        empty = np.zeros(0, dtype=np.intp)
        return [np.concatenate(x) for x in zip((empty, empty, empty), *self._walk())]

    @property
    def rows(self) -> np.ndarray:
        return self._edges[0]

    @property
    def cols(self) -> np.ndarray:
        return self._edges[1]

    @property
    def values(self) -> np.ndarray:   # A on each edge, a zero atom included
        return self.atoms[self._edges[2]]

    @property
    def edge_count(self) -> int:
        """Edges drawn, zero-valued ones included; known without another
        walk once a consumer has walked the sample to its end."""
        if self._edge_count is None:
            for _ in self._walk():
                pass
        return self._edge_count


def _fill(out: np.ndarray, rows, cols, vals):
    """out[rows, cols] = out[cols, rows] = vals in the contiguous square out,
    -0.0 as 0.0 (as out + out.T gives it).

    The sampler and the CSV reader fill X in Fortran order.  X is symmetric,
    so that is the same matrix, and the copy eigvalsh hands to LAPACK is then
    a straight copy instead of a transpose."""
    vals = np.asarray(vals, dtype=float) + 0.0
    flat, n = out.ravel(order="K"), out.shape[0]
    flat[rows * n + cols] = vals
    flat[cols * n + rows] = vals


def _row_blocks(n: int):
    """(r0, r1): the rows of each block of the upper triangle.  A block spans
    the columns r0 + 1 .. n - 1 of its rows and at most ROW_BLOCK entries,
    unless its one row alone is longer."""
    r0 = 0
    while r0 < n - 1:
        r1 = min(r0 + max(1, ROW_BLOCK // (n - 1 - r0)), n - 1)
        yield r0, r1
        r0 = r1


def _draw(n: int, seed: int, block: np.ndarray, p_edge: np.ndarray, probs: np.ndarray):
    """Upper-triangle draw: (i, j) in blocks a = block[i], b = block[j] is an
    edge with probability p_edge[a, b], and its value is atom t with
    probability probs[a, b, t].  Yields (rows, cols, atom) per row block."""
    cum = np.cumsum(probs, axis=-1)
    cum[..., -1] = 1.0
    k = p_edge.shape[0]
    levels = cum.reshape(k * k, -1).T
    # u < p_edge for u = (h >> 11) 2^-53 exactly when (h >> 11) < p_edge 2^53
    edge = p_edge[:, block] * 2.0 ** 53
    index = np.arange(n, dtype=np.uint64)
    row_hash, col_key = _row_stage(seed, index), _col_key(index)
    blocks = list(_row_blocks(n))
    size = max([(r1 - r0) * (n - 1 - r0) for r0, r1 in blocks], default=0)
    work = [np.empty(size, dtype=t) for t in (np.uint64, np.uint64, np.uint64, float, bool)]
    for r0, r1 in blocks:
        shape = (r1 - r0, n - 1 - r0)
        h, u, tmp, level, is_edge = (w[:shape[0] * shape[1]].reshape(shape) for w in work)
        np.bitwise_xor(row_hash[r0:r1, None], col_key[None, r0 + 1:], out=h)
        _mix64(h, tmp)                       # the (seed, i, j) stage of both streams
        np.bitwise_xor(h, _STREAM_KEYS[0], out=u)
        _mix64(u, tmp)
        u >>= np.uint64(11)
        np.take(edge[:, r0 + 1:], block[r0:r1], axis=0, out=level, mode="clip")
        np.less(u, level, out=is_edge)
        # (i, j) with j <= i is no entry
        is_edge[:, :shape[0]] &= ~np.tri(shape[0], k=-1, dtype=bool)
        at = np.flatnonzero(is_edge)
        rows, cols = np.divmod(at, shape[1])
        rows += r0
        cols += r0 + 1
        h = h.ravel().take(at)
        h ^= _STREAM_KEYS[1]
        u_val = _uniform(_mix64(h, tmp.ravel()[:h.size]))
        # count of cum entries <= u, i.e. searchsorted(cum, u, side="right")
        pair = 0 if k == 1 else block[rows] * k + block[cols]
        atom = np.zeros(rows.size, dtype=np.intp)
        for cut in levels:
            atom += u_val >= cut.take(pair)
        yield rows, cols, atom


def _check_inputs(n: int, p: float, seed: int):
    """The sample size, edge probability and seed every sampler accepts: a
    seed is a 64-bit unsigned integer, so no two seeds give one sample."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0,1)")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} does not lie in [0, 2^64)")


def sample_sparse_wigner(n: int, p: float, law: EntryLaw,
                         seed: int) -> SparseWignerSample:
    """Sparse Wigner matrix: Bernoulli(p) mask above the diagonal, i.i.d. law
    entries, normalized by sqrt(np)."""
    _check_inputs(n, p, seed)
    return SparseWignerSample(n, p, seed, law.support, functools.partial(
        _draw, n, seed, np.zeros(n, dtype=int), np.array([[p]]), law.probs[None, None]))


def tilted_sample(n: int, p: float, law: EntryLaw, U: StepKernel,
                  seed: int) -> SparseWignerSample:
    """Sample from the exponentially tilted entry law targeting the kernel U.

    On the block containing (i,j) with value u the joint law of (xi, A) is
    reweighted by exp(theta xi A^2)/Z with theta = h_L'(u) and the exact
    partition function Z = 1 + p L(theta).

    The sample's exact variance profile is E[xi A^2]/p = L'(theta)/Z =
    u/(1 + p L(theta)) on that block, so U is its p -> 0 limit, not the
    profile itself.
    """
    _check_inputs(n, p, seed)
    k = U.k
    if n % k != 0:
        raise DivisibilityError(f"block count {k} must divide n = {n}")
    if not U.partition.is_equal_measure():
        raise PartMeasureMismatch("tilting kernel must have equal part measures")
    if np.any(U.values <= 0):
        raise DomainError("tilting kernel values must be strictly positive")

    theta = h_L_prime(law, U.values)
    L = cgf_L(law, theta)
    p_edge = p * (L + 1.0) / (1.0 + p * L)
    cond = law.probs * np.exp(theta[..., None] * law.support ** 2)
    probs = cond / cond.sum(axis=-1, keepdims=True)
    return SparseWignerSample(n, p, seed, law.support, functools.partial(
        _draw, n, seed, np.arange(n) // (n // k), p_edge, probs))


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, SparseWignerSample):
        return m.entries
    return np.asarray(m, dtype=float)


def _is_symmetric(M: np.ndarray) -> bool:
    """np.allclose(M, M.T, atol=1e-12, rtol=0) for a square M, NaN and +-inf
    included, decided over SYMMETRY_TILE-square tile pairs of the upper
    triangle so that no transposed copy of M is made.  A tile pair that is
    equal entry by entry takes one comparison."""
    n, t = M.shape[0], SYMMETRY_TILE
    with np.errstate(invalid="ignore"):      # inf - inf is nan: not close
        for a in range(0, n, t):
            for b in range(a, n, t):
                x, y = M[a:a + t, b:b + t], M[b:b + t, a:a + t].T
                same = x == y
                if not same.all() and not np.all((np.abs(x - y) <= 1e-12) | same):
                    return False
    return True


def esm(sample_or_matrix) -> ProbMeasure1D:
    """Empirical spectral measure of a symmetric matrix: equal atoms at its
    eigenvalues, in ascending order."""
    M = _as_matrix(sample_or_matrix)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise AsymmetricInput(f"esm requires a square matrix, got shape {M.shape}")
    if not _is_symmetric(M):
        raise AsymmetricInput("esm requires a symmetric matrix")
    try:
        ev = np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    return ProbMeasure1D.from_atoms(ev)


def resolvent(M, z) -> np.ndarray:
    """G(z) = (M - z)^{-1} for Im z > 0."""
    M = _as_matrix(M)
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("resolvent requires Im z > 0")
    try:
        return np.linalg.inv(M - z * np.eye(M.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(str(exc)) from exc


def schur_residual(M, z, i: int) -> float:
    """Defect of the Schur complement formula at row i (exact identity)."""
    M = _as_matrix(M)
    z = complex(z)
    G = resolvent(M, z)
    keep = [k for k in range(M.shape[0]) if k != i]
    minor = M[np.ix_(keep, keep)]
    Gi = resolvent(minor, z)
    row = M[i, keep]
    return float(abs(1.0 / G[i, i] - M[i, i] + z + row @ Gi @ row))


def ward_residual(M, z, j: int) -> float:
    """Defect of the Ward identity sum_k |G_jk|^2 = Im G_jj / Im z."""
    M = _as_matrix(M)
    z = complex(z)
    G = resolvent(M, z)
    return float(abs(np.sum(np.abs(G[j]) ** 2) - G[j, j].imag / z.imag))


# ---------------------------------------------------------------------------
# CSV export


def save_sample_csv(sample: SparseWignerSample, path):
    """Sparse triplet export (i, j, value) of the nonzero upper triangle of X,
    one line per edge in draw order, written block by block as the sampler
    yields them.  Each atom's value and each index is formatted once."""
    scaled = sample.atoms / np.sqrt(sample.n * sample.p)
    written = scaled != 0
    value_text = np.array([f"{v!r}\n" for v in scaled.tolist()], dtype=object)
    index_text = np.array([f"{i}," for i in range(sample.n)], dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write("i,j,value\n")
        for rows, cols, atom in sample._walk():
            if not written.all():           # an edge of value 0 is no line
                keep = np.flatnonzero(written[atom])
                rows, cols, atom = rows[keep], cols[keep], atom[keep]
            lines = index_text[rows] + index_text[cols] + value_text[atom]
            fh.write("".join(lines.tolist()))


def load_sample_csv(path, n: int) -> np.ndarray:
    """Dense X from a triplet CSV; ValueError unless n >= 1 and each line is
    i,j,value with integers 0 <= i < j < n, a finite value and a pair (i, j)
    no other line repeats.

    The file is parsed ROW_BLOCK lines at a time straight into X.  A file
    with several faults is refused for the first of: a line np.loadtxt
    cannot parse, an index out of order or range, the first non-finite
    value, the smallest repeated pair.  The pairs are sorted to find a
    repeat only if the file does not list them in increasing order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.zeros((n, n), order="F")
    keys, bad_index, bad_value, done, increasing = [], False, None, 0, True
    with open(path) as fh, warnings.catch_warnings():
        # a header-only file is an empty sample; blank lines are no rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data")
        fh.readline()
        while True:
            try:
                i, j, v = np.loadtxt(fh, dtype="i8,i8,f8", delimiter=",", ndmin=1,
                                     max_rows=ROW_BLOCK, unpack=True)
            except ValueError as exc:   # loadtxt counts rows from the chunk's start
                raise ValueError(re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + done}",
                                        str(exc), count=1)) from None
            done += i.size
            bad_index = bad_index or bool(np.any((i < 0) | (i >= j) | (j >= n)))
            if not bad_index and bad_value is None:
                bad = np.flatnonzero(~np.isfinite(v))
                if bad.size:
                    b = bad[0]
                    bad_value = (f"{path}: sample CSV value {float(v[b])!r} at "
                                 f"({i[b]}, {j[b]}) is not finite")
            if not bad_index and bad_value is None and i.size:
                key = i * n + j
                increasing = increasing and bool(np.all(key[1:] > key[:-1])) and (
                    not keys or keys[-1][-1] < key[0])
                keys.append(key)
                _fill(out, i, j, v)
            if i.size < ROW_BLOCK:
                break
    if bad_index:
        raise ValueError(f"{path}: sample CSV indices must satisfy 0 <= i < j < {n}")
    if bad_value is not None:
        raise ValueError(bad_value)
    if not increasing:
        key = np.sort(np.concatenate(keys))
        repeat = np.flatnonzero(key[1:] == key[:-1])
        if repeat.size:
            a, b = divmod(int(key[repeat[0]]), n)
            raise ValueError(f"{path}: sample CSV repeats the entry ({a}, {b})")
    return out


def save_eigenvalues_csv(mu: ProbMeasure1D, path):
    """The atoms of an empirical spectral measure, one per line."""
    with open(path, "w", newline="") as fh:
        fh.write("eigenvalue\n" + "".join(f"{v!r}\n" for v in mu.x.tolist()))

"""Sparse Wigner samples, exponential tilting, spectra and resolvent identities.

A sample is stored as upper-triangle edge triplets; its dense matrix is built
on first use.  Per-entry randomness comes from a counter-based hash of
(seed, i, j, stream), so sampling is order-independent, reproducible, and
parallelizable; identical seeds give bit-identical samples.

The hash applies the finalizer of splitmix64 (Steele, Lea and Flood's
splittable generator) in four stages, one per key.  The sampler walks the
upper triangle in row blocks of at most ROW_BLOCK entries: it hashes the seed
and row stages once per row and the column key once per column, and mixes
each block in place in work arrays reused from block to block.  The
(seed, i, j) stage is shared by both streams: stream 0 decides every entry's
edge, stream 1 only the edges' values.  No step makes an array of the whole
triangle, and the output does not depend on the block size.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricInput,
    DivisibilityError,
    DomainError,
    EigFailure,
    PartMeasureMismatch,
    SolveFailure,
)
from .kernels import StepKernel, kernel_from_graph
from .measures import ProbMeasure1D
from .rates import EntryLaw, cgf_L, h_L_prime

# splitmix64 constants
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INC = np.uint64(0x9E3779B97F4A7C15)
_STREAM_KEYS = (_INC, np.uint64(1) + _INC)   # edge stream 0, value stream 1

# upper-triangle entries the sampler hashes per row block; also the sample CSV
# lines built per write.  The output does not depend on it; it keeps a block's
# work arrays inside the L2 cache
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
    h = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64) + _INC
    h = _mix64(h, np.empty_like(h))
    h = h ^ (i * _M1 + _INC)
    return _mix64(h, np.empty_like(h))


def _col_key(j: np.ndarray) -> np.ndarray:
    """The key each uint64 column index in j mixes into its row's hash."""
    return j * _M2 + _INC


def _uniform(h: np.ndarray) -> np.ndarray:
    """The top 53 bits of each hash as a float in [0, 1)."""
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def entry_uniform(seed: int, i: np.ndarray, j: np.ndarray, stream: int) -> np.ndarray:
    """Deterministic uniform in [0,1) attached to the entry (i,j) of a stream."""
    i, j = np.broadcast_arrays(np.asarray(i, dtype=np.uint64),
                               np.asarray(j, dtype=np.uint64))
    h = _row_stage(seed, i.ravel()) ^ _col_key(j.ravel())
    tmp = np.empty_like(h)
    _mix64(h, tmp)
    h ^= np.uint64(stream) + _INC
    return _uniform(_mix64(h, tmp)).reshape(i.shape)


@dataclass
class SparseWignerSample:
    """Realized X = (A o Xi) / sqrt(np), kept as the edges rows < cols of Xi."""

    n: int
    p: float
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray    # A on each edge, a zero atom of the law included
    seed: int

    @functools.cached_property
    def entries(self) -> np.ndarray:  # X, symmetric, zero diagonal
        scale = np.sqrt(self.n * self.p)
        return _dense(self.n, self.rows, self.cols, self.values / scale)

    @property
    def mask(self) -> np.ndarray:  # Xi, symmetric 0/1, zero diagonal
        return _dense(self.n, self.rows, self.cols, np.ones(self.rows.size))

    @property
    def raw(self) -> np.ndarray:  # A restricted to the mask support
        return _dense(self.n, self.rows, self.cols, self.values)

    @property
    def edge_count(self) -> int:
        return int(self.rows.size)


def _dense(n: int, rows, cols, vals) -> np.ndarray:
    out = np.zeros((n, n))
    vals = np.asarray(vals, dtype=float) + 0.0   # -0.0 -> 0.0, as out + out.T gives
    out[rows, cols] = vals
    out[cols, rows] = vals
    return out


def _row_blocks(n: int):
    """(r0, r1): the rows of each block of the upper triangle.  A block spans
    the columns r0 + 1 .. n - 1 of its rows and at most ROW_BLOCK entries,
    unless its one row alone is longer."""
    r0 = 0
    while r0 < n - 1:
        r1 = min(r0 + max(1, ROW_BLOCK // (n - 1 - r0)), n - 1)
        yield r0, r1
        r0 = r1


def _draw(n: int, p: float, seed: int, support: np.ndarray, block: np.ndarray,
          p_edge: np.ndarray, probs: np.ndarray) -> SparseWignerSample:
    """Upper-triangle draw: (i, j) in blocks a = block[i], b = block[j] is an
    edge with probability p_edge[a, b], and its value has law probs[a, b]."""
    cum = np.cumsum(probs, axis=-1)
    cum[..., -1] = 1.0
    k = p_edge.shape[0]
    # u < p_edge for u = (h >> 11) 2^-53 exactly when (h >> 11) < p_edge 2^53
    edge = p_edge[:, block] * 2.0 ** 53
    index = np.arange(n, dtype=np.uint64)
    row_hash, col_key = _row_stage(seed, index), _col_key(index)
    blocks = list(_row_blocks(n))
    size = max([(r1 - r0) * (n - 1 - r0) for r0, r1 in blocks], default=0)
    work = [np.empty(size, dtype=t) for t in (np.uint64, np.uint64, np.uint64, float, bool)]
    rows, cols, stage = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)], [work[0][:0]]
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
        for r in range(1, shape[0]):         # (i, j) with j <= i is no entry
            is_edge[r, :r] = False
        at = np.flatnonzero(is_edge)
        a, c = np.divmod(at, shape[1])
        rows.append(a + r0)
        cols.append(c + (r0 + 1))
        stage.append(h.ravel().take(at))
    rows, cols, h = (np.concatenate(x) for x in (rows, cols, stage))
    h ^= _STREAM_KEYS[1]
    u_val = _uniform(_mix64(h, np.empty_like(h)))
    # count of cum entries <= u, i.e. searchsorted(cum, u, side="right")
    pair = block[rows] * k + block[cols]
    idx = np.zeros(rows.size, dtype=np.intp)
    for level in cum.reshape(k * k, -1).T:
        idx += u_val >= level.take(pair)
    return SparseWignerSample(n, p, rows, cols, support[idx], seed)


def _check_size(n: int, p: float):
    """The sample size and edge probability every sampler accepts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0,1)")


def sample_sparse_wigner(n: int, p: float, law: EntryLaw,
                         seed: int) -> SparseWignerSample:
    """Sparse Wigner matrix: Bernoulli(p) mask above the diagonal, i.i.d. law
    entries, normalized by sqrt(np)."""
    _check_size(n, p)
    return _draw(n, p, seed, law.support, np.zeros(n, dtype=int),
                 np.array([[p]]), law.probs[None, None])


def tilted_sample(n: int, p: float, law: EntryLaw, U: StepKernel,
                  seed: int) -> SparseWignerSample:
    """Sample from the exponentially tilted entry law targeting the kernel U.

    On the block containing (i,j) with value u the joint law of (xi, A) is
    reweighted by exp(theta xi A^2)/Z with theta = h_L'(u) and the exact
    partition function Z = 1 + p L(theta).
    """
    _check_size(n, p)
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
    return _draw(n, p, seed, law.support, np.arange(n) // (n // k), p_edge, probs)


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, SparseWignerSample):
        return m.entries
    return np.asarray(m, dtype=float)


def _is_symmetric(M: np.ndarray) -> bool:
    """np.allclose(M, M.T, atol=1e-12, rtol=0) for a square M, NaN and +-inf
    included, decided over SYMMETRY_TILE-square tile pairs of the upper
    triangle so that no transposed copy of M is made."""
    n, t = M.shape[0], SYMMETRY_TILE
    with np.errstate(invalid="ignore"):      # inf - inf is nan: not close
        for a in range(0, n, t):
            for b in range(a, n, t):
                x, y = M[a:a + t, b:b + t], M[b:b + t, a:a + t].T
                if not np.all((np.abs(x - y) <= 1e-12) | (x == y)):
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


def empirical_kernel(sample: SparseWignerSample) -> StepKernel:
    """Kernel of the realized weighted graph: values xi_ij A_ij^2 / p."""
    return kernel_from_graph(sample.raw ** 2, sample.p)


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
    """Sparse triplet export (i, j, value) of the nonzero upper triangle of X."""
    vals = sample.values / np.sqrt(sample.n * sample.p)
    nz = np.flatnonzero(vals != 0)
    # one repr per distinct value and one "i," per index, joined per block
    distinct, which = np.unique(vals[nz], return_inverse=True)
    value_text = np.array([f"{v!r}\n" for v in distinct.tolist()], dtype=object)
    index_text = np.array([f"{i}," for i in range(sample.n)], dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write("i,j,value\n")
        for start in range(0, nz.size, ROW_BLOCK):
            at = nz[start:start + ROW_BLOCK]
            lines = (index_text[sample.rows[at]] + index_text[sample.cols[at]]
                     + value_text[which[start:start + ROW_BLOCK]])
            fh.write("".join(lines.tolist()))


def load_sample_csv(path, n: int) -> np.ndarray:
    """Dense X from a triplet CSV; ValueError unless n >= 1 and each line is
    i,j,value with integers 0 <= i < j < n, a finite value and a pair (i, j)
    no other line repeats."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with warnings.catch_warnings():  # a header-only file is an empty sample
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        i, j, v = np.loadtxt(path, dtype="i8,i8,f8", delimiter=",", skiprows=1,
                             ndmin=1, unpack=True)
    if np.any((i < 0) | (i >= j) | (j >= n)):
        raise ValueError(f"{path}: sample CSV indices must satisfy 0 <= i < j < {n}")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        b = bad[0]
        raise ValueError(f"{path}: sample CSV value {float(v[b])!r} at "
                         f"({i[b]}, {j[b]}) is not finite")
    key = np.sort(i * n + j)
    repeat = np.flatnonzero(key[1:] == key[:-1])
    if repeat.size:
        a, b = divmod(int(key[repeat[0]]), n)
        raise ValueError(f"{path}: sample CSV repeats the entry ({a}, {b})")
    return _dense(n, i, j, v)


def save_eigenvalues_csv(mu: ProbMeasure1D, path):
    """The atoms of an empirical spectral measure, one per line."""
    with open(path, "w", newline="") as fh:
        fh.write("eigenvalue\n")
        for v in mu.x:
            fh.write(f"{float(v)!r}\n")

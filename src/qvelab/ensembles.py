"""Sparse Wigner samples, exponential tilting, spectra and resolvent identities.

A sample is stored as upper-triangle edge triplets; its dense matrix is built
on first use.  Per-entry randomness comes from a counter-based hash of
(seed, i, j, stream), so sampling is order-independent, reproducible, and
parallelizable; identical seeds give bit-identical samples.
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


def _mix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _M1
        x = (x ^ (x >> np.uint64(27))) * _M2
        return x ^ (x >> np.uint64(31))


def entry_uniform(seed: int, i: np.ndarray, j: np.ndarray, stream: int) -> np.ndarray:
    """Deterministic uniform in [0,1) attached to the entry (i,j) of a stream."""
    with np.errstate(over="ignore"):
        s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        h = _mix64(s + _INC)
        h = _mix64(h ^ (np.asarray(i, dtype=np.uint64) * _M1 + _INC))
        h = _mix64(h ^ (np.asarray(j, dtype=np.uint64) * _M2 + _INC))
        h = _mix64(h ^ (np.uint64(stream) + _INC))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


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
    out[rows, cols] = vals
    return out + out.T


def _draw(n: int, p: float, seed: int, support: np.ndarray, block: np.ndarray,
          p_edge: np.ndarray, probs: np.ndarray) -> SparseWignerSample:
    """Upper-triangle draw: (i, j) in blocks a = block[i], b = block[j] is an
    edge with probability p_edge[a, b], and its value has law probs[a, b]."""
    cum = np.cumsum(probs, axis=-1)
    cum[..., -1] = 1.0
    rows, cols = np.triu_indices(n, k=1)
    keep = np.flatnonzero(entry_uniform(seed, rows, cols, 0)
                          < p_edge[block[rows], block[cols]])
    rows, cols = rows[keep], cols[keep]
    u_val = entry_uniform(seed, rows, cols, 1)
    # count of cum entries <= u, i.e. searchsorted(cum, u, side="right")
    idx = (u_val[:, None] >= cum[block[rows], block[cols]]).sum(1)
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


def esm(sample_or_matrix) -> ProbMeasure1D:
    """Empirical spectral measure of a symmetric matrix: equal atoms at its
    eigenvalues, in ascending order."""
    M = _as_matrix(sample_or_matrix)
    if not np.allclose(M, M.T, atol=1e-12, rtol=0.0):
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
    nz = vals != 0
    text = "".join(f"{i},{j},{v!r}\n" for i, j, v in zip(
        sample.rows[nz].tolist(), sample.cols[nz].tolist(), vals[nz].tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("i,j,value\n" + text)


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

"""Tests for qvelab.ensembles: sampling, tilting, spectra, resolvent identities."""

import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qvelab import ensembles, kernels, rates
from qvelab.errors import (
    AsymmetricInput,
    DivisibilityError,
    DomainError,
    EigFailure,
    PartMeasureMismatch,
)
from qvelab.kernels import Partition, StepKernel
from qvelab.rates import EntryLaw


RADEMACHER = EntryLaw.rademacher()
ZERO_ATOM = EntryLaw([-1.0, 0.0, 2.0], [1 / 3, 1 / 2, 1 / 6])


# -- reference implementations: the whole-triangle sampler, the dense build and
# the per-line CSV writer that the row-block code must reproduce bit for bit

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INC = np.uint64(0x9E3779B97F4A7C15)


def _ref_mix64(x):
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _M1
        x = (x ^ (x >> np.uint64(27))) * _M2
        return x ^ (x >> np.uint64(31))


def _ref_entry_uniform(seed, i, j, stream):
    with np.errstate(over="ignore"):
        s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        h = _ref_mix64(s + _INC)
        h = _ref_mix64(h ^ (np.asarray(i, dtype=np.uint64) * _M1 + _INC))
        h = _ref_mix64(h ^ (np.asarray(j, dtype=np.uint64) * _M2 + _INC))
        h = _ref_mix64(h ^ (np.uint64(stream) + _INC))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _ref_draw(n, p, seed, support, block, p_edge, probs):
    """(rows, cols, values) of the upper triangle drawn entry by entry."""
    cum = np.cumsum(probs, axis=-1)
    cum[..., -1] = 1.0
    rows, cols = np.triu_indices(n, k=1)
    keep = np.flatnonzero(_ref_entry_uniform(seed, rows, cols, 0)
                          < p_edge[block[rows], block[cols]])
    rows, cols = rows[keep], cols[keep]
    u_val = _ref_entry_uniform(seed, rows, cols, 1)
    idx = (u_val[:, None] >= cum[block[rows], block[cols]]).sum(1)
    return rows, cols, support[idx]


def _ref_dense(n, rows, cols, vals):
    out = np.zeros((n, n))
    out[rows, cols] = vals
    return out + out.T


def _ref_save_sample_csv(sample, path):
    vals = sample.values / np.sqrt(sample.n * sample.p)
    nz = vals != 0
    text = "".join(f"{i},{j},{v!r}\n" for i, j, v in zip(
        sample.rows[nz].tolist(), sample.cols[nz].tolist(), vals[nz].tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("i,j,value\n" + text)



class TestSampleSparseWigner:
    def test_symmetric_zero_diagonal(self):
        # [TRIVIAL] construction
        s = ensembles.sample_sparse_wigner(50, 0.2, RADEMACHER, 1)
        assert np.array_equal(s.entries, s.entries.T)
        assert np.array_equal(np.diag(s.entries), np.zeros(50))
        assert np.array_equal(np.diag(s.mask), np.zeros(50))

    def test_edge_count_concentration(self):
        # [DERIVED] binomial concentration, 4 sigma
        n, p = 200, 0.05
        mean = n * (n - 1) / 2 * p
        sigma = math.sqrt(n * (n - 1) / 2 * p * (1 - p))
        for seed in range(5):
            s = ensembles.sample_sparse_wigner(n, p, RADEMACHER, seed)
            assert abs(s.edge_count - mean) <= 4 * sigma

    def test_rademacher_entry_values(self):
        # [DERIVED] nonzero entries are +-1/sqrt(np)
        n, p = 40, 0.3
        s = ensembles.sample_sparse_wigner(n, p, RADEMACHER, 2)
        nz = s.entries[s.entries != 0]
        assert np.allclose(np.abs(nz), 1.0 / math.sqrt(n * p))

    def test_construction_identity(self):
        # invariant: X == (A o Xi) / sqrt(np) exactly
        n, p = 30, 0.4
        s = ensembles.sample_sparse_wigner(n, p, RADEMACHER, 3)
        assert np.array_equal(s.entries, s.raw * s.mask / math.sqrt(n * p))
        assert np.all(np.abs(s.raw[s.mask == 1]) <= RADEMACHER.bound + 1e-15)

    def test_seed_determinism(self):
        a = ensembles.sample_sparse_wigner(60, 0.1, RADEMACHER, 7)
        b = ensembles.sample_sparse_wigner(60, 0.1, RADEMACHER, 7)
        assert np.array_equal(a.entries, b.entries)
        c = ensembles.sample_sparse_wigner(60, 0.1, RADEMACHER, 8)
        assert not np.array_equal(a.entries, c.entries)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ensembles.sample_sparse_wigner(0, 0.5, RADEMACHER, 0)
        with pytest.raises(ValueError):
            ensembles.sample_sparse_wigner(10, 1.0, RADEMACHER, 0)


@st.composite
def sampler_cases(draw):
    """(n, p, seed, U): 2 <= n <= 24, and an equal-block kernel U with k | n."""
    k = draw(st.integers(1, 4))
    n = k * draw(st.integers(2 if k == 1 else 1, 24 // k))
    p = draw(st.floats(0.01, 0.99))
    seed = draw(st.integers(0, 2 ** 64 - 1))
    vals = draw(arrays(float, (k, k), elements=st.floats(0.2, 5.0)))
    U = StepKernel(Partition.equal(k), np.triu(vals) + np.triu(vals, 1).T)
    return n, p, seed, U


def _law_tables(p, U, tilted):
    """Scalar oracle of the law of block pair (a, b): the edge probability
    and the cumulative value law, its last entry forced to 1."""

    def table(a, b):
        p_edge, probs = p, ZERO_ATOM.probs
        if tilted:
            theta = rates.h_L_prime(ZERO_ATOM, float(U.values[a, b]))
            L = rates.cgf_L(ZERO_ATOM, theta)
            p_edge = p * (L + 1.0) / (1.0 + p * L)
            probs = probs * np.exp(theta * ZERO_ATOM.support ** 2)
            probs = probs / probs.sum()
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        return p_edge, cum
    return table


def _draw_case(case, tilted):
    n, p, seed, U = case
    if tilted:
        return ensembles.tilted_sample(n, p, ZERO_ATOM, U, seed)
    return ensembles.sample_sparse_wigner(n, p, ZERO_ATOM, seed)


class TestSamplerProperties:
    """Plain and tilted draws with a law that has a 0 atom."""

    @settings(max_examples=60, deadline=None)
    @given(case=sampler_cases(), tilted=st.booleans(), data=st.data())
    def test_pairs_match_scalar_oracle(self, case, tilted, data):
        # per-pair edge presence and value from the two hash streams
        n, p, seed, U = case
        s = _draw_case(case, tilted)
        edges = dict(zip(zip(s.rows.tolist(), s.cols.tolist()), s.values.tolist()))
        table = _law_tables(p, U, tilted)
        size = n // U.k
        for _ in range(6):
            i = data.draw(st.integers(0, n - 2))
            j = data.draw(st.integers(i + 1, n - 1))
            p_edge, cum = table(i // size, j // size)
            if float(ensembles.entry_uniform(seed, i, j, 0)) < p_edge:
                u = float(ensembles.entry_uniform(seed, i, j, 1))
                value = ZERO_ATOM.support[np.searchsorted(cum, u, "right")]
                assert edges[(i, j)] == value
            else:
                assert (i, j) not in edges

    @settings(max_examples=40, deadline=None)
    @given(case=sampler_cases(), tilted=st.booleans())
    def test_csv_round_trip_and_zero_valued_edges(self, case, tilted):
        s = _draw_case(case, tilted)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sample.csv")
            ensembles.save_sample_csv(s, path)
            back = ensembles.load_sample_csv(path, s.n)
            with open(path) as fh:
                written = len(fh.read().splitlines()) - 1
        assert back.tobytes() == s.entries.tobytes()
        # the CSV omits zero-valued edges; edge_count keeps them
        assert s.edge_count == written + int(np.count_nonzero(s.values == 0))
        assert s.edge_count == int(np.triu(s.mask, 1).sum())


BIT_IDENTITY_CASES = [(n, k) for n in (1, 2, 3, 129, 1000)
                      for k in (None, 1, 2, 5) if k is None or n % k == 0]


class TestRowBlockBitIdentity:
    """The row-block sampler, the two-triangle dense build and the block CSV
    writer against the reference implementations above."""

    @pytest.mark.parametrize("n, k", BIT_IDENTITY_CASES)
    @pytest.mark.parametrize("p", [0.01, 0.5, 0.99])
    def test_draw_matches_whole_triangle_reference(self, monkeypatch, n, k, p):
        # k None: a plain draw; else a tilt towards a k-block kernel.  The
        # reference draws from the tables the sampler passed to _draw
        tables, real, default = [], ensembles._draw, ensembles.ROW_BLOCK
        monkeypatch.setattr(ensembles, "_draw",
                            lambda *args: tables.append(args) or real(*args))
        rng = np.random.default_rng(n + (k or 0))
        for seed in (0, 2 ** 64 - 1):
            if k is None:
                draw = lambda: ensembles.sample_sparse_wigner(n, p, ZERO_ATOM, seed)
            else:
                vals = rng.uniform(0.2, 5.0, (k, k))
                U = StepKernel(Partition.equal(k), np.triu(vals) + np.triu(vals, 1).T)
                draw = lambda: ensembles.tilted_sample(n, p, ZERO_ATOM, U, seed)
            draw()
            rows, cols, values = _ref_draw(*tables[-1])
            for row_block in (1, 7, n * n, default):
                monkeypatch.setattr(ensembles, "ROW_BLOCK", row_block)
                s = draw()
                assert s.rows.dtype == rows.dtype and s.cols.dtype == cols.dtype
                assert np.array_equal(s.rows, rows)
                assert np.array_equal(s.cols, cols)
                assert s.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("seed", [0, 123, 2 ** 64 - 1])
    def test_entry_uniform_matches_reference(self, seed):
        i = np.arange(0, 2000, dtype=np.uint64)
        j = np.arange(1, 2001, dtype=np.uint64)[::-1]
        for stream in (0, 1):
            assert np.array_equal(ensembles.entry_uniform(seed, i, j, stream),
                                  _ref_entry_uniform(seed, i, j, stream))
            assert (float(ensembles.entry_uniform(seed, 3, 5, stream))
                    == float(_ref_entry_uniform(seed, 3, 5, stream)))

    @pytest.mark.parametrize("tilted", [False, True])
    def test_dense_matches_reference(self, tilted):
        n, p = 60, 0.3
        if tilted:
            U = StepKernel(Partition.equal(2), [[4.0, 1.0], [1.0, 0.5]])
            s = ensembles.tilted_sample(n, p, ZERO_ATOM, U, 11)
        else:
            s = ensembles.sample_sparse_wigner(n, p, ZERO_ATOM, 11)
        scale = np.sqrt(n * p)
        assert s.entries.tobytes() == _ref_dense(n, s.rows, s.cols, s.values / scale).tobytes()
        assert s.raw.tobytes() == _ref_dense(n, s.rows, s.cols, s.values).tobytes()
        assert s.mask.tobytes() == _ref_dense(n, s.rows, s.cols, np.ones(s.rows.size)).tobytes()

    def test_dense_maps_negative_zero_like_the_sum(self):
        rows, cols = np.array([0, 0, 1]), np.array([1, 2, 2])
        vals = np.array([-0.0, math.nan, -1.5])
        got = ensembles._dense(3, rows, cols, vals)
        assert got.tobytes() == _ref_dense(3, rows, cols, vals).tobytes()
        assert not np.signbit(got[0, 1]) and not np.signbit(got[1, 0])

    @pytest.mark.parametrize("n, p", [(1, 0.5), (2, 0.99), (129, 0.5), (1000, 0.01)])
    def test_sample_csv_matches_reference(self, monkeypatch, tmp_path, n, p):
        s = ensembles.sample_sparse_wigner(n, p, ZERO_ATOM, 5)
        _ref_save_sample_csv(s, tmp_path / "ref.csv")
        want = (tmp_path / "ref.csv").read_bytes()
        for row_block in (1, 7, n * n, ensembles.ROW_BLOCK):
            monkeypatch.setattr(ensembles, "ROW_BLOCK", row_block)
            ensembles.save_sample_csv(s, tmp_path / "got.csv")
            assert (tmp_path / "got.csv").read_bytes() == want

    def test_sample_csv_special_values_match_reference(self, tmp_path):
        # -0.0 is a zero and is left out, as the reference's vals != 0 does
        s = ensembles.SparseWignerSample(
            4, 0.5, np.array([0, 0, 1, 1, 2]), np.array([1, 2, 2, 3, 3]),
            np.array([-0.0, 0.5, math.nan, -1e-300, 0.5]), 0)
        _ref_save_sample_csv(s, tmp_path / "ref.csv")
        ensembles.save_sample_csv(s, tmp_path / "got.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert b"0,1," not in got


class TestEsm:
    def test_zero_matrix(self):
        # [TRIVIAL] delta_0
        e = ensembles.esm(np.zeros((4, 4)))
        assert np.array_equal(e.x, np.zeros(4))

    def test_diagonal(self):
        # [TRIVIAL]
        e = ensembles.esm(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(e.x, [1.0, 2.0, 3.0])

    def test_two_by_two(self):
        # [DERIVED] characteristic polynomial
        e = ensembles.esm(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(e.x, [-1.0, 1.0])

    def test_measure_weights(self):
        mu = ensembles.esm(np.diag([1.0, 1.0, 5.0]))
        assert abs(mu.w.sum() - 1.0) <= 1e-12
        assert mu.x.size == 3

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricInput):
            ensembles.esm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("case, symmetric", [
        ("exact", True), ("within 1e-12", True), ("1e-9 apart", False),
        ("nan entry", False), ("symmetric inf", True)])
    def test_symmetry_decision_is_allclose(self, case, symmetric):
        # esm accepts exactly what np.allclose(M, M.T) with atol 1e-12
        # accepts, NaN and +-inf included
        rng = np.random.default_rng(5)
        M = rng.uniform(-1.0, 1.0, (4, 4))
        M = M + M.T
        if case == "within 1e-12":
            M[0, 1] += 5e-13
        elif case == "1e-9 apart":
            M[0, 1] += 1e-9
        elif case == "nan entry":
            M[0, 1] = M[1, 0] = math.nan
        elif case == "symmetric inf":
            M[0, 1] = M[1, 0] = math.inf
            M[2, 2] = -math.inf
        assert np.allclose(M, M.T, atol=1e-12, rtol=0.0) == symmetric
        try:
            ensembles.esm(M)
            rejected = False
        except AsymmetricInput:
            rejected = True
        except EigFailure:   # accepted as symmetric; LAPACK fails on inf
            rejected = False
        assert rejected == (not symmetric)

    @pytest.mark.parametrize("shape", [(1, 3), (3,), (2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(AsymmetricInput, match="square") as exc:
            ensembles.esm(np.zeros(shape))
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_tiled_symmetry_decision_is_allclose(self, n):
        # the tile-pair check decides as np.allclose(M, M.T, atol 1e-12) at
        # tile edges, in the last tile and on NaN and +-inf, and warns never
        rng = np.random.default_rng(n)
        M = rng.uniform(-1.0, 1.0, (n, n))
        M = M + M.T
        cases = []
        # an off-diagonal tile, and the last tile off and on its diagonal
        for i, j in [(0, n - 1), (n - 1, max(n - 2, 0)), (n - 1, n - 1)]:
            for a, b, symmetric in [(M[j, i] + 1e-13, M[j, i], True),
                                    (M[j, i] + 1e-9, M[j, i], i == j),
                                    (math.nan, math.nan, False),
                                    (math.inf, math.inf, True),
                                    (-math.inf, -math.inf, True),
                                    (math.inf, -math.inf, i == j)]:
                X = M.copy()
                X[j, i], X[i, j] = b, a
                cases.append((X, symmetric))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for X, symmetric in cases:
                assert ensembles._is_symmetric(X) == symmetric
                assert ensembles._is_symmetric(X) == np.allclose(X, X.T, atol=1e-12, rtol=0.0)


class TestEmpiricalKernel:
    def test_zero_mask(self):
        # [TRIVIAL]
        none = np.zeros(0, dtype=int)
        s = ensembles.SparseWignerSample(3, 0.5, none, none, np.zeros(0), 0)
        W = ensembles.empirical_kernel(s)
        assert np.array_equal(W.values, np.zeros((3, 3)))

    def test_rademacher_values(self):
        # [DERIVED] A^2 = 1 on edges so values in {0, 1/p}
        p = 0.25
        s = ensembles.sample_sparse_wigner(24, p, RADEMACHER, 4)
        W = ensembles.empirical_kernel(s)
        assert set(np.round(np.unique(W.values), 12)) <= {0.0, round(1 / p, 12)}

    def test_l1_counting_identity(self):
        # [DERIVED] l1 * p * n^2 == 2 * edges for Rademacher
        p, n = 0.2, 50
        s = ensembles.sample_sparse_wigner(n, p, RADEMACHER, 5)
        W = ensembles.empirical_kernel(s)
        assert abs(kernels.l1_norm(W) * p * n ** 2
                   - 2.0 * s.edge_count) <= 1e-8


class TestTiltedSample:
    def test_unit_kernel_reproduces_plain_sampling(self):
        # [TRIVIAL] zero tilt: theta = 0, bit-identical by shared streams
        for seed in (0, 1, 17):
            plain = ensembles.sample_sparse_wigner(48, 0.2, RADEMACHER, seed)
            tilted = ensembles.tilted_sample(48, 0.2, RADEMACHER,
                                             StepKernel.constant(1.0, 2), seed)
            assert np.array_equal(plain.entries, tilted.entries)
            assert np.array_equal(plain.mask, tilted.mask)

    def test_rademacher_tilted_edge_probability(self):
        # [DERIVED] theta = ln u, Z = 1 + p(u - 1), edge prob pu/(1+p(u-1))
        n, p, u = 600, 0.1, 3.0
        U = StepKernel.constant(u, 1)
        count = 0
        trials = 5
        for seed in range(trials):
            s = ensembles.tilted_sample(n, p, RADEMACHER, U, seed)
            count += s.edge_count
        total = trials * n * (n - 1) / 2
        p_edge = p * u / (1.0 + p * (u - 1.0))
        sigma = math.sqrt(total * p_edge * (1 - p_edge))
        assert abs(count - total * p_edge) <= 4 * sigma

    def test_block_structure(self):
        # different blocks get different tilts; each block's edge frequency
        # follows its own p_edge
        n, p = 400, 0.1
        U = StepKernel(Partition.equal(2), [[4.0, 1.0], [1.0, 4.0]])
        s = ensembles.tilted_sample(n, p, RADEMACHER, U, 0)
        half = n // 2
        diag_edges = (np.triu(s.mask[:half, :half], 1).sum()
                      + np.triu(s.mask[half:, half:], 1).sum())
        off_edges = s.mask[:half, half:].sum()
        n_diag = 2 * half * (half - 1) / 2
        n_off = half * half
        p4 = p * 4.0 / (1.0 + p * 3.0)
        p1 = p
        assert abs(diag_edges / n_diag - p4) <= 4 * math.sqrt(p4 / n_diag)
        assert abs(off_edges / n_off - p1) <= 4 * math.sqrt(p1 / n_off)

    def test_divisibility_error(self):
        with pytest.raises(DivisibilityError):
            ensembles.tilted_sample(10, 0.2, RADEMACHER,
                                    StepKernel.constant(2.0, 3), 0)

    def test_unequal_parts_error(self):
        U = StepKernel(Partition([0.3, 1.0]), [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(PartMeasureMismatch):
            ensembles.tilted_sample(10, 0.2, RADEMACHER, U, 0)

    def test_positivity_error(self):
        U = StepKernel(Partition.equal(2), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            ensembles.tilted_sample(10, 0.2, RADEMACHER, U, 0)

    def test_empty_size_rejected_like_plain_sampling(self):
        with pytest.raises(ValueError) as plain:
            ensembles.sample_sparse_wigner(0, 0.2, RADEMACHER, 0)
        with pytest.raises(ValueError) as tilted:
            ensembles.tilted_sample(0, 0.2, RADEMACHER, StepKernel.constant(2.0), 0)
        assert str(tilted.value) == str(plain.value) == "n must be >= 1"


class TestResolvent:
    def test_zero_matrix(self):
        # [DERIVED] G = i * I at z = i
        G = ensembles.resolvent(np.zeros((3, 3)), 1j)
        assert np.allclose(G, 1j * np.eye(3))

    def test_trace_is_stieltjes(self):
        # [TRIVIAL] spectral identity
        rng = np.random.default_rng(0)
        M = rng.standard_normal((20, 20))
        M = (M + M.T) / math.sqrt(40)
        z = 0.7 + 1.5j
        G = ensembles.resolvent(M, z)
        m_esm = ensembles.esm(M).stieltjes(z)
        assert abs(np.trace(G) / 20 - m_esm) <= 1e-10

    def test_norm_bound(self):
        # [TRIVIAL] normal-matrix bound
        rng = np.random.default_rng(1)
        for _ in range(10):
            M = rng.standard_normal((15, 15))
            M = M + M.T
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 3.0))
            G = ensembles.resolvent(M, z)
            assert np.linalg.norm(G, 2) <= 1.0 / z.imag + 1e-10

    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            ensembles.resolvent(np.zeros((2, 2)), 1.0 - 1j)


class TestSchurWard:
    def test_schur_random_small(self):
        # [DERIVED] dense linear-algebra oracle
        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 5))
        M = (M + M.T) / 2
        assert ensembles.schur_residual(M, 2j, 0) < 1e-10

    def test_schur_diagonal(self):
        # [TRIVIAL] off-diagonal sums vanish
        M = np.diag([1.0, -2.0, 0.5])
        for i in range(3):
            assert ensembles.schur_residual(M, 1.5j, i) < 1e-12

    def test_schur_sparse_wigner(self):
        # [DERIVED] identity at scale
        s = ensembles.sample_sparse_wigner(50, 0.2, RADEMACHER, 6)
        assert ensembles.schur_residual(s.entries, 3j, 10) < 1e-9

    def test_ward_zero_matrix(self):
        # [DERIVED] G = i I: row sum 1, Im G / Im z = 1
        assert ensembles.ward_residual(np.zeros((4, 4)), 1j, 2) < 1e-14

    def test_ward_random(self):
        # [DERIVED] identity check
        rng = np.random.default_rng(3)
        M = rng.standard_normal((50, 50))
        M = (M + M.T) / math.sqrt(100)
        assert ensembles.ward_residual(M, 1.2 + 0.8j, 7) < 1e-10

    def test_ward_diagonal(self):
        # [TRIVIAL]
        M = np.diag(np.arange(5, dtype=float))
        for j in range(5):
            assert ensembles.ward_residual(M, 2j, j) < 1e-12


class TestEntryUniform:
    def test_deterministic_and_uniform(self):
        i = np.arange(0, 2000, dtype=np.uint64)
        j = np.arange(1, 2001, dtype=np.uint64)
        u1 = ensembles.entry_uniform(123, i, j, 0)
        u2 = ensembles.entry_uniform(123, i, j, 0)
        assert np.array_equal(u1, u2)
        assert 0.0 <= u1.min() and u1.max() < 1.0
        assert abs(u1.mean() - 0.5) < 0.05

    def test_streams_independent(self):
        i = np.arange(0, 1000, dtype=np.uint64)
        j = np.zeros(1000, dtype=np.uint64)
        a = ensembles.entry_uniform(0, i, j, 0)
        b = ensembles.entry_uniform(0, i, j, 1)
        assert not np.array_equal(a, b)


class TestCsvIo:
    def test_sample_round_trip(self, tmp_path):
        s = ensembles.sample_sparse_wigner(25, 0.3, RADEMACHER, 9)
        path = tmp_path / "sample.csv"
        ensembles.save_sample_csv(s, path)
        back = ensembles.load_sample_csv(path, 25)
        assert np.array_equal(back, s.entries)

    @pytest.mark.parametrize("line", ["-1,3,0.5", "2,2,0.5", "4,3,0.5", "0,9,0.5",
                                      "0,1", "0,1,0.5,7", "0.5,1,0.5"])
    def test_malformed_triplet_rejected(self, tmp_path, line):
        path = tmp_path / "bad.csv"
        path.write_text(f"i,j,value\n0,1,0.25\n{line}\n")
        with pytest.raises(ValueError):
            ensembles.load_sample_csv(path, 9)

    def test_repeated_pair_rejected(self, tmp_path):
        # save_sample_csv writes each pair once; a repeat must not silently
        # overwrite the earlier value
        path = tmp_path / "bad.csv"
        path.write_text("i,j,value\n0,1,0.5\n2,3,0.1\n0,1,0.25\n")
        with pytest.raises(ValueError, match=r"repeats the entry \(0, 1\)"):
            ensembles.load_sample_csv(path, 4)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"i,j,value\n0,1,0.5\n1,2,{value}\n")
        with pytest.raises(ValueError, match=r"at \(1, 2\) is not finite"):
            ensembles.load_sample_csv(path, 4)

    def test_eigenvalue_export(self, tmp_path):
        e = ensembles.esm(np.diag([1.0, 2.0]))
        path = tmp_path / "eig.csv"
        ensembles.save_eigenvalues_csv(e, path)
        vals = np.loadtxt(path, skiprows=1)
        assert np.array_equal(vals, [1.0, 2.0])

"""Tests for qvelab.rates: cumulant function, Legendre conjugate, entropy, K_alpha."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from qvelab import kernels, rates
from qvelab.errors import DomainError
from qvelab.kernels import Partition, StepKernel
from qvelab.rates import EntryLaw


SPREAD_LAW = EntryLaw([-math.sqrt(2.0), 0.0, math.sqrt(2.0)],
                      [0.25, 0.5, 0.25])


def rademacher_h(u):
    """Closed-form conjugate for the Rademacher law: u ln u - u + 1."""
    if u == 0:
        return 1.0
    return u * math.log(u) - u + 1.0


class TestEntryLaw:
    def test_rademacher(self):
        law = EntryLaw.rademacher()
        assert law.bound == 1.0
        assert np.array_equal(law.support, [-1.0, 1.0])

    def test_moment_validation(self):
        with pytest.raises(ValueError):
            EntryLaw([0.0, 1.0], [0.5, 0.5])       # nonzero mean
        with pytest.raises(ValueError):
            EntryLaw([-2.0, 2.0], [0.5, 0.5])      # variance 4
        with pytest.raises(ValueError):
            EntryLaw([-1.0, 1.0], [0.4, 0.4])      # mass 0.8

    def test_equal_laws_hash_alike(self):
        a, b = EntryLaw.rademacher(), EntryLaw.rademacher()
        assert a == b and hash(a) == hash(b)
        assert {a: "law"}[b] == "law"

    def test_equality_is_by_sorted_value(self):
        s = math.sqrt(2.0)
        shuffled = EntryLaw([s, -s, 0.0], [0.25, 0.25, 0.5])
        assert shuffled == SPREAD_LAW and hash(shuffled) == hash(SPREAD_LAW)
        signed_zero = EntryLaw([-s, -0.0, s], [0.25, 0.5, 0.25])
        assert signed_zero == SPREAD_LAW and hash(signed_zero) == hash(SPREAD_LAW)
        assert SPREAD_LAW != EntryLaw.rademacher()

    def test_repeated_points_merge(self):
        # [TRIVIAL] one law, three representations
        split = EntryLaw([-1.0, 1.0, 1.0], [0.5, 0.2, 0.3])
        swapped = EntryLaw([-1.0, 1.0, 1.0], [0.5, 0.3, 0.2])
        law = EntryLaw.rademacher()
        assert split == swapped == law
        assert hash(split) == hash(swapped) == hash(law)
        assert np.array_equal(split.support, [-1.0, 1.0])
        assert (rates.legendre_h_L(split, 2.0) == rates.legendre_h_L(swapped, 2.0)
                == rates.legendre_h_L(law, 2.0))
        s = math.sqrt(2.0)
        zeros = EntryLaw([-s, -0.0, 0.0, s], [0.25, 0.3, 0.2, 0.25])
        assert zeros == SPREAD_LAW and hash(zeros) == hash(SPREAD_LAW)

    def test_json_round_trip(self):
        law = SPREAD_LAW
        back = EntryLaw.from_json(law.to_json())
        assert np.array_equal(back.support, law.support)
        assert np.array_equal(back.probs, law.probs)


class TestCgfL:
    def test_rademacher_zero(self):
        # [TRIVIAL]
        assert rates.cgf_L(EntryLaw.rademacher(), 0.0) == 0.0

    def test_rademacher_one(self):
        # [DERIVED] A^2 = 1 so L(theta) = e^theta - 1
        law = EntryLaw.rademacher()
        assert abs(rates.cgf_L(law, 1.0) - (math.e - 1.0)) <= 1e-12

    def test_spread_law(self):
        # [DERIVED] direct sum: (e^2 - 1) / 2
        law = SPREAD_LAW
        assert abs(rates.cgf_L(law, 1.0) - (math.e ** 2 - 1.0) / 2.0) <= 1e-12

    def test_derivative_at_zero_is_variance(self):
        for law in (EntryLaw.rademacher(), SPREAD_LAW):
            assert abs(rates.cgf_L_prime(law, 0.0) - 1.0) <= 1e-12


class TestLegendreHL:
    def test_u1_any_law(self):
        # [PAPER] h_L vanishes only at 1
        for law in (EntryLaw.rademacher(), SPREAD_LAW):
            assert abs(rates.legendre_h_L(law, 1.0)) <= 1e-12

    def test_rademacher_u2(self):
        # [DERIVED] closed form u ln u - u + 1
        law = EntryLaw.rademacher()
        assert abs(rates.legendre_h_L(law, 2.0)
                   - (2.0 * math.log(2.0) - 1.0)) <= 1e-12

    def test_u0(self):
        # [DERIVED] h_L(0) = sup_theta -L(theta) = 1 - P(A = 0): -L decreases
        # in theta, and E exp(theta A^2) -> P(A = 0) as theta -> -inf.  The
        # Rademacher law has no atom at 0, SPREAD_LAW has mass 1/2 there.
        assert rates.legendre_h_L(EntryLaw.rademacher(), 0.0) == 1.0
        assert rates.legendre_h_L(SPREAD_LAW, 0.0) == 0.5

    @pytest.mark.parametrize("law", [
        EntryLaw.rademacher(),
        EntryLaw([-2.0, 0.5], [0.2, 0.8]),
        SPREAD_LAW,
        EntryLaw([-math.sqrt(3.0), 0.0, math.sqrt(3.0)], [1 / 6, 2 / 3, 1 / 6]),
        EntryLaw([-1.0, 0.0, 2.0], [1 / 3, 1 / 2, 1 / 6]),
    ])
    def test_u0_is_the_limit_from_above(self, law):
        # h_L is continuous from the right at 0, with or without an atom at
        # 0, and the rate table reads the same value at u = 0
        h0 = rates.legendre_h_L(law, 0.0)
        assert abs(h0 - rates.legendre_h_L(law, 1e-300)) <= 1e-12
        assert rates.rate_table(law, [0.0]) == [(0.0, h0)]

    def test_negative_is_infinite(self):
        assert rates.legendre_h_L(EntryLaw.rademacher(), -0.5) == math.inf

    def test_rademacher_closed_form_grid(self):
        # invariant: matches u ln u - u + 1 within 1e-9 on [0.01, 50]
        law = EntryLaw.rademacher()
        for u in np.linspace(0.01, 50.0, 500):
            assert abs(rates.legendre_h_L(law, float(u))
                       - rademacher_h(float(u))) <= 1e-9

    def test_fenchel_young(self):
        # theta * u <= L(theta) + h_L(u), equality at u = L'(theta)
        rng = np.random.default_rng(0)
        for law in (EntryLaw.rademacher(), SPREAD_LAW):
            for _ in range(50):
                theta = float(rng.uniform(-3.0, 2.0))
                u = float(rng.uniform(0.01, 10.0))
                lhs = theta * u
                rhs = rates.cgf_L(law, theta) + rates.legendre_h_L(law, u)
                assert lhs <= rhs + 1e-10
                u_star = rates.cgf_L_prime(law, theta)
                gap = (rates.cgf_L(law, theta)
                       + rates.legendre_h_L(law, u_star) - theta * u_star)
                assert abs(gap) <= 1e-9

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(1)
        law = SPREAD_LAW
        for _ in range(50):
            a, b = sorted(rng.uniform(0.01, 20.0, 2))
            mid = 0.5 * (a + b)
            assert (rates.legendre_h_L(law, mid)
                    <= 0.5 * rates.legendre_h_L(law, a)
                    + 0.5 * rates.legendre_h_L(law, b) + 1e-10)

    def test_psi_nondecreasing(self):
        # h_L(u)/u nondecreasing for u >= 1
        law = EntryLaw.rademacher()
        us = np.linspace(1.0, 30.0, 100)
        psi = [rates.legendre_h_L(law, float(u)) / u for u in us]
        assert all(b >= a - 1e-12 for a, b in zip(psi, psi[1:]))

    def test_memo_bit_identical(self):
        law_a = EntryLaw(SPREAD_LAW.support, SPREAD_LAW.probs)
        law_b = EntryLaw(SPREAD_LAW.support, SPREAD_LAW.probs)
        for u in (0.3, 2.7, 11.0):
            first = rates.legendre_h_L(law_a, u)
            again = rates.legendre_h_L(law_a, u)   # the same law once more
            fresh = rates.legendre_h_L(law_b, u)   # an equal law built anew
            assert first == again == fresh

    def test_h_L_prime_inverts_L_prime(self):
        law = SPREAD_LAW
        us = (0.05, 0.8, 1.0, 3.0, 40.0)
        for u in us:
            theta = rates.h_L_prime(law, u)
            assert type(theta) is float
            assert abs(rates.cgf_L_prime(law, theta) - u) <= 1e-9 * max(1.0, u)
        # an array of u gives its thetas in its shape, with the same bits
        grid = np.array([us, us[::-1]])
        thetas = rates.h_L_prime(law, grid)
        assert thetas.shape == grid.shape
        assert thetas.tolist() == [[rates.h_L_prime(law, u) for u in row]
                                   for row in grid.tolist()]

    def test_h_L_prime_rejects_non_finite(self):
        law = SPREAD_LAW
        for u in (math.nan, math.inf, np.array([1.0, math.nan])):
            with pytest.raises(DomainError):
                rates.h_L_prime(law, u)


class TestHLPrimeBisection:
    """u values where Newton misses and the bisection fallback decides."""

    @staticmethod
    def _solve_counting(monkeypatch, law, u):
        # Newton evaluates L' at most 101 times (100 steps and a final
        # check); more evaluations mean the fallback ran
        calls = []
        real = rates._L_derivative

        def spy(law, theta, order):
            calls.append(order)
            return real(law, theta, order)

        monkeypatch.setattr(rates, "_L_derivative", spy)
        theta = rates.h_L_prime(law, u)
        assert calls.count(1) > 101
        return theta

    def test_rademacher_log(self, monkeypatch):
        # [DERIVED] A^2 = 1 so L'(theta) = e^theta and theta = log u
        u = 1.789835852676843e+111
        theta = self._solve_counting(monkeypatch, EntryLaw.rademacher(), u)
        assert abs(theta - math.log(u)) <= 4 * math.ulp(math.log(u))

    def test_three_point_law_against_brentq(self, monkeypatch):
        s3 = math.sqrt(3.0)
        law = EntryLaw([-s3, 0.0, s3], [1 / 6, 2 / 3, 1 / 6])
        u = 1.2176469362061843e+42
        theta = self._solve_counting(monkeypatch, law, u)
        oracle = brentq(lambda t: rates.cgf_L_prime(law, t) - u, 0.0, 100.0,
                        xtol=1e-15, rtol=8.9e-16, maxiter=500)
        for t in (theta, oracle):
            assert abs(rates.cgf_L_prime(law, t) / u - 1.0) <= 1e-12
        assert abs(theta - oracle) <= 4 * math.ulp(oracle)

    @pytest.mark.parametrize("law, u", [
        (EntryLaw.rademacher(), 1.789835852676843e+111),
        (EntryLaw([-math.sqrt(3.0), 0.0, math.sqrt(3.0)], [1 / 6, 2 / 3, 1 / 6]),
         1.2176469362061843e+42),
    ])
    def test_rate_table_falls_back_alike(self, monkeypatch, law, u):
        # Newton misses these u in the table as well, and the bisection
        # (the only scalar evaluations rate_table makes) decides them
        scalar_orders = []
        real = rates._L_derivative

        def spy(law, theta, order):
            if np.ndim(theta) == 0:
                scalar_orders.append(order)
            return real(law, theta, order)

        monkeypatch.setattr(rates, "_L_derivative", spy)
        [(row_u, h)] = rates.rate_table(law, [u])
        assert scalar_orders
        ref = rates.legendre_h_L(law, u)
        assert row_u == u
        assert abs(h - ref) <= 1e-12 * max(1.0, abs(ref))


class TestKernelEntropy:
    def test_constant_one(self):
        # [PAPER] h_L(1) = 0 so H = 0
        law = EntryLaw.rademacher()
        assert abs(rates.kernel_entropy(law, StepKernel.constant(1.0, 2))) <= 1e-12

    def test_zero_kernel(self):
        # [DERIVED] h_L(0) = 1, half the square
        law = EntryLaw.rademacher()
        assert abs(rates.kernel_entropy(law, StepKernel.constant(0.0, 3))
                   - 0.5) <= 1e-12

    def test_constant_two(self):
        # [DERIVED] (2 ln 2 - 1) / 2
        law = EntryLaw.rademacher()
        assert abs(rates.kernel_entropy(law, StepKernel.constant(2.0))
                   - (2.0 * math.log(2.0) - 1.0) / 2.0) <= 1e-12

    def test_relabel_invariance(self):
        rng = np.random.default_rng(2)
        law = EntryLaw.rademacher()
        for _ in range(10):
            vals = rng.uniform(0.1, 4.0, (4, 4))
            vals = 0.5 * (vals + vals.T)
            W = StepKernel(Partition.equal(4), vals)
            sigma = list(rng.permutation(4))
            assert (rates.kernel_entropy(law, W)
                    == rates.kernel_entropy(law, kernels.relabel(W, sigma)))


@st.composite
def finite_laws(draw):
    """A law on 2..5 points: random points and masses, standardised to mean 0
    and variance 1."""
    n = draw(st.integers(2, 5))
    v = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    p = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    p = p / p.sum()
    mean = p @ v
    sd = math.sqrt(p @ (v - mean) ** 2)
    assume(sd > 0.1)
    return EntryLaw((v - mean) / sd, p)


@st.composite
def equal_part_kernels(draw):
    k = draw(st.integers(1, 6))
    entries = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
    v = draw(arrays(float, (k, k), elements=entries))
    return StepKernel(Partition.equal(k), np.triu(v) + np.triu(v, 1).T)


class TestKernelEntropyProperties:
    @settings(max_examples=40, deadline=None)
    @given(finite_laws(), equal_part_kernels(), st.randoms(use_true_random=False))
    def test_relabel_invariant_and_nonnegative(self, law, W, random):
        # [PAPER] H is a function of the kernel up to relabelling, and h_L >= 0
        sigma = list(range(W.k))
        random.shuffle(sigma)
        H = rates.kernel_entropy(law, W)
        assert rates.kernel_entropy(law, kernels.relabel(W, sigma)) == H
        assert H >= 0.0

    @settings(max_examples=20, deadline=None)
    @given(finite_laws(), st.integers(1, 6))
    def test_vanishes_at_one(self, law, k):
        # [PAPER] h_L(1) = 0, so H(W) = 0 for W = 1
        assert abs(rates.kernel_entropy(law, StepKernel.constant(1.0, k))) <= 1e-12


class TestKAlpha:
    def test_round_trip(self):
        # [DERIVED] defining identity psi(K_alpha(eps)) = alpha / eps
        rng = np.random.default_rng(3)
        law = EntryLaw.rademacher()
        for _ in range(100):
            # alpha/eps <= 500: the root u = e^(alpha/eps + ...) must stay
            # within float range (psi grows only logarithmically)
            alpha = float(rng.uniform(1.0, 50.0))
            eps = float(rng.uniform(0.1, 0.98))
            u = rates.k_alpha(law, alpha, eps)
            psi = rates.legendre_h_L(law, u) / u
            assert abs(psi - alpha / eps) <= 1e-9

    def test_rademacher_oracle_bisection(self):
        # [DERIVED] independent oracle: bisect psi(u) = ln u - 1 + 1/u directly
        law = EntryLaw.rademacher()
        target = 1.0 + math.exp(-2.0)   # attained at u = e^2
        lo, hi = 1.0, 1e6
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if math.log(mid) - 1.0 + 1.0 / mid < target:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert abs(oracle - math.e ** 2) <= 1e-6
        # pick (alpha, eps) with alpha/eps = target
        u = rates.k_alpha(law, 1.0, 1.0 / target)
        assert abs(u - math.e ** 2) <= 1e-6

    def test_limit_to_one(self):
        # [TRIVIAL] psi(1) = 0, so alpha/eps -> 0+ gives u -> 1+
        law = EntryLaw.rademacher()
        prev = math.inf
        for eps in (0.5, 0.9, 0.99):
            u = rates.k_alpha(law, 1.0, eps)
            assert 1.0 < u <= prev
            prev = u

    @settings(max_examples=60, deadline=None)
    @given(finite_laws(), st.floats(1.0, 50.0), st.floats(0.1, 0.98))
    def test_round_trip_any_law(self, law, alpha, eps):
        # [DERIVED] psi(K_alpha(eps)) = alpha / eps for every finite law, found
        # from L and L' alone: k_alpha never inverts L'
        target = alpha / eps

        def no_inversion(*args):
            raise AssertionError("k_alpha inverted L'")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rates, "_invert_L_prime", no_inversion)
            mp.setattr(rates, "_bisect_L_prime", no_inversion)
            try:
                u = rates.k_alpha(law, alpha, eps)
            except DomainError:
                u = None
        if u is None:
            # out of range only where h_L(K) = K target overflows, so K > 1e300
            assert rates.legendre_h_L(law, 1e300) / 1e300 < target
            return
        psi = rates.legendre_h_L(law, u) / u
        assert abs(psi - target) <= rates.K_ALPHA_PSI_TOL + 8 * math.ulp(target)

    def test_domain_errors(self):
        law = EntryLaw.rademacher()
        for alpha, eps in ((0.5, 0.5), (2.0, 1.5), (math.nan, 0.5), (2.0, math.nan)):
            with pytest.raises(DomainError):
                rates.k_alpha(law, alpha, eps)

    def test_root_beyond_float_range(self):
        # psi = h_L(u)/u overflows to inf above u ~ 2.6e305 (psi ~ 702), so
        # alpha/eps = 708 has no float root; 700 still has one
        law = EntryLaw.rademacher()
        with pytest.raises(DomainError):
            rates.k_alpha(law, 354.0, 0.5)
        u = rates.k_alpha(law, 350.0, 0.5)
        assert abs(rates.legendre_h_L(law, u) / u - 700.0) <= 1e-10


class TestRateTable:
    def test_rows(self):
        law = EntryLaw.rademacher()
        rows = rates.rate_table(law, [1.0, 2.0])
        assert abs(rows[0][1]) <= 1e-12
        assert abs(rows[1][1] - (2 * math.log(2.0) - 1.0)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(finite_laws(), st.lists(st.one_of(st.floats(-10.0, 20.0),
                                             st.floats(-1e300, 1e300)),
                                   max_size=30))
    def test_matches_legendre_h_L(self, law, drawn):
        # one array pass over the table equals legendre_h_L u by u: inf below
        # 0, 1 - P(A = 0) at 0, 0 at 1, and h near the top of the float range
        us = [-2.5, 0.0, 1.0, 1e300, *drawn]
        rows = rates.rate_table(law, np.array(us))
        assert [u for u, _ in rows] == us
        for u, h in rows:
            ref = rates.legendre_h_L(law, u)
            if math.isinf(ref):
                assert h == ref
            else:
                assert abs(h - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_exact_values(self):
        rows = rates.rate_table(EntryLaw.rademacher(), [-1.0, 0.0, 1.0])
        assert rows == [(-1.0, math.inf), (0.0, 1.0), (1.0, 0.0)]

    @pytest.mark.parametrize("u", [math.inf, math.nan])
    def test_non_finite_u_rejected(self, u):
        with pytest.raises(DomainError, match="finite u > 0"):
            rates.rate_table(EntryLaw.rademacher(), [1.0, u])

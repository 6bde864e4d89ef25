"""Tests for qvelab.rates: cumulant function, Legendre conjugate, bounds."""

import math

import numpy as np
import pytest

from qvelab import kernels, rates
from qvelab.errors import DomainError, NegativeInput, NoFeasibleKernel
from qvelab.kernels import Partition, StepKernel
from qvelab.rates import EntryLaw, LegendrePair


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

    def test_json_round_trip(self):
        law = SPREAD_LAW
        back = EntryLaw.from_json(law.to_json())
        assert np.array_equal(back.support, law.support)
        assert np.array_equal(back.probs, law.probs)


class TestCgfL:
    def test_rademacher_zero(self):
        # [TRIVIAL]
        assert rates.cgf_L(LegendrePair(EntryLaw.rademacher()), 0.0) == 0.0

    def test_rademacher_one(self):
        # [DERIVED] A^2 = 1 so L(theta) = e^theta - 1
        pair = LegendrePair(EntryLaw.rademacher())
        assert abs(rates.cgf_L(pair, 1.0) - (math.e - 1.0)) <= 1e-12

    def test_spread_law(self):
        # [DERIVED] direct sum: (e^2 - 1) / 2
        pair = LegendrePair(SPREAD_LAW)
        assert abs(rates.cgf_L(pair, 1.0) - (math.e ** 2 - 1.0) / 2.0) <= 1e-12

    def test_derivative_at_zero_is_variance(self):
        for law in (EntryLaw.rademacher(), SPREAD_LAW):
            assert abs(rates.cgf_L_prime(LegendrePair(law), 0.0) - 1.0) <= 1e-12


class TestLegendreHL:
    def test_u1_any_law(self):
        # [PAPER] h_L vanishes only at 1
        for law in (EntryLaw.rademacher(), SPREAD_LAW):
            assert abs(rates.legendre_h_L(LegendrePair(law), 1.0)) <= 1e-12

    def test_rademacher_u2(self):
        # [DERIVED] closed form u ln u - u + 1
        pair = LegendrePair(EntryLaw.rademacher())
        assert abs(rates.legendre_h_L(pair, 2.0)
                   - (2.0 * math.log(2.0) - 1.0)) <= 1e-12

    def test_u0(self):
        # [PAPER] h_L(0) = 1
        for law in (EntryLaw.rademacher(), SPREAD_LAW):
            assert rates.legendre_h_L(LegendrePair(law), 0.0) == 1.0

    def test_negative_is_infinite(self):
        assert rates.legendre_h_L(LegendrePair(EntryLaw.rademacher()), -0.5) == math.inf

    def test_rademacher_closed_form_grid(self):
        # invariant: matches u ln u - u + 1 within 1e-9 on [0.01, 50]
        pair = LegendrePair(EntryLaw.rademacher())
        for u in np.linspace(0.01, 50.0, 500):
            assert abs(rates.legendre_h_L(pair, float(u))
                       - rademacher_h(float(u))) <= 1e-9

    def test_fenchel_young(self):
        # theta * u <= L(theta) + h_L(u), equality at u = L'(theta)
        rng = np.random.default_rng(0)
        for law in (EntryLaw.rademacher(), SPREAD_LAW):
            pair = LegendrePair(law)
            for _ in range(50):
                theta = float(rng.uniform(-3.0, 2.0))
                u = float(rng.uniform(0.01, 10.0))
                lhs = theta * u
                rhs = rates.cgf_L(pair, theta) + rates.legendre_h_L(pair, u)
                assert lhs <= rhs + 1e-10
                u_star = rates.cgf_L_prime(pair, theta)
                gap = (rates.cgf_L(pair, theta)
                       + rates.legendre_h_L(pair, u_star) - theta * u_star)
                assert abs(gap) <= 1e-9

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(1)
        pair = LegendrePair(SPREAD_LAW)
        for _ in range(50):
            a, b = sorted(rng.uniform(0.01, 20.0, 2))
            mid = 0.5 * (a + b)
            assert (rates.legendre_h_L(pair, mid)
                    <= 0.5 * rates.legendre_h_L(pair, a)
                    + 0.5 * rates.legendre_h_L(pair, b) + 1e-10)

    def test_psi_nondecreasing(self):
        # h_L(u)/u nondecreasing for u >= 1
        pair = LegendrePair(EntryLaw.rademacher())
        us = np.linspace(1.0, 30.0, 100)
        psi = [rates.legendre_h_L(pair, float(u)) / u for u in us]
        assert all(b >= a - 1e-12 for a, b in zip(psi, psi[1:]))

    def test_memo_bit_identical(self):
        pair_a = LegendrePair(SPREAD_LAW)
        pair_b = LegendrePair(SPREAD_LAW)
        for u in (0.3, 2.7, 11.0):
            first = rates.legendre_h_L(pair_a, u)
            again = rates.legendre_h_L(pair_a, u)   # memoized path
            fresh = rates.legendre_h_L(pair_b, u)   # unmemoized path
            assert first == again == fresh

    def test_h_L_prime_inverts_L_prime(self):
        pair = LegendrePair(SPREAD_LAW)
        for u in (0.05, 0.8, 1.0, 3.0, 40.0):
            theta = rates.h_L_prime(pair, u)
            assert abs(rates.cgf_L_prime(pair, theta) - u) <= 1e-9 * max(1.0, u)


class TestKernelEntropy:
    def test_constant_one(self):
        # [PAPER] h_L(1) = 0 so H = 0
        pair = LegendrePair(EntryLaw.rademacher())
        assert abs(rates.kernel_entropy(pair, StepKernel.constant(1.0, 2))) <= 1e-12

    def test_zero_kernel(self):
        # [DERIVED] h_L(0) = 1, half the square
        pair = LegendrePair(EntryLaw.rademacher())
        assert abs(rates.kernel_entropy(pair, StepKernel.constant(0.0, 3))
                   - 0.5) <= 1e-12

    def test_constant_two(self):
        # [DERIVED] (2 ln 2 - 1) / 2
        pair = LegendrePair(EntryLaw.rademacher())
        assert abs(rates.kernel_entropy(pair, StepKernel.constant(2.0))
                   - (2.0 * math.log(2.0) - 1.0) / 2.0) <= 1e-12

    def test_relabel_invariance(self):
        rng = np.random.default_rng(2)
        pair = LegendrePair(EntryLaw.rademacher())
        for _ in range(10):
            vals = rng.uniform(0.1, 4.0, (4, 4))
            vals = 0.5 * (vals + vals.T)
            W = StepKernel(Partition.equal(4), vals)
            sigma = list(rng.permutation(4))
            assert (rates.kernel_entropy(pair, W)
                    == rates.kernel_entropy(pair, kernels.relabel(W, sigma)))


class TestErRateH:
    def test_u1(self):
        # [PAPER]
        assert rates.er_rate_h(1.0) == 0.0

    def test_u0(self):
        # [DERIVED] limit u log u -> 0
        assert rates.er_rate_h(0.0) == 1.0

    def test_ue(self):
        # [DERIVED] e * 1 - e + 1
        assert abs(rates.er_rate_h(math.e) - 1.0) <= 1e-12

    def test_negative(self):
        with pytest.raises(NegativeInput):
            rates.er_rate_h(-0.1)


class TestKAlpha:
    def test_round_trip(self):
        # [DERIVED] defining identity psi(K_alpha(eps)) = alpha / eps
        rng = np.random.default_rng(3)
        pair = LegendrePair(EntryLaw.rademacher())
        for _ in range(100):
            # alpha/eps <= 500: the root u = e^(alpha/eps + ...) must stay
            # within float range (psi grows only logarithmically)
            alpha = float(rng.uniform(1.0, 50.0))
            eps = float(rng.uniform(0.1, 0.98))
            u = rates.k_alpha(pair, alpha, eps)
            psi = rates.legendre_h_L(pair, u) / u
            assert abs(psi - alpha / eps) <= 1e-9

    def test_rademacher_oracle_bisection(self):
        # [DERIVED] independent oracle: bisect psi(u) = ln u - 1 + 1/u directly
        pair = LegendrePair(EntryLaw.rademacher())
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
        u = rates.k_alpha(pair, 1.0, 1.0 / target)
        assert abs(u - math.e ** 2) <= 1e-6

    def test_limit_to_one(self):
        # [TRIVIAL] psi(1) = 0, so alpha/eps -> 0+ gives u -> 1+
        pair = LegendrePair(EntryLaw.rademacher())
        prev = math.inf
        for eps in (0.5, 0.9, 0.99):
            u = rates.k_alpha(pair, 1.0, eps)
            assert 1.0 < u <= prev
            prev = u

    def test_domain_errors(self):
        pair = LegendrePair(EntryLaw.rademacher())
        with pytest.raises(DomainError):
            rates.k_alpha(pair, 0.5, 0.5)
        with pytest.raises(DomainError):
            rates.k_alpha(pair, 2.0, 1.5)

    def test_root_beyond_float_range(self):
        # psi = h_L(u)/u overflows to inf above u ~ 2.6e305 (psi ~ 702), so
        # alpha/eps = 708 has no float root; 700 still has one
        pair = LegendrePair(EntryLaw.rademacher())
        with pytest.raises(DomainError):
            rates.k_alpha(pair, 354.0, 0.5)
        u = rates.k_alpha(pair, 350.0, 0.5)
        assert abs(rates.legendre_h_L(pair, u) / u - 700.0) <= 1e-10


class TestBennettBound:
    def test_weak_form_boundary(self):
        # [TRIVIAL] log(1) = 0 at t = 3 lam
        out = rates.dependent_bennett_bound(1.0, 1.0, 3.0)
        assert out.weak_bound == 1.0

    def test_closed_form(self):
        # [DERIVED] exp(-(3 ln 3 - 2))
        out = rates.dependent_bennett_bound(1.0, 1.0, 3.0)
        assert abs(out.bound - math.exp(-(3.0 * math.log(3.0) - 2.0))) <= 1e-12

    def test_decreasing_in_t(self):
        # [TRIVIAL] h increasing on (1, inf)
        ts = np.linspace(1.5, 20.0, 50)
        vals = [rates.dependent_bennett_bound(1.0, 2.0, float(t)).bound
                for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            rates.dependent_bennett_bound(1.0, 1.0, 0.5)


class TestChaosExponent:
    def test_zero(self):
        # [TRIVIAL] theta = 0 optimal
        assert rates.chaos_exponent(0.0) == 0.0

    def test_monotone_convex(self):
        # [TRIVIAL] sup of linear functions
        xs = np.linspace(0.0, 20.0, 80)
        vals = [rates.chaos_exponent(float(x)) for x in xs]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
        for i in range(1, len(xs) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-8

    def test_asymptotic_growth(self):
        # h~(x) ~ x sqrt(log x); convergence is O(log log x / log x), so the
        # ratio reaches 15% only around x ~ 1e8 (at 1e3 it is still ~0.80)
        ratios = []
        for x in (1e3, 1e4, 1e8):
            ratios.append(rates.chaos_exponent(x) / (x * math.sqrt(math.log(x))))
        assert ratios[0] < ratios[1] < ratios[2] <= 1.0 + 1e-9
        assert abs(ratios[-1] - 1.0) <= 0.15

    def test_matches_dense_grid_maximum(self):
        # independent oracle: dense theta grid search
        for x in (0.5, 3.0, 25.0):
            thetas = np.linspace(0.0, 5.0, 200_001)
            grid_max = float(np.max(thetas * x - (np.exp(thetas ** 2) - 1.0)))
            assert abs(rates.chaos_exponent(x) - grid_max) <= 1e-6

    def test_tail_bound_range(self):
        val = rates.chaos_tail_bound(1.0, 0.05)
        assert 0.0 < val <= 2.0
        with pytest.raises(DomainError):
            rates.chaos_tail_bound(-1.0, 0.05)


class TestChangeOfMeasure:
    def test_reference_value(self):
        # [DERIVED] q = 1, H = 0 -> exp(-1/e)
        assert abs(rates.change_of_measure_bound(0.0, 1.0)
                   - math.exp(-math.exp(-1.0))) <= 1e-12

    def test_bounded_by_q(self):
        # [TRIVIAL] exponential factor <= 1
        rng = np.random.default_rng(4)
        for _ in range(50):
            H = float(rng.uniform(0.0, 5.0))
            q = float(rng.uniform(0.01, 1.0))
            assert rates.change_of_measure_bound(H, q) <= q

    def test_monte_carlo_coin_pair(self):
        # [DERIVED] biased/unbiased coin pair with exact discrete entropy:
        # P(E) >= q exp(-(H(Q|P) + 1/e)/q) whenever Q(E) >= q
        rng = np.random.default_rng(5)
        for _ in range(100):
            p_coin = float(rng.uniform(0.2, 0.8))
            q_coin = float(rng.uniform(0.2, 0.8))
            H_rel = (q_coin * math.log(q_coin / p_coin)
                     + (1 - q_coin) * math.log((1 - q_coin) / (1 - p_coin)))
            # event E = {heads}: Q(E) = q_coin, P(E) = p_coin
            bound = rates.change_of_measure_bound(H_rel, q_coin)
            assert p_coin >= bound - 1e-12


class TestRateUpperBound:
    def test_semicircle_target(self):
        # [PAPER] the semicircle minimizer is W = 1 with H = 0
        from qvelab import qve
        pair = LegendrePair(EntryLaw.rademacher())
        family = [StepKernel.constant(c) for c in (0.5, 1.0, 2.0)]
        target = qve.semicircle_reference()
        out = rates.rate_upper_bound(pair, target, family, tol=0.01)
        assert np.allclose(out.best_kernel.values, 1.0)
        assert abs(out.H_value) <= 1e-12

    def test_family_member_target(self):
        # [TRIVIAL] W0 itself is feasible
        from qvelab import qve
        pair = LegendrePair(EntryLaw.rademacher())
        W0 = StepKernel.constant(2.0)
        target = qve.qve_measure(W0)
        out = rates.rate_upper_bound(pair, target,
                                     [StepKernel.constant(2.0),
                                      StepKernel.constant(3.0)], tol=0.01)
        assert out.H_value <= rates.kernel_entropy(pair, W0) + 1e-12

    def test_excluding_one_gives_positive_entropy(self):
        # [DERIVED] h_L vanishes only at 1
        from qvelab import qve
        pair = LegendrePair(EntryLaw.rademacher())
        target = qve.semicircle_reference()
        out = rates.rate_upper_bound(pair, target,
                                     [StepKernel.constant(0.9),
                                      StepKernel.constant(1.1)], tol=0.1)
        assert out.H_value > 0.0

    def test_no_feasible_kernel(self):
        from qvelab import qve
        pair = LegendrePair(EntryLaw.rademacher())
        target = qve.semicircle_reference()
        with pytest.raises(NoFeasibleKernel):
            rates.rate_upper_bound(pair, target,
                                   [StepKernel.constant(4.0)], tol=1e-4)


class TestRateTable:
    def test_rows(self):
        pair = LegendrePair(EntryLaw.rademacher())
        rows = rates.rate_table(pair, [1.0, 2.0])
        assert abs(rows[0][1]) <= 1e-12
        assert abs(rows[1][1] - (2 * math.log(2.0) - 1.0)) <= 1e-12

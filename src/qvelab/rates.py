"""Rate-function machinery: cumulant function, Legendre conjugate, kernel
entropy, tilting exponents and the closed-form probabilistic bounds.

The entry law is a finite discrete distribution with mean 0 and variance 1,
which makes the cumulant function L(theta) = E exp(theta A^2) - 1 and the
exponential tilting exact.  h_L is the convex conjugate of L; for the
Rademacher law it reduces to u log u - u + 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import optimize, special

from .errors import (
    DomainError,
    NegativeInput,
    NoFeasibleKernel,
    NotConverged,
)
from .kernels import StepKernel

_TOL = 1e-12


@dataclass(frozen=True)
class EntryLaw:
    """Finite discrete law of a matrix entry: mean 0, variance 1, bounded."""

    support: np.ndarray
    probs: np.ndarray

    def __init__(self, support, probs):
        v = np.asarray(support, dtype=float)
        p = np.asarray(probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1:
            raise ValueError("support and probs must be 1-D and match")
        if np.any(p <= 0):
            raise ValueError("probabilities must be positive")
        if abs(p.sum() - 1.0) > _TOL:
            raise ValueError("probabilities must sum to 1")
        if abs(float(p @ v)) > _TOL:
            raise ValueError("law must have zero mean")
        if abs(float(p @ v ** 2) - 1.0) > _TOL:
            raise ValueError("law must have unit variance")
        order = np.argsort(v)
        v, p = v[order], p[order]
        v.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "support", v)
        object.__setattr__(self, "probs", p)

    @classmethod
    def rademacher(cls) -> "EntryLaw":
        return cls([-1.0, 1.0], [0.5, 0.5])

    @property
    def bound(self) -> float:
        """Essential sup R of |A|."""
        return float(np.abs(self.support).max())

    def to_json(self) -> str:
        return json.dumps({"support": self.support.tolist(),
                           "probs": self.probs.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "EntryLaw":
        data = json.loads(text)
        return cls(data["support"], data["probs"])


@dataclass
class LegendrePair:
    """Entry law together with a memo table for inverting L'."""

    law: EntryLaw
    _theta_memo: dict = field(default_factory=dict, repr=False)


def cgf_L(pair: LegendrePair, theta: float) -> float:
    """L(theta) = E exp(theta A^2) - 1, exact finite sum."""
    law = pair.law
    return float(law.probs @ np.exp(theta * law.support ** 2) - 1.0)


def cgf_L_prime(pair: LegendrePair, theta: float) -> float:
    law = pair.law
    v2 = law.support ** 2
    return float(law.probs @ (v2 * np.exp(theta * v2)))


def _cgf_L_second(pair: LegendrePair, theta: float) -> float:
    law = pair.law
    v2 = law.support ** 2
    return float(law.probs @ (v2 ** 2 * np.exp(theta * v2)))


def h_L_prime(pair: LegendrePair, u: float) -> float:
    """Inverse of L': the unique theta with L'(theta) = u, u > 0.

    Newton from a crude log guess, with an expanding-bracket bisection
    fallback.  Memoized; the memoized path is bit-identical to the direct one.
    """
    if u <= 0:
        raise DomainError("h_L' defined for u > 0 only")
    key = float(u)
    memo = pair._theta_memo
    if key in memo:
        return memo[key]
    R2 = pair.law.bound ** 2
    theta = math.log(u) / R2

    converged = False
    for _ in range(100):
        f = cgf_L_prime(pair, theta) - u
        if abs(f) <= 1e-14 * max(1.0, u):
            converged = True
            break
        fp = _cgf_L_second(pair, theta)
        step = f / fp
        if not math.isfinite(step):
            break
        theta -= step
        if abs(step) <= 1e-16 * max(1.0, abs(theta)):
            converged = True
            break
    if not converged or abs(cgf_L_prime(pair, theta) - u) > 1e-10 * max(1.0, u):
        lo, hi = -50.0 / R2, 50.0 / R2
        for _ in range(200):
            if cgf_L_prime(pair, lo) < u:
                break
            lo *= 2.0
        else:
            raise NotConverged("bracket failure on the left for L' inversion")
        for _ in range(200):
            if cgf_L_prime(pair, hi) > u:
                break
            hi *= 2.0
        else:
            raise NotConverged("bracket failure on the right for L' inversion")
        theta = optimize.brentq(lambda t: cgf_L_prime(pair, t) - u, lo, hi,
                                xtol=1e-15, rtol=8.9e-16, maxiter=500)
    memo[key] = theta
    return theta


def legendre_h_L(pair: LegendrePair, u: float) -> float:
    """Convex conjugate h_L(u) = sup_theta {theta u - L(theta)}.

    +inf for u < 0, exactly 1 at u = 0, and 0 only at u = 1.
    """
    if u < 0:
        return math.inf
    if u == 0:
        return 1.0
    theta = h_L_prime(pair, u)
    return theta * u - cgf_L(pair, theta)


def kernel_entropy(pair: LegendrePair, W: StepKernel) -> float:
    """H(W) = 1/2 * integral of h_L over the kernel."""
    mu = W.partition.part_measures
    vals = np.unique(W.values)
    table = {v: legendre_h_L(pair, float(v)) for v in vals}
    h = np.vectorize(lambda v: table[v])(W.values)
    # sorted fsum makes the result exactly invariant under part relabelling
    terms = (h * np.outer(mu, mu)).ravel()
    return 0.5 * math.fsum(sorted(terms))


def er_rate_h(u: float) -> float:
    """Erdos-Renyi rate h(u) = u log u - u + 1 (h(0) = 1 by continuity)."""
    if u < 0:
        raise NegativeInput("h defined for u >= 0")
    return float(special.xlogy(u, u) - u + 1.0)


def k_alpha(pair: LegendrePair, alpha: float, eps: float,
            psi_tol: float = 1e-10) -> float:
    """Threshold K_alpha(eps): the unique u >= 1 with h_L(u)/u = alpha/eps.

    psi(u) = h_L(u)/u is an increasing homeomorphism of [1, inf) onto
    [0, inf), so bisection on psi always succeeds while the root is a float;
    DomainError when it is not (alpha/eps above about 702 for Rademacher).
    """
    if alpha < 1:
        raise DomainError("alpha must be >= 1")
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0,1)")
    target = alpha / eps

    def psi(u):
        return legendre_h_L(pair, u) / u

    # psi grows like log u for bounded laws, so square the bracket bound and
    # bisect geometrically (in log u) to cover very large roots
    u_max = 1e308
    lo, hi = 1.0, 2.0
    while psi(hi) < target:
        if hi >= u_max:
            raise DomainError("target alpha/eps exceeds float range")
        lo, hi = hi, min(hi * hi, u_max)
    for _ in range(500):
        mid = math.sqrt(lo) * math.sqrt(hi)
        val = psi(mid)
        if abs(val - target) <= psi_tol:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    else:
        mid = math.sqrt(lo) * math.sqrt(hi)
    # h_L(u) overflows above u ~ 2.6e305 (psi ~ 702 for Rademacher), where psi
    # reads inf: a bracket top still there means the root is out of range
    if not math.isfinite(psi(hi)):
        raise DomainError("target alpha/eps exceeds float range")
    return mid


class BennettBound(NamedTuple):
    bound: float
    weak_bound: float


def dependent_bennett_bound(lam: float, a: float, t: float) -> BennettBound:
    """Tail bound exp(-(lam/a) h(t/lam)) for dependent sums, with the weaker
    exp(-(t/a) log(t/3 lam)) alongside for reference."""
    if lam <= 0 or a <= 0:
        raise DomainError("lam and a must be positive")
    if t <= lam:
        raise DomainError("t must exceed lam")
    strong = math.exp(-(lam / a) * er_rate_h(t / lam))
    weak = math.exp(-(t / a) * math.log(t / (3.0 * lam)))
    return BennettBound(strong, min(weak, 1.0) if t <= 3.0 * lam else weak)


def chaos_exponent(x: float, tol: float = 1e-10) -> float:
    """h~(x) = sup_{theta >= 0} {theta x - (exp(theta^2) - 1)}.

    The objective is unimodal in theta; maximized by golden-section search.
    """
    if x < 0:
        raise DomainError("x must be >= 0")
    if x == 0:
        return 0.0

    def obj(theta):
        return theta * x - (math.exp(theta ** 2) - 1.0)

    hi = 1.0
    # stationary point solves 2 theta exp(theta^2) = x
    for _ in range(200):
        if 2.0 * hi * math.exp(hi ** 2) >= x:
            break
        hi *= 2.0
    # golden-section maximization on [0, hi]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = obj(d)
    return max(0.0, obj(0.5 * (a + b)))


def chaos_tail_bound(t: float, p: float) -> float:
    """Order-2 sparse chaos tail bound at unit np normalization:
    2 exp(-h~((t/16) sqrt(log 1/p)))."""
    if t <= 0:
        raise DomainError("t must be positive")
    if not 0 < p < 1:
        raise DomainError("p must lie in (0,1)")
    return 2.0 * math.exp(-chaos_exponent((t / 16.0) * math.sqrt(math.log(1.0 / p))))


def change_of_measure_bound(H_rel: float, q: float) -> float:
    """Lower bound q exp(-(H_rel + 1/e)/q) on P(E) when Q(E) >= q."""
    if H_rel < 0:
        raise DomainError("relative entropy must be >= 0")
    if not 0 < q <= 1:
        raise DomainError("q must lie in (0,1]")
    return q * math.exp(-(H_rel + math.exp(-1.0)) / q)


@dataclass
class RateSearchResult:
    best_kernel: StepKernel
    H_value: float
    attained_distance: float


def rate_upper_bound(pair: LegendrePair, target, family, tol: float,
                     grid=None) -> RateSearchResult:
    """Search a finite kernel family for the cheapest one whose QVE measure
    lands within tol of the target (an upper bound on the rate, never claimed
    as the infimum)."""
    from . import qve
    from .measures import metric_d

    best = None
    for W in family:
        mu = qve.qve_measure(W, grid)
        dist = metric_d(mu, target)
        if dist > tol:
            continue
        H = kernel_entropy(pair, W)
        if best is None or H < best.H_value:
            best = RateSearchResult(W, H, dist)
    if best is None:
        raise NoFeasibleKernel(
            f"no family member within distance {tol} of the target"
        )
    return best


def rate_table(pair: LegendrePair, u_values):
    """(u, h_L(u)) rows for a CSV export."""
    return [(float(u), legendre_h_L(pair, float(u))) for u in u_values]

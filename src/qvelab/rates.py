"""Rate-function machinery: cumulant function, Legendre conjugate, kernel
entropy, tilting exponents and the closed-form probabilistic bounds.

The entry law is a finite discrete distribution with mean 0 and variance 1,
which makes the cumulant function L(theta) = E exp(theta A^2) - 1 and the
exponential tilting exact.  h_L is the convex conjugate of L; for the
Rademacher law it reduces to u log u - u + 1.

One inversion of L' serves every rate function: _invert_L_prime runs Newton on
an array of u at once and bisects only the entries Newton misses, and one
array evaluator of h_L (_h_L) stands behind legendre_h_L, rate_table and
kernel_entropy.  k_alpha needs no inversion: it bisects in theta.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoFeasibleKernel, NotConverged
from .kernels import StepKernel

_TOL = 1e-12
K_ALPHA_PSI_TOL = 1e-10     # |psi(u) - alpha/eps| that ends the k_alpha search
CHAOS_TOL = 1e-10           # bracket width that ends the chaos_exponent search


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
        for name, a in (("support", v), ("probs", p)):
            bad = np.flatnonzero(~np.isfinite(a))
            if bad.size:
                raise ValueError(f"law {name} value {a[bad[0]]} is not finite")
        if np.any(p <= 0):
            raise ValueError("probabilities must be positive")
        # one representation per law: the support sorted, and repeated points
        # (-0.0 and 0.0 included) merged into one atom with their summed mass
        v, inverse = np.unique(v, return_inverse=True)
        p = np.bincount(inverse, weights=p, minlength=v.size)
        if abs(p.sum() - 1.0) > _TOL:
            raise ValueError("probabilities must sum to 1")
        if abs(float(p @ v)) > _TOL:
            raise ValueError("law must have zero mean")
        if abs(float(p @ v ** 2) - 1.0) > _TOL:
            raise ValueError("law must have unit variance")
        v.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "support", v)
        object.__setattr__(self, "probs", p)

    def __eq__(self, other):
        if not isinstance(other, EntryLaw):
            return NotImplemented
        return (np.array_equal(self.support, other.support)
                and np.array_equal(self.probs, other.probs))

    def __hash__(self):
        # + 0.0 maps -0.0, which __eq__ equates with 0.0, to 0.0
        return hash(((self.support + 0.0).tobytes(), (self.probs + 0.0).tobytes()))

    @classmethod
    def rademacher(cls) -> "EntryLaw":
        return cls([-1.0, 1.0], [0.5, 0.5])

    @functools.cached_property
    def bound(self) -> float:
        """Essential sup R of |A| (cached: every L' inversion reads it)."""
        return float(np.abs(self.support).max())

    @functools.cached_property
    def _squares(self) -> np.ndarray:
        """A^2 on the support (cached: every evaluation of L reads it)."""
        return self.support ** 2

    def to_json(self) -> str:
        return json.dumps({"support": self.support.tolist(),
                           "probs": self.probs.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "EntryLaw":
        """Law from {"support": [...], "probs": [...]}; ValueError naming the
        first missing key."""
        data = json.loads(text)
        for key in ("support", "probs"):
            if not isinstance(data, dict) or key not in data:
                raise ValueError(f"law JSON has no {key!r} key")
        return cls(data["support"], data["probs"])


# L and its derivatives overflow to inf for large theta.  That inf is the
# right value (the searches below bracket on it), so numpy's overflow warnings
# are silenced, once per public call rather than once per evaluation: an
# inversion takes a dozen or more evaluations, and np.errstate costs a quarter
# of one.


@np.errstate(over="ignore")
def cgf_L(law: EntryLaw, theta):
    """L(theta) = E exp(theta A^2) - 1, exact finite sum: a float at a float
    theta, one value per entry at an array theta."""
    t = np.asarray(theta, dtype=float)
    L = _L_derivative(law, t[..., None], 0) - 1.0
    return float(L) if t.ndim == 0 else L


@np.errstate(over="ignore")
def cgf_L_prime(law: EntryLaw, theta: float) -> float:
    return float(_L_derivative(law, theta, 1))


def _L_derivative(law: EntryLaw, theta, order: int):
    """E A^(2 order) exp(theta A^2): L + 1 at order 0, the order-th derivative
    of L above, with overflow left to the caller.  A scalar at a float theta,
    one value per row at a column theta of shape (m, 1).  (A column
    broadcasts; the scalar path would pay np.multiply.outer's extra half
    microsecond per call.)"""
    v2 = law._squares
    e = np.exp(theta * v2)
    if order:
        e = (v2 if order == 1 else v2 ** order) * e
    return e @ law.probs


def h_L_prime(law: EntryLaw, u):
    """Inverse of L': the unique theta with L'(theta) = u, for finite u > 0.

    A float at a float u; at an array u, one theta per entry, all found in
    one array pass of _invert_L_prime.
    """
    a = np.asarray(u, dtype=float)
    bad = ~(np.isfinite(a) & (a > 0))
    if bad.any():
        raise DomainError(
            f"h_L' defined for finite u > 0 only, got {float(a[bad][0])!r}")
    theta = _invert_L_prime(law, a.ravel()).reshape(a.shape)
    return float(theta) if a.ndim == 0 else theta


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _invert_L_prime(law: EntryLaw, u: np.ndarray) -> np.ndarray:
    """theta with L'(theta) = u at every entry of u (finite, > 0).

    Newton runs on all entries at once from theta = log(u)/R^2.  An entry
    stops when |L'(theta) - u| <= 1e-14 max(1, u) or its step drops below
    1e-16 max(1, |theta|), and gives up on a step that is not finite or after
    100 steps.  Its theta is kept only if |L'(theta) - u| <= 1e-10 max(1, u);
    every other entry goes to _bisect_L_prime.
    """
    theta = np.log(u) / law.bound ** 2
    converged = np.zeros(u.shape, dtype=bool)
    live = np.arange(u.size)
    for _ in range(100):
        if live.size == 0:
            break
        t = theta[live]
        f = _L_derivative(law, t[:, None], 1) - u[live]
        done = np.abs(f) <= 1e-14 * np.maximum(1.0, u[live])
        converged[live[done]] = True
        live, t, f = live[~done], t[~done], f[~done]
        step = f / _L_derivative(law, t[:, None], 2)
        finite = np.isfinite(step)
        live, t, step = live[finite], t[finite] - step[finite], step[finite]
        theta[live] = t
        small = np.abs(step) <= 1e-16 * np.maximum(1.0, np.abs(t))
        converged[live[small]] = True
        live = live[~small]
    miss = ~converged | (np.abs(_L_derivative(law, theta[:, None], 1) - u)
                         > 1e-10 * np.maximum(1.0, u))
    for i in np.flatnonzero(miss):
        theta[i] = _bisect_L_prime(law, float(u[i]))
    return theta


def _bisect_L_prime(law: EntryLaw, u: float) -> float:
    """theta with L'(theta) = u by bisection on an expanding bracket, down to
    adjacent floats (callers silence overflow)."""
    R2 = law.bound ** 2

    def d1(t):
        return float(_L_derivative(law, t, 1))

    lo, hi = -50.0 / R2, 50.0 / R2
    for _ in range(200):
        if d1(lo) < u:
            break
        lo *= 2.0
    else:
        raise NotConverged("bracket failure on the left for L' inversion")
    for _ in range(200):
        if d1(hi) > u:
            break
        hi *= 2.0
    else:
        raise NotConverged("bracket failure on the right for L' inversion")
    # L' is increasing: bisect until lo and hi are adjacent floats
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if d1(mid) < u:
            lo = mid
        else:
            hi = mid
    return min((lo, hi), key=lambda t: abs(d1(t) - u))


@np.errstate(over="ignore", invalid="ignore")
def _h_L(law: EntryLaw, u: np.ndarray) -> np.ndarray:
    """h_L at every entry of a 1-D u: +inf below 0, 1 - P(A = 0) at 0, and
    max(0, theta u - L(theta)) at theta = h_L'(u) above 0, with L' inverted
    for all u > 0 in one array pass.  DomainError for a NaN or +inf u.

    Never negative: theta = 0 gives 0, so a negative theta u - L(theta),
    which rounding yields near u = 1, reads 0, and so does a NaN one
    (inf - inf near the top of the float range).
    """
    # -L(theta) = 1 - E exp(theta A^2) decreases in theta, so h_L(0) is its
    # limit theta -> -inf, where E exp(theta A^2) -> P(A = 0)
    h = np.where(u < 0, math.inf, 1.0 - law.probs[law.support == 0.0].sum())
    pos = ~(u <= 0)         # NaN too: h_L_prime refuses it
    theta = h_L_prime(law, u[pos])
    g = theta * u[pos] - cgf_L(law, theta)
    h[pos] = np.where(g > 0.0, g, 0.0)
    return h


def legendre_h_L(law: EntryLaw, u: float) -> float:
    """Convex conjugate h_L(u) = sup_theta {theta u - L(theta)}.

    +inf for u < 0, 1 - P(A = 0) at u = 0, and 0 only at u = 1; never
    negative.
    """
    return float(_h_L(law, np.array([u], dtype=float))[0])


def kernel_entropy(law: EntryLaw, W: StepKernel) -> float:
    """H(W) = 1/2 * integral of h_L over the kernel."""
    mu = W.partition.part_measures
    # one h_L per distinct value, so equal values weigh in with equal bits
    vals, inverse = np.unique(W.values.ravel(), return_inverse=True)
    h = _h_L(law, vals)[inverse]
    # sorted fsum makes the result exactly invariant under part relabelling
    terms = h * np.outer(mu, mu).ravel()
    return 0.5 * math.fsum(sorted(terms))


def er_rate_h(u: float) -> float:
    """Erdos-Renyi rate h(u) = u log u - u + 1 (h(0) = 1 by continuity,
    h(inf) = inf, where the formula reads inf - inf)."""
    if not u >= 0:
        raise DomainError("h defined for u >= 0")
    if u == math.inf:
        return math.inf
    return float((u * math.log(u) if u > 0 else 0.0) - u + 1.0)


@np.errstate(over="ignore")
def k_alpha(law: EntryLaw, alpha: float, eps: float) -> float:
    """Threshold K_alpha(eps): the unique u >= 1 with h_L(u)/u = alpha/eps,
    to within K_ALPHA_PSI_TOL in psi.

    At u = L'(theta), h_L(u)/u = psi(theta) = theta - L(theta)/L'(theta),
    which increases from psi(0) = 0 without bound on theta >= 0.  So the
    search bisects psi in theta, evaluating only L and L', and returns
    u = L'(theta): L' is never inverted.  DomainError when the root's
    h_L(u) = u psi overflows (alpha/eps above about 702 for Rademacher).
    """
    if not alpha >= 1:
        raise DomainError("alpha must be >= 1")
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0,1)")
    target = alpha / eps

    def psi(theta):
        u = float(_L_derivative(law, theta, 1))
        if not math.isfinite(theta * u):
            return math.inf
        return theta - float(_L_derivative(law, theta, 0) - 1.0) / u

    lo, hi = 0.0, 1.0 / law.bound ** 2
    while psi(hi) < target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # psi(lo) < target <= psi(hi) at adjacent floats: an inf psi(hi)
            # means the root lies where h_L overflows
            if not math.isfinite(psi(hi)):
                raise DomainError("target alpha/eps exceeds float range")
            break
        val = psi(mid)
        if abs(val - target) <= K_ALPHA_PSI_TOL:
            break
        if val < target:
            lo = mid
        else:
            hi = mid
    return float(_L_derivative(law, mid, 1))


class BennettBound(NamedTuple):
    bound: float
    weak_bound: float


def dependent_bennett_bound(lam: float, a: float, t: float) -> BennettBound:
    """Tail bound exp(-(lam/a) h(t/lam)) for dependent sums, with the weaker
    exp(-(t/a) log(t/3 lam)) alongside for reference."""
    if not (lam > 0 and a > 0):
        raise DomainError("lam and a must be positive")
    if not lam < t < math.inf:
        raise DomainError("t must be finite and exceed lam")
    strong = math.exp(-(lam / a) * er_rate_h(t / lam))
    weak = math.exp(-(t / a) * math.log(t / (3.0 * lam)))
    return BennettBound(strong, min(weak, 1.0) if t <= 3.0 * lam else weak)


def chaos_exponent(x: float) -> float:
    """h~(x) = sup_{theta >= 0} {theta x - (exp(theta^2) - 1)}.

    The objective is unimodal in theta; maximized by golden-section search
    down to a bracket of width CHAOS_TOL.  Finite at every finite x >= 0
    below about 6.8e306, where h~(x) itself passes the float range and
    reads inf.
    """
    if not 0 <= x < math.inf:
        raise DomainError(f"x must be finite and >= 0, got {x!r}")
    if x == 0:
        return 0.0

    def obj(theta):
        return theta * x - (math.exp(theta ** 2) - 1.0)

    # the stationary point solves 2 theta exp(theta^2) = x, and the left side
    # is >= x at theta = sqrt(max(1, log x)), where exp(theta^2) = max(e, x)
    # cannot overflow
    hi = math.sqrt(max(1.0, math.log(x)))
    # golden-section maximization on [0, hi]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > CHAOS_TOL:
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
    if not t > 0:
        raise DomainError("t must be positive")
    if not 0 < p < 1:
        raise DomainError("p must lie in (0,1)")
    return 2.0 * math.exp(-chaos_exponent((t / 16.0) * math.sqrt(math.log(1.0 / p))))


def change_of_measure_bound(H_rel: float, q: float) -> float:
    """Lower bound q exp(-(H_rel + 1/e)/q) on P(E) when Q(E) >= q."""
    if not H_rel >= 0:
        raise DomainError("relative entropy must be >= 0")
    if not 0 < q <= 1:
        raise DomainError("q must lie in (0,1]")
    return q * math.exp(-(H_rel + math.exp(-1.0)) / q)


@dataclass
class RateSearchResult:
    best_kernel: StepKernel
    H_value: float
    attained_distance: float


def rate_upper_bound(law: EntryLaw, target, family,
                     tol: float) -> RateSearchResult:
    """Search a finite kernel family for the cheapest one whose QVE measure
    lies within tol of the target in metric_d (an upper bound on the rate,
    never claimed as the infimum).  Each member's side of the distance comes
    from its QVE solution, so no member is inverted."""
    from . import qve
    from .measures import metric_d

    best = None
    for W in family:
        dist = metric_d(qve.QveMeasure(W), target)
        if dist > tol:
            continue
        H = kernel_entropy(law, W)
        if best is None or H < best.H_value:
            best = RateSearchResult(W, H, dist)
    if best is None:
        raise NoFeasibleKernel(
            f"no family member within distance {tol} of the target"
        )
    return best


def rate_table(law: EntryLaw, u_values):
    """(u, h_L(u)) rows for a CSV export: legendre_h_L at every u, with L'
    inverted for all u > 0 in one array pass."""
    u = np.asarray(u_values, dtype=float).ravel()
    return list(zip(u.tolist(), _h_L(law, u).tolist()))

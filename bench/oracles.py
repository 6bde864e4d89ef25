"""Output oracles that share no code with qvelab.

Each check recomputes what an output must satisfy from the inputs the
benchmark generated, with its own arithmetic, and raises ``Mismatch`` when it
does not.  This module never imports qvelab.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import permutations

import numpy as np

EPS = float(np.finfo(float).eps)
RESIDUAL_TOL = 1e-12          # the solver's contract
MEASURE_MASS_TOL = 1e-6
MEASURE_MOMENT_RTOL = 1e-3
MOMENT_RTOL = 1e-10
CUT_TOL = 1e-12
LEGENDRE_TOL = 1e-9
SPECTRUM_RTOL = 1e-9
# the paper's bounds carry these inversion slacks (d <= 2|E|, W2 <= sqrt(L1))
INTERLACING_SLACK = 1e-3
HW_SLACK = 2e-3
# semicircle comparisons: the program integrates against a 2000-point grid copy
# of the law, the oracle against its closed form.  Measured differences stay
# below 1e-7 (ks), 2e-6 (w1), 5e-6 (w2) and 1e-6 (d); these leave 10-100x room
SEMICIRCLE_TOL = {"ks": 1e-5, "w1": 1e-4, "w2": 1e-4, "d": 1e-5}
# metric_d is defined on this grid of points with Im z >= 2
METRIC_D_GRID = (np.arange(-8.0, 8.0 + 1e-9, 0.25)[:, None]
                 + 1j * np.array([2.0, 2.5, 3.0, 4.0, 6.0, 10.0])[None, :]).ravel()


class Mismatch(Exception):
    """An output failed its oracle."""


def _require(cond, message):
    if not cond:
        raise Mismatch(message)


def _rows(text: str, header: str) -> np.ndarray:
    lines = text.splitlines()
    _require(lines and lines[0] == header, f"bad header {lines[:1]!r}")
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:] if ln])


def _trapezoid(y, x) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def _close(value, ref, rtol, atol=0.0) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


# -- kernels on equal parts -------------------------------------------------------


def coupling(values) -> np.ndarray:
    """S_ij = V_ij * lambda_j for a kernel on k equal parts."""
    V = np.asarray(values, dtype=float)
    return V / V.shape[0]


def support_bound(values) -> float:
    return 2.0 * math.sqrt(float(np.abs(coupling(values)).sum(axis=1).max()))


def catalan_moments(values, max_order: int) -> list:
    """Moments 0..max_order by the vector Catalan recursion.

    a(0) = 1, a(j) = sum_{p+q=j-1} a(p) o (S a(q)); M_2j = lambda . a(j) and odd
    moments vanish.  It follows from expanding -1/m = z + S m in 1/z.
    """
    S = coupling(values)
    k = S.shape[0]
    a, Sa = [np.ones(k)], [S @ np.ones(k)]
    out = []
    for order in range(max_order + 1):
        if order % 2:
            out.append(0.0)
            continue
        j = order // 2
        while len(a) <= j:
            nxt = sum(a[p] * Sa[len(a) - 1 - p] for p in range(len(a)))
            a.append(nxt)
            Sa.append(S @ nxt)
        out.append(float(np.full(k, 1.0 / k) @ a[j]))
    return out


def semicircle_root(c: float, z: complex) -> complex:
    """Herglotz root of c m^2 + z m + 1 = 0, the QVE of a constant kernel c."""
    if c == 0:
        return -1.0 / z
    disc = np.sqrt(complex(z) ** 2 - 4.0 * c)
    roots = (-2.0 / (z + disc), -2.0 / (z - disc))
    return max(roots, key=lambda m: m.imag)


def check_qve_solution(text: str, values, zs) -> None:
    """Residual <= 1e-12 recomputed from the output, Im m > 0, and the
    closed-form root for constant kernels."""
    data = json.loads(text)
    S = coupling(values)
    k = S.shape[0]
    _require(len(data) == len(zs), f"{len(data)} points returned, {len(zs)} asked")
    constant = bool(np.all(S == S.flat[0]))
    for row, z in zip(data, zs):
        _require(complex(*row["z"]) == z, f"z {row['z']} != {z}")
        m = np.array([complex(re, im) for re, im in row["m"]])
        _require(m.shape == (k,), f"m has shape {m.shape}")
        _require(bool(np.all(m.imag > 0)), f"Im m <= 0 at z={z}")
        f = 1.0 / (z + S @ m)
        res = float(np.abs(m + f).max())
        # rounding of this recomputation: m + f cancels, and 1/(z + S m)
        # amplifies the error of the sum by |f|^2
        slack = 16 * k * EPS * (float(np.abs(m).max()) + float(np.abs(f).max()) ** 2
                                * (abs(z) + float((np.abs(S) @ np.abs(m)).max())))
        _require(res <= RESIDUAL_TOL + slack, f"residual {res:.3e} at z={z}")
        if constant:
            ref = semicircle_root(float(S.flat[0]) * k, z)
            _require(bool(np.all(np.abs(m - ref) <= 1e-9 * max(1.0, abs(ref)))),
                     f"constant kernel: m={m[0]} != closed form {ref} at z={z}")


def check_qve_measure(text: str, values) -> None:
    """Mass 1, monotone CDF, and moments 2 and 4 from the Catalan recursion."""
    x, rho, cdf = _rows(text, "x,density,cdf").T
    _require(bool(np.all(np.diff(x) > 0)), "grid not increasing")
    _require(bool(np.all(rho >= 0)), "negative density")
    mass = _trapezoid(rho, x)
    _require(abs(mass - 1.0) <= MEASURE_MASS_TOL, f"mass {mass!r}")
    _require(bool(np.all(np.diff(cdf) >= 0)) and cdf[0] >= 0 and cdf[-1] <= 1,
             "cdf not monotone in [0, 1]")
    ref = catalan_moments(values, 4)
    for order in (2, 4):
        got = _trapezoid(rho * x ** order, x)
        _require(_close(got, ref[order], MEASURE_MOMENT_RTOL),
                 f"moment {order}: {got!r} vs recursion {ref[order]!r}")


def check_kernel_compare(text: str, metric: str, e_measure: float, l1: float) -> None:
    """The paper's bounds: d <= 2|E| (interlacing), W2 <= sqrt(||W - W'||_1)."""
    data = json.loads(text)
    _require(data.get("metric") == metric, f"metric {data.get('metric')!r}")
    value = float(data["value"])
    _require(math.isfinite(value) and value >= 0, f"value {value!r}")
    if metric == "d":
        _require(value <= 2.0 * e_measure + INTERLACING_SLACK,
                 f"d = {value!r} > 2|E| = {2.0 * e_measure!r}")
    else:
        _require(value <= math.sqrt(l1) + HW_SLACK,
                 f"W2 = {value!r} > sqrt(L1) = {math.sqrt(l1)!r}")


def check_moments(text: str, values, max_order: int) -> None:
    rows = _rows(text, "order,value")
    _require(rows.shape == (max_order + 1, 2), f"rows {rows.shape}")
    _require(bool(np.all(rows[:, 0] == np.arange(max_order + 1))), "orders")
    ref = catalan_moments(values, max_order)
    unit = np.asarray(values, dtype=float).shape == (1, 1) and float(values[0][0]) == 1.0
    for order, (got, want) in enumerate(zip(rows[:, 1], ref)):
        if unit:
            _require(got == want, f"k=1 moment {order}: {got!r} != Catalan {want!r}")
        _require(_close(got, want, MOMENT_RTOL),
                 f"moment {order}: {got!r} vs recursion {want!r}")


# -- cut norm and cut distance ----------------------------------------------------


def _indicators(k: int) -> np.ndarray:
    return ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1).astype(float)


def brute_cut_norm(values) -> float:
    """max over all pairs of part subsets S, T of |sum_{S x T} W lambda lambda|."""
    V = np.asarray(values, dtype=float)
    k = V.shape[0]
    M = V / (k * k)
    ind = _indicators(k)
    rows = ind @ M
    best = 0.0
    for start in range(0, ind.shape[0], 256):
        best = max(best, float(np.abs(rows[start:start + 256] @ ind.T).max()))
    return best


def check_cut_norm(text: str, diff_values) -> None:
    data = json.loads(text)
    _require(data.get("exact") is True, "not flagged exact")
    brute = brute_cut_norm(diff_values)
    _require(abs(float(data["value"]) - brute) <= CUT_TOL,
             f"cut norm {data['value']!r} vs brute force {brute!r}")


def check_cut_distance(text: str, values_a, values_b) -> None:
    """Exact cut distance: brute force over every part permutation."""
    data = json.loads(text)
    A, B = np.asarray(values_a, float), np.asarray(values_b, float)
    k = A.shape[0]
    perm = list(data["permutation"])
    _require(sorted(perm) == list(range(k)), f"not a permutation: {perm}")
    value = float(data["value"])
    at_perm = brute_cut_norm(A - B[np.ix_(perm, perm)])
    _require(abs(value - at_perm) <= CUT_TOL,
             f"value {value!r} != cut norm at its permutation {at_perm!r}")
    # minimum over every permutation; for a fixed S the best T takes all the
    # positive (or all the negative) entries of the row sum over S
    ind = _indicators(k)
    perms = np.array(list(permutations(range(k))))
    best = math.inf
    for start in range(0, len(perms), 512):
        chunk = perms[start:start + 512]
        rows = ind @ ((A[None, :, :] - B[chunk[:, :, None], chunk[:, None, :]]) / (k * k))
        norms = np.maximum(np.clip(rows, 0, None).sum(axis=2),
                           -np.clip(rows, None, 0).sum(axis=2)).max(axis=1)
        best = min(best, float(norms.min()))
    _require(abs(value - best) <= CUT_TOL, f"value {value!r} vs minimum {best!r}")


# -- rate functions ------------------------------------------------------------


def legendre_h(support, probs, u: float) -> float:
    """h_L(u) = sup_theta theta u - L(theta), L(theta) = E exp(theta A^2) - 1."""
    a2 = np.asarray(support, dtype=float) ** 2
    p = np.asarray(probs, dtype=float)
    if np.all(a2 == a2[0]):
        # |A| constant with unit variance: L = e^theta - 1 in closed form
        return u * math.log(u) - u + 1.0
    pos = a2 > 0
    la, lp = a2[pos], np.log(p[pos] * a2[pos])
    log_u = math.log(u)
    theta = 0.0
    for _ in range(200):
        # Newton on log L'(theta) = log u; log L' is convex and increasing
        e = lp + theta * la
        top = e.max()
        w = np.exp(e - top)
        g = top + math.log(w.sum()) - log_u
        step = g / float((w * la).sum() / w.sum())
        theta -= step
        if abs(step) <= 4 * EPS * max(1.0, abs(theta)):
            break
    L = float(p @ np.expm1(theta * a2))
    return theta * u - L


def check_rate(text: str, law, u_min: float, u_max: float, num: int) -> None:
    rows = _rows(text, "u,h_L")
    us = np.linspace(u_min, u_max, num)
    _require(rows.shape == (num, 2), f"rows {rows.shape}")
    _require(bool(np.all(rows[:, 0] == us)), "u column")
    for u, h in rows:
        ref = legendre_h(law["support"], law["probs"], float(u))
        _require(_close(h, ref, LEGENDRE_TOL, LEGENDRE_TOL),
                 f"h_L({u!r}) = {h!r} vs {ref!r}")


def check_k_alpha(text: str, law, alpha: float, eps: float) -> None:
    """Round trip: psi(K) = h_L(K) / K = alpha / eps."""
    u = float(json.loads(text)["k_alpha"])
    _require(u >= 1.0, f"K = {u!r} < 1")
    psi = legendre_h(law["support"], law["probs"], u) / u
    _require(abs(psi - alpha / eps) <= LEGENDRE_TOL,
             f"psi(K) = {psi!r} vs alpha/eps = {alpha / eps!r}")


# -- sparse Wigner samples and spectra ------------------------------------------


def _triplets(path, n: int):
    with open(path) as fh:
        _require(fh.readline().strip() == "i,j,value", "bad sample header")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        data = np.zeros((0, 3))
    i, j, v = data[:, 0], data[:, 1], data[:, 2]
    _require(bool(np.all(i == np.floor(i)) and np.all(j == np.floor(j))), "indices")
    _require(bool(np.all((0 <= i) & (i < j) & (j < n))), "entries off the upper triangle")
    _require(np.unique(i * n + j).size == i.size, "duplicate entries")
    return i.astype(int), j.astype(int), v


def _within_binomial(count: int, trials: int, prob: float) -> bool:
    mean = trials * prob
    return abs(count - mean) <= 6.0 * math.sqrt(trials * prob * (1 - prob)) + 1


def check_sample(path, n: int, p: float) -> float:
    """Rademacher entries +-1/sqrt(np), Bernoulli(p) edge count; returns sum v^2."""
    i, j, v = _triplets(path, n)
    _require(bool(np.all(np.abs(np.abs(v) * math.sqrt(n * p) - 1.0) <= 1e-12)),
             "entry magnitude is not 1/sqrt(np)")
    _require(_within_binomial(v.size, n * (n - 1) // 2, p),
             f"{v.size} edges, expected about {p * n * (n - 1) / 2:.0f}")
    return float(np.sum(v * v))


def check_tilt(path, n: int, p: float, U) -> float:
    """Per block, the edge probability of the Rademacher law tilted to U(a, b)
    is p u / (1 + p (u - 1)); returns sum v^2."""
    U = np.asarray(U, dtype=float)
    k = U.shape[0]
    i, j, v = _triplets(path, n)
    _require(bool(np.all(np.abs(np.abs(v) * math.sqrt(n * p) - 1.0) <= 1e-12)),
             "entry magnitude is not 1/sqrt(np)")
    size = n // k
    bi, bj = i // size, j // size
    for a in range(k):
        for b in range(a, k):
            count = int(np.sum((bi == a) & (bj == b)))
            pairs = size * (size - 1) // 2 if a == b else size * size
            u = U[a, b]
            _require(_within_binomial(count, pairs, p * u / (1 + p * (u - 1))),
                     f"block ({a},{b}): {count} edges")
    return float(np.sum(v * v))


def _eigenvalues(path) -> np.ndarray:
    with open(path) as fh:
        _require(fh.readline().strip() == "eigenvalue", "bad eigenvalue header")
    return np.atleast_1d(np.loadtxt(path, skiprows=1))


def check_spectrum(path, n: int, sum_sq_entries: float) -> None:
    """Sum of lambda^2 = trace M^2 = 2 * sum of v^2 over the upper triangle."""
    ev = _eigenvalues(path)
    _require(ev.size == n, f"{ev.size} eigenvalues for n={n}")
    _require(bool(np.all(np.diff(ev) >= 0)), "eigenvalues not sorted")
    got, want = float(np.sum(ev * ev)), 2.0 * sum_sq_entries
    _require(_close(got, want, SPECTRUM_RTOL, 1e-12),
             f"sum lambda^2 = {got!r} vs 2 sum v^2 = {want!r}")


def semicircle_cdf(x) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


@functools.lru_cache(maxsize=1)
def _semicircle_quantiles(grid: int) -> np.ndarray:
    return semicircle_quantile((np.arange(grid) + 0.5) / grid)


def semicircle_quantile(t) -> np.ndarray:
    lo, hi = np.full(np.shape(t), -2.0), np.full(np.shape(t), 2.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = semicircle_cdf(mid) < t
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def semicircle_distance(ev, metric: str) -> float:
    """Distance from the uniform measure on ev to the semicircle, closed form."""
    ev = np.sort(np.asarray(ev, dtype=float))
    n = ev.size
    if metric == "ks":
        F = semicircle_cdf(ev)
        right = np.searchsorted(ev, ev, side="right") / n
        left = np.searchsorted(ev, ev, side="left") / n
        return float(max(np.abs(right - F).max(), np.abs(left - F).max()))
    if metric in ("w1", "w2"):
        order = 1 if metric == "w1" else 2
        grid = 200_000
        t = (np.arange(grid) + 0.5) / grid
        q_emp = ev[np.minimum(np.ceil(t * n).astype(int) - 1, n - 1)]
        return float(np.mean(np.abs(q_emp - _semicircle_quantiles(grid)) ** order)
                     ** (1.0 / order))
    z = METRIC_D_GRID
    m_emp = (1.0 / (ev[None, :] - z[:, None])).mean(axis=1)
    m_sc = 0.5 * (-z + np.sqrt(z - 2.0) * np.sqrt(z + 2.0))
    return float(np.abs(m_emp - m_sc).max())


def check_semicircle_compare(text: str, eig_path, metric: str) -> None:
    data = json.loads(text)
    _require(data.get("metric") == metric, f"metric {data.get('metric')!r}")
    ref = semicircle_distance(_eigenvalues(eig_path), metric)
    got = float(data["value"])
    _require(abs(got - ref) <= SEMICIRCLE_TOL[metric],
             f"{metric} = {got!r} vs closed form {ref!r}")


# -- verify -------------------------------------------------------------------


def check_verify(text: str, suite: str, trials: int) -> None:
    want = f"{suite}: 0 violations / {trials} trials\n"
    _require(text == want, f"verify output {text!r}, want {want!r}")

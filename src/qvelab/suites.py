"""Randomized identity and inequality suites.

Each suite returns a SuiteResult with per-trial violation counts; the CLI
``verify`` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ensembles, kernels, measures, qve, rates, trees


@dataclass
class SuiteResult:
    name: str
    trials: int
    violations: int
    details: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_kernel(rng, k, lo=0.0, hi=4.0, equal=True) -> kernels.StepKernel:
    vals = rng.uniform(lo, hi, size=(k, k))
    vals = 0.5 * (vals + vals.T)
    return kernels.StepKernel(kernels.Partition.equal(k), vals)


def _random_atom_measure(rng, n_atoms=6) -> measures.ProbMeasure1D:
    x = rng.uniform(-3, 3, size=n_atoms)
    w = rng.uniform(0.1, 1.0, size=n_atoms)
    return measures.ProbMeasure1D.from_atoms(x, w / w.sum())


def schur_ward_suite(seed=0, trials=100, n_max=100) -> SuiteResult:
    """Schur complement and Ward identity residuals on random matrices."""
    rng = np.random.default_rng(seed)
    violations, details = 0, []
    for t in range(trials):
        n = int(rng.integers(3, n_max + 1))
        M = rng.standard_normal((n, n))
        M = (M + M.T) / np.sqrt(2 * n)
        z = complex(rng.uniform(-1, 1), rng.uniform(1.0, 4.0))
        i = int(rng.integers(0, n))
        scale = 1e-9 * (1.0 + np.abs(M).sum() / z.imag)
        rs = ensembles.schur_residual(M, z, i)
        rw = ensembles.ward_residual(M, z, i)
        if rs > scale or rw > scale:
            violations += 1
            details.append((t, rs, rw))
    return SuiteResult("schur_ward", trials, violations, details)


def stability_suite(seed=0, trials=200) -> SuiteResult:
    """Perturbation bound with kappa = 128 on random kernels."""
    rng = np.random.default_rng(seed)
    violations, details = 0, []
    for t in range(trials):
        k = int(rng.integers(1, 4))
        W = _random_kernel(rng, k)
        snorm = float(np.abs(qve._coupling_matrix(W)).sum(axis=1).max())
        im = qve.STABILITY_KAPPA * max(snorm, 1.0) ** 2 * rng.uniform(1.0, 2.0)
        z = complex(rng.uniform(-im, im) * 0.5, im)
        d = rng.uniform(-1e-3, 1e-3, size=k) + 1j * rng.uniform(-1e-3, 1e-3, size=k)
        rep = qve.stability_check(W, d, z)
        if not rep.holds:
            violations += 1
            details.append((t, rep.lhs, rep.rhs))
    return SuiteResult("stability", trials, violations, details)


def counting_suite(seed=0, trials=200) -> SuiteResult:
    """Counting bound for decorated trees (k <= 4 edges, 3-part kernels)."""
    rng = np.random.default_rng(seed)
    violations, details = 0, []
    for t in range(trials):
        k_edges = int(rng.integers(1, 5))
        pool = trees.enumerate_trees(k_edges)
        tree = pool[int(rng.integers(0, len(pool)))]
        w = [_random_kernel(rng, 3) for _ in range(k_edges)]
        wp = [_random_kernel(rng, 3) for _ in range(k_edges)]
        rep = trees.counting_lemma_check(tree, w, wp)
        if not rep.holds:
            violations += 1
            details.append((t, rep.lhs, rep.rhs))
    return SuiteResult("counting_lemma", trials, violations, details)


def degree_bound_suite(seed=0, trials=200) -> SuiteResult:
    rng = np.random.default_rng(seed)
    violations, details = 0, []
    for t in range(trials):
        k_edges = int(rng.integers(0, 5))
        pool = trees.enumerate_trees(k_edges)
        tree = pool[int(rng.integers(0, len(pool)))]
        w = [_random_kernel(rng, 3) for _ in range(k_edges)]
        part = int(rng.integers(0, 3)) if k_edges else 0
        rep = trees.degree_bound_check(tree, w if k_edges else [], part)
        if not rep.holds:
            violations += 1
            details.append((t, rep.lhs, rep.rhs))
    return SuiteResult("degree_bound", trials, violations, details)


def _coarse_grid(W) -> qve.SpectralGrid:
    """Inversion grid for the inequality suites: 1000 points keeps each trial
    fast while the asserted bounds have >= 1e-3 slack."""
    b = qve.support_bound(W)
    return qve.SpectralGrid(-b - 1.0, b + 1.0, 1000, 1e-3)


def interlacing_suite(seed=0, trials=200) -> SuiteResult:
    """Kernel interlacing bound: modify one part of a 4-part kernel."""
    rng = np.random.default_rng(seed)
    violations, details = 0, []
    for t in range(trials):
        W = _random_kernel(rng, 4)
        vals = W.values.copy()
        i = int(rng.integers(0, 4))
        new_row = rng.uniform(0, 4, size=4)
        vals[i, :] = new_row
        vals[:, i] = new_row
        Wp = kernels.StepKernel(W.partition, vals)
        rep = measures.interlacing_check(W, Wp, 0.25, grid=_coarse_grid(W))
        if not rep.holds:
            violations += 1
            details.append((t, rep.lhs, rep.rhs))
    return SuiteResult("interlacing", trials, violations, details)


def hw_suite(seed=0, trials=200) -> SuiteResult:
    """Hoeffding-Wielandt style bound on random kernel pairs (k <= 4)."""
    rng = np.random.default_rng(seed)
    violations, details = 0, []
    for t in range(trials):
        k = int(rng.integers(1, 5))
        W = _random_kernel(rng, k)
        Wp = _random_kernel(rng, k)
        grid = _coarse_grid(W if qve.support_bound(W) >= qve.support_bound(Wp)
                            else Wp)
        rep = measures.hw_check(W, Wp, grid=grid)
        if not rep.holds:
            violations += 1
            details.append((t, rep.lhs, rep.rhs))
    return SuiteResult("hoeffding_wielandt", trials, violations, details)


def metric_inequality_suite(seed=0, trials=500) -> SuiteResult:
    """metric_d <= min(W1, KS) on random atom-measure pairs."""
    rng = np.random.default_rng(seed)
    violations, details = 0, []
    for t in range(trials):
        mu = _random_atom_measure(rng)
        nu = _random_atom_measure(rng)
        rep = measures.metric_inequality_check(mu, nu)
        if not rep.holds:
            violations += 1
            details.append((t, rep.lhs, rep.rhs))
    return SuiteResult("metric_inequality", trials, violations, details)


def rank_ks_suite(seed=0, trials=200, n=60) -> SuiteResult:
    """KS shift from zeroing r rows/columns is at most 2r/n."""
    rng = np.random.default_rng(seed)
    violations, details = 0, []
    for t in range(trials):
        M = rng.standard_normal((n, n))
        M = (M + M.T) / np.sqrt(2 * n)
        r = int(rng.integers(1, 6))
        rows = rng.choice(n, size=r, replace=False)
        Mp = M.copy()
        Mp[rows, :] = 0.0
        Mp[:, rows] = 0.0
        d = measures.ks_distance(ensembles.esm(M).measure,
                                 ensembles.esm(Mp).measure)
        bound = 2.0 * r / n + 1e-12
        if d > bound:
            violations += 1
            details.append((t, d, bound))
    return SuiteResult("rank_ks", trials, violations, details)


def cut_norm_exactness_suite(seed=0, trials=100, k_max=8) -> SuiteResult:
    """Vertex-enumeration cut norm vs independent subset-pair brute force."""
    rng = np.random.default_rng(seed)
    violations, details = 0, []
    for t in range(trials):
        k = int(rng.integers(1, k_max + 1))
        vals = rng.uniform(-2, 2, size=(k, k))
        vals = 0.5 * (vals + vals.T)
        W = kernels.StepKernel(kernels.Partition.equal(k), vals, signed=True)
        fast = kernels.cut_norm(W).value
        # independent oracle: |s^T M t| over every subset pair (s, t) at
        # once, with no reduction along either side
        mu = W.partition.part_measures
        M = W.values * np.outer(mu, mu)
        ind = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(float)
        brute = float(np.abs(ind @ M @ ind.T).max())
        if abs(fast - brute) > 1e-12:
            violations += 1
            details.append((t, fast, brute))
    return SuiteResult("cut_norm_exactness", trials, violations, details)


def k_alpha_roundtrip_suite(seed=0, trials=100) -> SuiteResult:
    """psi(K_alpha(eps)) = alpha/eps for the Rademacher law."""
    rng = np.random.default_rng(seed)
    pair = rates.LegendrePair(rates.EntryLaw.rademacher())
    violations, details = 0, []
    for t in range(trials):
        # alpha/eps <= 500 keeps the root u = e^(alpha/eps + ...) within
        # float range for the logarithmically growing Rademacher psi
        alpha = float(rng.uniform(1.0, 50.0))
        eps = float(rng.uniform(0.1, 0.98))
        u = rates.k_alpha(pair, alpha, eps)
        psi = rates.legendre_h_L(pair, u) / u
        if abs(psi - alpha / eps) > 1e-9:
            violations += 1
            details.append((t, psi, alpha / eps))
    return SuiteResult("k_alpha_roundtrip", trials, violations, details)


IDENTITY_SUITES = {
    "schur_ward": schur_ward_suite,
}

INEQUALITY_SUITES = {
    "stability": stability_suite,
    "counting_lemma": counting_suite,
    "degree_bound": degree_bound_suite,
    "interlacing": interlacing_suite,
    "hoeffding_wielandt": hw_suite,
    "metric_inequality": metric_inequality_suite,
    "rank_ks": rank_ks_suite,
}

EXTRA_SUITES = {
    "cut_norm_exactness": cut_norm_exactness_suite,
    "k_alpha_roundtrip": k_alpha_roundtrip_suite,
}

ALL_SUITES = {**IDENTITY_SUITES, **INEQUALITY_SUITES, **EXTRA_SUITES}


def run_suites(names, seed=0, trials=None) -> list:
    out = []
    for name in names:
        fn = ALL_SUITES[name]
        kwargs = {"seed": seed}
        if trials is not None:
            kwargs["trials"] = trials
        out.append(fn(**kwargs))
    return out

"""Randomized identity and inequality suites.

Every suite runs through one harness, ``_run``: it seeds one
``numpy.random.default_rng`` and calls the suite's ``trial(rng)`` once per
trial.  A trial draws its random inputs, runs one check and returns a
``CheckReport``; the trial is a violation unless ``report.holds`` (so a NaN
``lhs`` is a violation), and each violation adds ``(t, lhs, rhs)`` to
``SuiteResult.details``.  The harness also keeps the worst margin lhs/rhs,
the trial it came from and the suite's wall time.  The CLI ``verify``
subcommand and the acceptance tests both run these; ``GROUPS`` names the
suite lists ``verify --suite`` accepts besides single suite names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import ensembles, kernels, measures, qve, rates, trees
from .report import CheckReport

KERNEL_VALUES = (0.0, 4.0)      # range of the random kernels' values
MEASURE_ATOMS = 6               # atoms of each random atom measure
RANK_KS_N = 60                  # matrix size of the rank_ks suite
SCHUR_WARD_N_MAX = 100          # largest matrix size of the schur_ward suite
CUT_NORM_EXACTNESS_K_MAX = 8    # most parts of a cut_norm_exactness kernel
# slacks of the suites' own checks, constants so that no call can loosen one
SCHUR_WARD_SCALE = 1e-9         # residual bound per unit of 1 + ||M||_1 / Im z
RANK_KS_SLACK = 1e-12           # added to the 2r/n bound of rank_ks
CUT_NORM_EXACT_TOL = 1e-12      # |exact - brute force| of cut_norm_exactness
K_ALPHA_ROUNDTRIP_TOL = 1e-9    # |psi(K_alpha) - alpha/eps| of k_alpha_roundtrip


@dataclass
class SuiteResult:
    name: str
    trials: int
    violations: int
    worst_margin: float     # max lhs/rhs over the trials; NaN if any is NaN
    worst_trial: int        # the first trial that reached worst_margin
    elapsed_s: float        # wall time of the trials
    details: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _margin(rep: CheckReport) -> float:
    """lhs/rhs of a report; 0/0 reads 0 and a positive lhs over 0 reads inf."""
    if rep.rhs == 0:
        return 0.0 if rep.lhs == 0 else np.inf
    return rep.lhs / rep.rhs


def _run(name, seed, trials, trial) -> SuiteResult:
    """Call ``trial(rng)`` ``trials`` times on one RNG seeded with ``seed``."""
    if trials < 1:
        raise ValueError(f"{name}: trials must be >= 1, got {trials}")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    details = []
    margins = np.empty(trials)
    for t in range(trials):
        rep = trial(rng)
        margins[t] = _margin(rep)
        if not rep.holds:
            details.append((t, rep.lhs, rep.rhs))
    worst = int(np.argmax(margins))   # argmax takes the first NaN, if any
    return SuiteResult(name, trials, len(details), float(margins[worst]), worst,
                       time.perf_counter() - start, details)


def _random_kernel(rng, k) -> kernels.StepKernel:
    vals = rng.uniform(*KERNEL_VALUES, size=(k, k))
    vals = 0.5 * (vals + vals.T)
    return kernels.StepKernel(kernels.Partition.equal(k), vals)


def _random_atom_measure(rng) -> measures.ProbMeasure1D:
    x = rng.uniform(-3, 3, size=MEASURE_ATOMS)
    w = rng.uniform(0.1, 1.0, size=MEASURE_ATOMS)
    return measures.ProbMeasure1D.from_atoms(x, w / w.sum())


def _random_tree(rng, k_edges) -> trees.RootedPlanarTree:
    pool = trees.enumerate_trees(k_edges)
    return pool[int(rng.integers(0, len(pool)))]


def schur_ward_suite(seed=0, trials=100) -> SuiteResult:
    """Schur complement and Ward identity residuals on random matrices of
    size 3..SCHUR_WARD_N_MAX."""
    def trial(rng):
        n = int(rng.integers(3, SCHUR_WARD_N_MAX + 1))
        M = rng.standard_normal((n, n))
        M = (M + M.T) / np.sqrt(2 * n)
        z = complex(rng.uniform(-1, 1), rng.uniform(1.0, 4.0))
        i = int(rng.integers(0, n))
        scale = SCHUR_WARD_SCALE * (1.0 + np.abs(M).sum() / z.imag)
        # np.maximum, unlike max(), keeps a NaN residual from either side
        res = float(np.maximum(ensembles.schur_residual(M, z, i),
                               ensembles.ward_residual(M, z, i)))
        return CheckReport(res, scale, res <= scale)
    return _run("schur_ward", seed, trials, trial)


def stability_suite(seed=0, trials=200) -> SuiteResult:
    """Perturbation bound with kappa = 128 on random kernels."""
    def trial(rng):
        k = int(rng.integers(1, 4))
        W = _random_kernel(rng, k)
        snorm = float(np.abs(qve._coupling_matrix(W)).sum(axis=1).max())
        im = qve.STABILITY_KAPPA * max(snorm, 1.0) ** 2 * rng.uniform(1.0, 2.0)
        z = complex(rng.uniform(-im, im) * 0.5, im)
        d = rng.uniform(-1e-3, 1e-3, size=k) + 1j * rng.uniform(-1e-3, 1e-3, size=k)
        return qve.stability_check(W, d, z)
    return _run("stability", seed, trials, trial)


def counting_suite(seed=0, trials=200) -> SuiteResult:
    """Counting bound for decorated trees (k <= 4 edges, 3-part kernels)."""
    def trial(rng):
        k_edges = int(rng.integers(1, 5))
        tree = _random_tree(rng, k_edges)
        w = [_random_kernel(rng, 3) for _ in range(k_edges)]
        wp = [_random_kernel(rng, 3) for _ in range(k_edges)]
        return trees.counting_lemma_check(tree, w, wp)
    return _run("counting_lemma", seed, trials, trial)


def degree_bound_suite(seed=0, trials=200) -> SuiteResult:
    def trial(rng):
        k_edges = int(rng.integers(0, 5))
        tree = _random_tree(rng, k_edges)
        w = [_random_kernel(rng, 3) for _ in range(k_edges)]
        part = int(rng.integers(0, 3)) if k_edges else 0
        return trees.degree_bound_check(tree, w, part)
    return _run("degree_bound", seed, trials, trial)


def _coarse_grid(W) -> qve.SpectralGrid:
    """Inversion grid of the Hoeffding-Wielandt suite: 1000 points keeps each
    trial fast while the asserted bound has HW_SLACK = 2e-3 slack."""
    b = qve.support_bound(W)
    return qve.SpectralGrid(-b - 1.0, b + 1.0, 1000, 1e-3)


def interlacing_suite(seed=0, trials=200) -> SuiteResult:
    """Kernel interlacing bound: modify one part of a 4-part kernel."""
    def trial(rng):
        W = _random_kernel(rng, 4)
        vals = W.values.copy()
        i = int(rng.integers(0, 4))
        new_row = rng.uniform(0, 4, size=4)
        vals[i, :] = new_row
        vals[:, i] = new_row
        Wp = kernels.StepKernel(W.partition, vals)
        return measures.interlacing_check(W, Wp, 0.25)
    return _run("interlacing", seed, trials, trial)


def hw_suite(seed=0, trials=200) -> SuiteResult:
    """Hoeffding-Wielandt style bound on random kernel pairs (k <= 4)."""
    def trial(rng):
        k = int(rng.integers(1, 5))
        W = _random_kernel(rng, k)
        Wp = _random_kernel(rng, k)
        grid = _coarse_grid(W if qve.support_bound(W) >= qve.support_bound(Wp)
                            else Wp)
        return measures.hw_check(W, Wp, grid=grid)
    return _run("hoeffding_wielandt", seed, trials, trial)


def metric_inequality_suite(seed=0, trials=500) -> SuiteResult:
    """metric_d <= min(W1, KS) on random atom-measure pairs."""
    def trial(rng):
        mu = _random_atom_measure(rng)
        nu = _random_atom_measure(rng)
        return measures.metric_inequality_check(mu, nu)
    return _run("metric_inequality", seed, trials, trial)


def rank_ks_suite(seed=0, trials=200) -> SuiteResult:
    """KS shift from zeroing r rows/columns is at most 2r/n, n = RANK_KS_N."""
    n = RANK_KS_N

    def trial(rng):
        M = rng.standard_normal((n, n))
        M = (M + M.T) / np.sqrt(2 * n)
        r = int(rng.integers(1, 6))
        rows = rng.choice(n, size=r, replace=False)
        Mp = M.copy()
        Mp[rows, :] = 0.0
        Mp[:, rows] = 0.0
        d = measures.ks_distance(ensembles.esm(M), ensembles.esm(Mp))
        bound = 2.0 * r / n + RANK_KS_SLACK
        return CheckReport(d, bound, d <= bound)
    return _run("rank_ks", seed, trials, trial)


def cut_norm_exactness_suite(seed=0, trials=100) -> SuiteResult:
    """Vertex-enumeration cut norm vs independent subset-pair brute force,
    k = 1..CUT_NORM_EXACTNESS_K_MAX parts."""
    def trial(rng):
        k = int(rng.integers(1, CUT_NORM_EXACTNESS_K_MAX + 1))
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
        err = abs(fast - brute)
        return CheckReport(err, CUT_NORM_EXACT_TOL, err <= CUT_NORM_EXACT_TOL)
    return _run("cut_norm_exactness", seed, trials, trial)


def k_alpha_roundtrip_suite(seed=0, trials=100) -> SuiteResult:
    """psi(K_alpha(eps)) = alpha/eps for the Rademacher law."""
    law = rates.EntryLaw.rademacher()

    def trial(rng):
        # alpha/eps <= 500 keeps the root u = e^(alpha/eps + ...) within
        # float range for the logarithmically growing Rademacher psi
        alpha = float(rng.uniform(1.0, 50.0))
        eps = float(rng.uniform(0.1, 0.98))
        u = rates.k_alpha(law, alpha, eps)
        err = abs(rates.legendre_h_L(law, u) / u - alpha / eps)
        return CheckReport(err, K_ALPHA_ROUNDTRIP_TOL, err <= K_ALPHA_ROUNDTRIP_TOL)
    return _run("k_alpha_roundtrip", seed, trials, trial)


ALL_SUITES = {
    "schur_ward": schur_ward_suite,
    "stability": stability_suite,
    "counting_lemma": counting_suite,
    "degree_bound": degree_bound_suite,
    "interlacing": interlacing_suite,
    "hoeffding_wielandt": hw_suite,
    "metric_inequality": metric_inequality_suite,
    "rank_ks": rank_ks_suite,
    "cut_norm_exactness": cut_norm_exactness_suite,
    "k_alpha_roundtrip": k_alpha_roundtrip_suite,
}

GROUPS = {
    "identities": ["schur_ward"],
    "inequalities": ["stability", "counting_lemma", "degree_bound", "interlacing",
                     "hoeffding_wielandt", "metric_inequality", "rank_ks"],
    "all": list(ALL_SUITES),
}


def run_suites(names, seed=0, trials=None) -> list:
    kwargs = {} if trials is None else {"trials": trials}
    return [ALL_SUITES[name](seed=seed, **kwargs) for name in names]

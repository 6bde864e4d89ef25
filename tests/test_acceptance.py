"""Acceptance criteria, one test per criterion with a printed pass/fail line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np

from qvelab import cli, ensembles, kernels, measures, qve, rates, suites, trees
from qvelab.kernels import Partition, StepKernel
from qvelab.rates import EntryLaw


def report(num, ok, desc):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def random_kernel(rng, k, hi=4.0):
    vals = rng.uniform(0.0, hi, size=(k, k))
    vals = 0.5 * (vals + vals.T)
    return StepKernel(Partition.equal(k), vals)


def test_criterion_1_semicircle_oracle():
    # 50 points, closed-form root of m^2 + zm + 1 = 0, error <= 1e-10, < 1 s
    rng = np.random.default_rng(0)
    z = rng.uniform(-3.0, 3.0, 50) + 1j * rng.uniform(0.1, 10.0, 50)
    t0 = time.time()
    sol = qve.solve_qve(StepKernel.constant(1.0), z)
    elapsed = time.time() - t0
    r = np.sqrt(z ** 2 - 4.0 + 0j)
    m1, m2 = (-z + r) / 2.0, (-z - r) / 2.0
    exact = np.where(m1.imag > 0, m1, m2)
    err = float(np.abs(sol.m_values[:, 0] - exact).max())
    report(1, err <= 1e-10 and elapsed < 1.0,
           f"semicircle oracle: max error {err:.2e}, {elapsed:.2f} s")


def test_criterion_2_catalan_moments():
    # qve_moment equals Catalan(k) exactly for orders 2..12; odd moments 0
    W = StepKernel.constant(1.0)
    ok = all(trees.qve_moment(2 * k, W) == float(c)
             for k, c in enumerate([1, 1, 2, 5, 14, 42, 132]))
    ok = ok and all(trees.qve_moment(o, W) == 0.0 for o in range(1, 13, 2))
    report(2, ok, "Catalan moment identity exact for orders 0..12")


def test_criterion_3_three_way_moments():
    # 20 random 3-part kernels: tree formula vs Stieltjes inversion
    # (|delta| <= 1e-3) vs dense variance-profile Monte Carlo ESM (<= 5%)
    t0 = time.time()
    rng = np.random.default_rng(42)
    n = 2000
    worst_grid, worst_mc = 0.0, 0.0
    for trial in range(20):
        W = random_kernel(rng, 3)
        mu = qve.qve_measure(W)
        # dense profile: X_ij = A_ij sigma_ij / sqrt(n), sigma^2 = W on blocks
        block = np.minimum((np.arange(n) * 3) // n, 2)
        sigma = np.sqrt(W.values[np.ix_(block, block)])
        A = rng.choice([-1.0, 1.0], size=(n, n))
        A = np.triu(A, 1)
        X = (A + A.T) * sigma / math.sqrt(n)
        ev = np.linalg.eigvalsh(X)
        for order in (2, 4):
            tree_m = trees.qve_moment(order, W)
            grid_m = mu.moment(order)
            mc_m = float(np.mean(ev ** order))
            worst_grid = max(worst_grid, abs(grid_m - tree_m))
            worst_mc = max(worst_mc, abs(mc_m - tree_m) / tree_m)
    elapsed = time.time() - t0
    report(3, worst_grid <= 1e-3 and worst_mc <= 0.05 and elapsed < 300.0,
           f"three-way moments: grid |delta| {worst_grid:.2e}, "
           f"MC rel {worst_mc:.3f}, {elapsed:.0f} s")


def test_criterion_4_rademacher_rate():
    # h_L equals u ln u - u + 1 within 1e-9 on a 500-point grid
    law = EntryLaw.rademacher()
    us = np.linspace(0.01, 50.0, 500)
    err = max(abs(rates.legendre_h_L(law, float(u))
                  - (u * math.log(u) - u + 1.0)) for u in us)
    report(4, err <= 1e-9, f"Rademacher rate closed form: max error {err:.2e}")


def test_criterion_5_typicality():
    # n = 2000, p = 0.05: KS(ESM, semicircle) <= 0.05 in >= 9/10 seeds, < 2 min
    t0 = time.time()
    law = EntryLaw.rademacher()
    ref = qve.semicircle_reference()
    hits = 0
    for seed in range(10):
        s = ensembles.sample_sparse_wigner(2000, 0.05, law, seed)
        d = measures.ks_distance(ensembles.esm(s), ref)
        hits += d <= 0.05
    elapsed = time.time() - t0
    report(5, hits >= 9 and elapsed < 120.0,
           f"typicality: {hits}/10 seeds within KS 0.05, {elapsed:.0f} s")


def test_criterion_6_tilted_deviation():
    # 2-block U = [[2, 0.5], [0.5, 2]]: median KS(tilted ESM, qve_measure(U))
    # over 10 seeds <= 0.08
    law = EntryLaw.rademacher()
    U = StepKernel(Partition.equal(2), [[2.0, 0.5], [0.5, 2.0]])
    target = qve.qve_measure(U)
    dists = []
    for seed in range(10):
        s = ensembles.tilted_sample(2000, 0.05, law, U, seed)
        dists.append(measures.ks_distance(ensembles.esm(s), target))
    med = float(np.median(dists))
    report(6, med <= 0.08, f"tilted deviation: median KS {med:.4f}")


def test_criterion_7_exact_identities():
    # Schur and Ward residuals <= 1e-9 on 100 random matrices up to n = 100
    res = suites.schur_ward_suite(seed=0, trials=100)
    report(7, res.violations == 0,
           f"Schur/Ward identities: {res.violations} violations / 100")


def test_criterion_8_inequality_suites():
    # zero violations across 200 randomized trials each
    names = ["stability", "counting_lemma", "degree_bound", "interlacing",
             "hoeffding_wielandt", "metric_inequality", "rank_ks"]
    results = suites.run_suites(names, seed=0, trials=200)
    bad = {r.name: r.violations for r in results if r.violations}
    report(8, not bad,
           "inequality suites 200 trials each: "
           + ("zero violations" if not bad else f"violations {bad}"))


def test_criterion_9_cut_norm_exactness():
    # vertex enumeration equals subset-pair brute force on 100 kernels, k <= 8
    res = suites.cut_norm_exactness_suite(seed=0, trials=100)
    report(9, res.violations == 0,
           f"cut-norm exactness: {res.violations} mismatches / 100")


def test_criterion_10_k_alpha_round_trip():
    # psi(K_alpha(eps)) = alpha/eps within 1e-9 for 100 random pairs
    res = suites.k_alpha_roundtrip_suite(seed=0, trials=100)
    report(10, res.violations == 0,
           f"k_alpha round trip: {res.violations} failures / 100")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    # every CLI subcommand re-run with the same seed is byte-identical
    kpath = tmp_path / "const1.json"
    kernels.save_kernel(StepKernel.constant(1.0), kpath)
    upath = tmp_path / "u.json"
    kernels.save_kernel(StepKernel(Partition.equal(2),
                                   [[2.0, 0.5], [0.5, 2.0]]), upath)
    runs = {
        "qve-solve": ["qve-solve", "--kernel", str(kpath), "--z", "0+2i",
                      "--z", "1+1i"],
        "qve-measure": ["qve-measure", "--kernel", str(kpath),
                        "--grid=-3:3:300:0.001"],
        "moments": ["moments", "--kernel", str(kpath), "--max-order", "6"],
        "rate": ["rate", "--u-min", "0.5", "--u-max", "5", "--num", "20"],
        "k-alpha": ["k-alpha", "--alpha", "2", "--eps", "0.3"],
        "sample": ["sample", "--n", "40", "--p", "0.2", "--seed", "11"],
        "tilt": ["tilt", "--kernel", str(upath), "--n", "40", "--p", "0.2",
                 "--seed", "11"],
        "spectrum": ["spectrum", "--n", "40", "--p", "0.2", "--seed", "11"],
        "cutnorm": ["cutnorm", "--kernel", str(kpath), "--minus", str(upath)],
        "verify": ["verify", "--suite", "schur_ward", "--seed", "3",
                   "--trials", "5"],
    }
    stable = True
    for name, argv in runs.items():
        out = tmp_path / f"{name}.out"
        argv = argv + ["--out", str(out)]
        assert cli.main(list(argv)) == 0
        first = out.read_bytes()
        assert cli.main(list(argv)) == 0
        if out.read_bytes() != first:
            stable = False
            break
    # compare reads files, writes to stdout: capture and compare text
    eig = tmp_path / "spectrum.out"
    argv = ["compare", "--a", str(eig), "--b", "semicircle", "--metric", "ks"]
    capsys.readouterr()
    assert cli.main(list(argv)) == 0
    first_txt = capsys.readouterr().out
    assert cli.main(list(argv)) == 0
    stable = stable and capsys.readouterr().out == first_txt
    report(11, stable, "CLI determinism: byte-identical reruns")

"""Seeded operation streams, one per workload.

A workload writes its input files (kernels, laws) at set-up, then yields an
endless stream of operations.  Each operation is a README CLI command run
through ``qvelab.cli.main`` in-process, or a library call where no subcommand
exists, together with the oracle that checks its output file.

The kind and size of the i-th operation are the same for every seed; the seed
draws the values (kernel entries, points, sample seeds).  Runs with different
seeds therefore do the same mix of work, which keeps their timings comparable.

A run issues a fixed number of operations, ``batch(seconds)``, not as many as
fit in a clock window: then every run attempts the same kinds of operation and
fails on the same ones, whatever the machine's speed.  ``RATE`` is the rate of
the stream measured at the reference commit on a 2-vCPU Xeon VM, so that a
batch takes about ``seconds`` there; the batch is a whole number of ``ROUND``s,
the stream's unit of mixed work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


@dataclass
class Op:
    """One operation; ``execute`` writes its output to ``out`` (or ``dest``)."""

    kind: str
    out: Path
    check: Callable[[], None]
    argv: list | None = None                 # CLI argv without --out
    call: Callable[[Path], None] | None = None

    def execute(self, dest: Path | None = None) -> int:
        dest = self.out if dest is None else dest
        if self.argv is not None:
            from qvelab import cli

            return cli.main(self.argv + ["--out", str(dest)])
        self.call(dest)
        return 0


def _num(x: float) -> str:
    return repr(round(float(x), 6))


def _complex_arg(z: complex) -> str:
    # '--z=a+bi': the '=' form keeps a leading '-' from reading as a flag
    return f"--z={_num(z.real)}+{_num(z.imag)}i"


def _sym_uniform(rng, k: int, lo: float, hi: float) -> np.ndarray:
    V = rng.uniform(lo, hi, size=(k, k))
    return np.triu(V) + np.triu(V, 1).T


def _write_kernel(path: Path, values) -> dict:
    k = len(values)
    path.write_text(json.dumps({
        "boundaries": [f"{i}/{k}" for i in range(1, k + 1)],
        "values": np.asarray(values, dtype=float).tolist(),
    }))
    return {"path": str(path), "values": np.asarray(values, dtype=float)}


def _write_law(path: Path, rng, size: int) -> dict:
    """Finite law with mean 0 and variance 1; probabilities at least 0.1."""
    x = rng.uniform(-3.0, 3.0, size=size)
    p = rng.uniform(0.5, 1.0, size=size)
    p = p / p.sum()
    x = x - p @ x
    x = x / np.sqrt(p @ (x * x))
    law = {"support": x.tolist(), "probs": p.tolist()}
    path.write_text(json.dumps(law))
    return {"path": str(path), **law}


RADEMACHER = {"path": None, "support": [-1.0, 1.0], "probs": [0.5, 0.5]}


class Workload:
    name = ""
    ROUND = 1          # operations in one unit of the stream's mix
    RATE = 1.0         # operations per second at the reference commit

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.outputs = workdir / "outputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)
        self.make_inputs(np.random.default_rng([seed, 0]))

    @classmethod
    def batch(cls, seconds: float) -> int:
        """Operations in a run meant to last about `seconds`."""
        return cls.ROUND * max(1, round(seconds * cls.RATE / cls.ROUND))

    def make_inputs(self, rng) -> None:
        raise NotImplementedError

    def stream(self, rng, out: Callable[[str], Path]):
        raise NotImplementedError

    def warmup(self) -> list:
        raise NotImplementedError

    def warm_out(self, tag: str):
        return lambda ext: self.outputs / f"warmup-{tag}.{ext}"

    def ops(self, phase: str):
        """The operation stream; every call restarts it from the same seed."""
        counter = iter(range(10 ** 9))

        def out(ext):
            return self.outputs / f"{phase}-{next(counter):06d}.{ext}"

        return self.stream(np.random.default_rng([self.seed, 1]), out)


# -- spectral -----------------------------------------------------------------


class Spectral(Workload):
    """Kernel -> QVE solve -> Stieltjes inversion -> spectral distance.

    Two thirds of the operations are small far-axis solves; the rest are
    near-axis solves, inversions and kernel comparisons.  The median falls in
    the far-axis solves and the tail in the inversions.
    """

    name = "spectral"
    POOL = 4
    ROUND = 18         # six near-axis kinds, each after two far-axis solves
    RATE = 5.9

    def make_inputs(self, rng):
        self.kernels = {k: [_write_kernel(self.inputs / f"W{k}_{i}.json",
                                          _sym_uniform(rng, k, 0.0, 4.0))
                            for i in range(self.POOL)] for k in range(1, 9)}
        # kernel pairs: 'interlacing' differ in one part, 'hw' are independent
        self.pairs = {}
        for k in (2, 3, 4):
            for i in range(self.POOL):
                A = _sym_uniform(rng, k, 0.0, 4.0)
                B = A.copy()
                part = int(rng.integers(0, k))
                row = rng.uniform(0.0, 4.0, size=k)
                B[part, :], B[:, part] = row, row
                self.pairs[("interlacing", k, i)] = self._pair(k, i, "I", A, B, 1.0 / k)
                A, B = _sym_uniform(rng, k, 0.0, 4.0), _sym_uniform(rng, k, 0.0, 4.0)
                self.pairs[("hw", k, i)] = self._pair(k, i, "H", A, B, 1.0)

    def _pair(self, k, i, tag, A, B, e_measure):
        a = _write_kernel(self.inputs / f"{tag}{k}_{i}a.json", A)
        b = _write_kernel(self.inputs / f"{tag}{k}_{i}b.json", B)
        l1 = float(np.abs(A - B).sum()) / (k * k)
        return {"a": a, "b": b, "e": e_measure, "l1": l1}

    def _solve(self, kernel, zs, out, kind):
        path = out("json")
        argv = ["qve-solve", "--kernel", kernel["path"]] + [_complex_arg(z) for z in zs]
        parsed = [complex(float(_num(z.real)), float(_num(z.imag))) for z in zs]
        return Op(kind, path, lambda: oracles.check_qve_solution(
            path.read_text(), kernel["values"], parsed), argv=argv)

    def _measure(self, kernel, points, out):
        path = out("csv")
        g = _num(oracles.support_bound(kernel["values"]) + 1.0)
        argv = ["qve-measure", "--kernel", kernel["path"],
                f"--grid=-{g}:{g}:{points}:0.001"]
        return Op(f"qve-measure-{points}", path, lambda: oracles.check_qve_measure(
            path.read_text(), kernel["values"]), argv=argv)

    def _compare(self, pair, metric, out, shape):
        path = out("json")
        argv = ["compare", "--a", pair["a"]["path"], "--b", pair["b"]["path"],
                "--metric", metric]
        return Op(f"compare-{shape}-{metric}", path, lambda: oracles.check_kernel_compare(
            path.read_text(), metric, pair["e"], pair["l1"]), argv=argv)

    def _small(self, rng, s, out):
        k, batch = s % 8 + 1, (3 * s) % 8 + 1
        kernel = self.kernels[k][int(rng.integers(self.POOL))]
        b = oracles.support_bound(kernel["values"]) + 0.5
        zs = rng.uniform(-b, b, batch) + 1j * rng.uniform(0.5, 10.0, batch)
        return self._solve(kernel, zs, out, "qve-solve-far")

    def _near(self, rng, r, out):
        """The r-th near-axis operation: six kinds in turn; each kind meets
        every k in 1..8 (and every pair size in 2..4) over successive rounds."""
        slot, block = r % 6, r // 6
        kernel = self.kernels[(r + block) % 8 + 1][int(rng.integers(self.POOL))]
        pair_k, pair_i = block % 3 + 2, int(rng.integers(self.POOL))
        if slot in (0, 3):
            eta = 1e-2 if slot == 0 else 1e-3
            b = oracles.support_bound(kernel["values"]) + 0.5
            zs = np.sort(rng.uniform(-b, b, 300)) + 1j * eta
            return self._solve(kernel, zs, out, f"qve-solve-near-{eta:g}")
        if slot in (1, 4):
            return self._measure(kernel, 1000 if slot == 1 else 4000, out)
        shape = "interlacing" if slot == 2 else "hw"
        metric = ("d", "w2")[(r // 6 + (slot == 5)) % 2]
        return self._compare(self.pairs[(shape, pair_k, pair_i)], metric, out, shape)

    def stream(self, rng, out):
        s = r = 0
        while True:
            # two far-axis solves, then one near-axis operation
            for _ in range(2):
                yield self._small(rng, s, out)
                s += 1
            yield self._near(rng, r, out)
            r += 1

    def warmup(self):
        kernel = self.kernels[1][0]
        return [self._solve(kernel, [0.5 + 1j], self.warm_out("solve"), "warmup"),
                self._measure(kernel, 1000, self.warm_out("measure"))]


# -- ensemble -----------------------------------------------------------------


class Ensemble(Workload):
    """Sparse Wigner sample -> CSV -> spectrum -> distance to the semicircle.

    No QVE solve runs: the semicircle is closed form.  n sets the working set
    against the caches, p the CSV size.  One comparison per spectrum keeps the
    failing metric d (a grid Stieltjes transform) below ten per run, so the
    tail stays among successful n = 2000 operations.
    """

    name = "ensemble"
    ROUND = 4          # sample or tilt, two spectra, one comparison
    RATE = 2.6
    # a Latin-square order, so a run cut mid-cycle still mixes sizes and sparsities
    COMBOS = [(500, 0.01), (1000, 0.05), (2000, 0.2), (1000, 0.01), (2000, 0.05),
              (500, 0.2), (2000, 0.01), (500, 0.05), (1000, 0.2)]
    METRICS = ("ks", "w1", "w2", "d")
    BLOCKS = (1, 2, 4, 5, 10)    # all divide every n

    def make_inputs(self, rng):
        self.tilts = [_write_kernel(self.inputs / f"U{k}.json", _sym_uniform(rng, k, 0.5, 3.0))
                      for k in self.BLOCKS]
        self.sum_sq = {}         # sample path -> sum of v^2, filled by the checks

    def _sample(self, n, p, seed, out):
        path = out("csv")
        argv = ["sample", "--n", str(n), "--p", str(p), "--seed", str(seed)]

        def check():
            self.sum_sq[str(path)] = oracles.check_sample(path, n, p)
        return Op(f"sample-{n}", path, check, argv=argv)

    def _tilt(self, n, p, seed, U, out):
        path = out("csv")
        argv = ["tilt", "--kernel", U["path"], "--n", str(n), "--p", str(p),
                "--seed", str(seed)]

        def check():
            self.sum_sq[str(path)] = oracles.check_tilt(path, n, p, U["values"])
        return Op(f"tilt-{n}", path, check, argv=argv)

    def _spectrum(self, n, matrix: Path, argv_tail, out, kind):
        path = out("csv")

        def check():
            if str(matrix) not in self.sum_sq:
                raise oracles.Mismatch(f"no checked sample {matrix.name} to compare with")
            oracles.check_spectrum(path, n, self.sum_sq[str(matrix)])
        return Op(f"{kind}-{n}", path, check, argv=["spectrum", "--n", str(n)] + argv_tail)

    def _compare(self, eig: Path, metric, out, n):
        path = out("json")
        argv = ["compare", "--a", str(eig), "--b", "semicircle", "--metric", metric]
        return Op(f"compare-{metric}-{n}", path, lambda: oracles.check_semicircle_compare(
            path.read_text(), eig, metric), argv=argv)

    def stream(self, rng, out):
        last_sample = {}
        cycle = 0
        while True:
            # even cycles sample, odd cycles tilt; a tilt cycle's seeded spectrum
            # redraws the previous cycle's sample, whose CSV gives its oracle
            for j, (n, p) in enumerate(self.COMBOS):
                seed = int(rng.integers(0, 2 ** 32))
                if cycle % 2 == 0:
                    first = self._sample(n, p, seed, out)
                    last_sample[j] = (seed, first.out)
                else:
                    U = self.tilts[(cycle // 2 + j) % len(self.tilts)]
                    first = self._tilt(n, p, seed, U, out)
                yield first
                yield self._spectrum(n, first.out, ["--matrix", str(first.out)], out,
                                     "spectrum-matrix")
                seed_s, sample_path = last_sample[j]
                seeded = self._spectrum(n, sample_path,
                                        ["--p", str(p), "--seed", str(seed_s)], out,
                                        "spectrum-seed")
                yield seeded
                metric = self.METRICS[(cycle * len(self.COMBOS) + j) % 4]
                yield self._compare(seeded.out, metric, out, n)
            cycle += 1

    def warmup(self):
        first = self._sample(100, 0.2, 1, self.warm_out("sample"))
        eig = self._spectrum(100, first.out, ["--matrix", str(first.out)],
                             self.warm_out("eig"), "warmup")
        seeded = self._spectrum(100, first.out, ["--p", "0.2", "--seed", "1"],
                                self.warm_out("eig2"), "warmup")
        return [first, eig, seeded, self._compare(eig.out, "ks", self.warm_out("cmp"), 100)]


# -- kernel statistics ----------------------------------------------------------


class KernelStats(Workload):
    """Tree moments, exact cut norms and distances, rate functions: trees,
    kernels and rates do all the work and no QVE solve runs."""

    name = "kernel_stats"
    POOL = 3
    ROUND = 8          # one pass over CYCLE
    RATE = 16.0
    # three cut norms per eight operations put the median inside the k-alpha
    # cluster rather than on the gap between two clusters, where it would jump
    CYCLE = ("cutnorm", "rate", "moments", "cutnorm", "k-alpha", "cut_distance",
             "cutnorm", "rate")
    # --max-order 8..18, heavy and light alternating: the cost triples per
    # order, so a batch cut anywhere holds a like share of heavy ones
    ORDERS = (8, 18, 9, 17, 10, 16, 11, 15, 12, 14, 13)

    def make_inputs(self, rng):
        self.moment_kernels = {
            k: [_write_kernel(self.inputs / f"M{k}_{i}.json",
                              np.ones((1, 1)) if k == 1 else _sym_uniform(rng, k, 0.0, 4.0))
                for i in range(self.POOL)] for k in range(1, 9)}
        self.cut_pairs = {
            k: [(_write_kernel(self.inputs / f"C{k}_{i}a.json", _sym_uniform(rng, k, 0.0, 4.0)),
                 _write_kernel(self.inputs / f"C{k}_{i}b.json", _sym_uniform(rng, k, 0.0, 4.0)))
                for i in range(self.POOL)] for k in range(2, 13)}
        self.laws = [_write_law(self.inputs / f"law{i}.json", rng, 2 + i % 4)
                     for i in range(4)]

    def _law(self, i):
        return RADEMACHER if i % 2 == 0 else self.laws[(i // 2) % len(self.laws)]

    @staticmethod
    def _law_flag(law):
        return [] if law["path"] is None else ["--law", law["path"]]

    def _op(self, kind, q, rng, out):
        pick = int(rng.integers(self.POOL))
        if kind == "moments":
            k, order = q % 8 + 1, self.ORDERS[q % len(self.ORDERS)]
            W = self.moment_kernels[k][pick]
            path = out("csv")
            return Op(f"moments-{order}", path, lambda: oracles.check_moments(
                path.read_text(), W["values"], order),
                argv=["moments", "--kernel", W["path"], "--max-order", str(order)])
        if kind == "cutnorm":
            A, B = self.cut_pairs[2 + q % 11][pick]
            path = out("json")
            return Op("cutnorm", path, lambda: oracles.check_cut_norm(
                path.read_text(), A["values"] - B["values"]),
                argv=["cutnorm", "--kernel", A["path"], "--minus", B["path"]])
        if kind == "cut_distance":
            A, B = self.cut_pairs[2 + q % 6][pick]
            path = out("json")
            return Op("cut_distance", path, lambda: oracles.check_cut_distance(
                path.read_text(), A["values"], B["values"]),
                call=lambda dest: _cut_distance(A["path"], B["path"], dest))
        law = self._law(q)
        path = out("csv" if kind == "rate" else "json")
        if kind == "rate":
            u_min, u_max = float(_num(rng.uniform(0.05, 1.0))), float(_num(rng.uniform(2.0, 10.0)))
            return Op("rate", path, lambda: oracles.check_rate(
                path.read_text(), law, u_min, u_max, 100),
                argv=["rate", *self._law_flag(law), "--u-min", _num(u_min),
                      "--u-max", _num(u_max), "--num", "100"])
        alpha, eps = float(_num(rng.uniform(1.0, 4.0))), float(_num(rng.uniform(0.2, 0.9)))
        return Op("k-alpha", path, lambda: oracles.check_k_alpha(
            path.read_text(), law, alpha, eps),
            argv=["k-alpha", *self._law_flag(law), "--alpha", _num(alpha),
                  "--eps", _num(eps)])

    def stream(self, rng, out):
        seen = {kind: 0 for kind in self.CYCLE}
        while True:
            for kind in self.CYCLE:
                yield self._op(kind, seen[kind], rng, out)
                seen[kind] += 1

    def warmup(self):
        rng = np.random.default_rng([self.seed, 3])
        return [self._op(kind, 0, rng, self.warm_out(kind))
                for kind in ("cutnorm", "cut_distance", "rate", "k-alpha")]


def _cut_distance(path_a: str, path_b: str, dest: Path) -> None:
    """Exact cut distance through the library: the CLI has no subcommand for it."""
    from qvelab import kernels

    res = kernels.cut_distance(kernels.load_kernel(path_a), kernels.load_kernel(path_b))
    dest.write_text(json.dumps({"value": res.value,
                                "permutation": [int(i) for i in res.permutation]}))


# -- verify -------------------------------------------------------------------


class Verify(Workload):
    """`verify --suite <name>` over all ten suites.  Trials are 1/20 of each
    suite's default, so time shares mirror `verify --suite all`.

    The c-th run of a suite passes `--seed c`, whatever the workload seed.
    A suite's cost hangs on its seeded draws (a cut_norm_exactness trial costs
    4^k k^2 for a random k in 1..8); with per-run seeds the throughput of
    five 20 s runs on a 2-vCPU Xeon VM spread by 31% of its median.
    """

    name = "verify"
    ROUND = 10         # one run of every suite
    RATE = 4.5
    # default trial counts of the suites, fixed here so the work stays put
    SUITES = {"schur_ward": 100, "stability": 200, "counting_lemma": 200,
              "degree_bound": 200, "interlacing": 200, "hoeffding_wielandt": 200,
              "metric_inequality": 500, "rank_ks": 200, "cut_norm_exactness": 100,
              "k_alpha_roundtrip": 100}
    SCALE = 20

    def make_inputs(self, rng):
        pass

    def _suite(self, suite, trials, seed, out):
        path = out("txt")
        return Op(f"verify-{suite}", path, lambda: oracles.check_verify(
            path.read_text(), suite, trials),
            argv=["verify", "--suite", suite, "--seed", str(seed), "--trials", str(trials)])

    def stream(self, rng, out):
        cycle = 0
        while True:
            for suite, default in self.SUITES.items():
                yield self._suite(suite, max(1, default // self.SCALE), cycle, out)
            cycle += 1

    def warmup(self):
        return [self._suite(s, 1, 0, self.warm_out(s))
                for s in ("schur_ward", "metric_inequality", "rank_ks")]


WORKLOADS = {cls.name: cls for cls in (Spectral, Ensemble, KernelStats, Verify)}

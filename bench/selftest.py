"""Self-tests of the benchmark.

Every oracle accepts a correct output and rejects a deliberately perturbed
one; the latency arithmetic is checked on synthetic lists.  Correct outputs
come from the program where its operation succeeds, and are built from closed
forms where it does not.  Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import latency  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import Mismatch  # noqa: E402


class LatencyArithmetic(unittest.TestCase):
    def test_failures_rank_after_every_success(self):
        eff = latency.effective_latencies([0.5, 0.1, 0.2, 0.05, 0.3],
                                          [True, True, False, True, False])
        self.assertEqual(eff, [0.05, 0.1, 0.5, 0.5 + 0.2, 0.5 + 0.3])

    def test_failures_only(self):
        self.assertEqual(latency.effective_latencies([0.2, 0.1], [False, False]), [0.1, 0.2])

    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(latency.percentile(values, 50), 50.0)
        self.assertEqual(latency.percentile(values, 90), 90.0)
        self.assertEqual(latency.percentile(values, 100), 100.0)
        self.assertEqual(latency.percentile([7.0], 50), 7.0)
        self.assertEqual(latency.percentile([1.0, 2.0, 3.0], 50), 2.0)

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        for n in range(1, 600):
            q = latency.tail_percentile(n)
            if n < 2 * latency.TAIL_BEYOND:
                self.assertEqual(q, 50)
                continue
            self.assertGreaterEqual(n - latency.rank(q, n), latency.TAIL_BEYOND)
            self.assertEqual(latency.rank(q, n), math.ceil(q * n / 100))
            if q < 100:
                self.assertLess(n - latency.rank(q + 1, n), latency.TAIL_BEYOND)

    def test_summary_of_a_synthetic_run(self):
        # 100 operations, the 5 with the longest nominal times fail
        lat = [0.001 * (i + 1) for i in range(100)]
        ok = [i < 95 for i in range(100)]
        s = latency.summarize(lat, ok)
        self.assertEqual(s["tail_percentile"], 90)
        self.assertEqual(s["p50"], lat[49])
        self.assertEqual(s["tail"], lat[89])
        # a failure early in the list still ranks slowest
        ok = [i != 0 for i in range(100)]
        eff = latency.effective_latencies(lat, ok)
        self.assertEqual(eff[-1], lat[-1] + lat[0])
        self.assertEqual(latency.summarize(lat, ok)["p50"], lat[50])


def _rewrite(path: Path, fn) -> None:
    path.write_text(fn(path.read_text()))


class OracleRejections(unittest.TestCase):
    """Each check passes on a correct output and raises on a perturbed copy."""

    @classmethod
    def setUpClass(cls):
        work = BENCH / ".work"
        work.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=work, prefix="selftest-"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def _out(self, name):
        return lambda ext: self.tmp / f"{name}.{ext}"

    def _run(self, op):
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(op.execute(), 0, op.argv)
        op.check()
        return op

    def _rejects(self, op, fn):
        saved = op.out.read_bytes()
        try:
            _rewrite(op.out, fn)
            self.assertRaises(Mismatch, op.check)
        finally:
            op.out.write_bytes(saved)

    def test_qve_solve(self):
        wl = workloads.Spectral(0, self.tmp / "spectral")
        for k in (1, 3):
            op = self._run(wl._solve(wl.kernels[k][0], [0.3 + 1j, -1.0 + 0.01j],
                                     self._out(f"solve{k}"), "t"))

            def nudge(text):
                data = json.loads(text)
                data[1]["m"][0][0] += 1e-9
                return json.dumps(data)
            self._rejects(op, nudge)

    def test_qve_measure(self):
        x = np.linspace(-3.0, 3.0, 4000)
        rho = np.sqrt(np.clip(4 - x * x, 0, None)) / (2 * np.pi)
        rho /= np.sum(0.5 * (rho[1:] + rho[:-1]) * np.diff(x))
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(x))))
        cdf /= cdf[-1]

        def csv(xs, ds):
            return "x,density,cdf\n" + "".join(
                f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(xs.tolist(), ds.tolist(), cdf.tolist()))
        oracles.check_qve_measure(csv(x, rho), [[1.0]])
        # a 1% wider law keeps mass 1 but moves moments 2 and 4
        self.assertRaises(Mismatch, oracles.check_qve_measure, csv(1.01 * x, rho / 1.01), [[1.0]])
        self.assertRaises(Mismatch, oracles.check_qve_measure, csv(x, 1.001 * rho), [[1.0]])
        self.assertRaises(Mismatch, oracles.check_qve_measure, csv(x, rho), [[2.0]])

    def test_kernel_compare(self):
        ok = json.dumps({"metric": "d", "value": 0.4})
        oracles.check_kernel_compare(ok, "d", 0.25, 1.0)
        self.assertRaises(Mismatch, oracles.check_kernel_compare,
                          json.dumps({"metric": "d", "value": 0.52}), "d", 0.25, 1.0)
        oracles.check_kernel_compare(json.dumps({"metric": "w2", "value": 0.7}), "w2", 1, 0.5)
        self.assertRaises(Mismatch, oracles.check_kernel_compare,
                          json.dumps({"metric": "w2", "value": 0.71}), "w2", 1, 0.5)

    def test_kernel_stats_ops(self):
        wl = workloads.KernelStats(0, self.tmp / "kstats")
        rng = np.random.default_rng(0)

        def bump_order_8(nudge):
            def fn(text):
                lines = text.splitlines()
                order, value = lines[9].split(",")
                lines[9] = f"{order},{nudge(float(value))!r}"
                return "\n".join(lines) + "\n"
            return fn

        # q = 0 is the k = 1 unit kernel: its moments are Catalan numbers
        # exactly, so one ulp off is rejected
        op = self._run(wl._op("moments", 0, rng, self._out("mom0")))
        self._rejects(op, bump_order_8(lambda v: float(np.nextafter(v, np.inf))))
        op = self._run(wl._op("moments", 2, rng, self._out("mom2")))
        self._rejects(op, bump_order_8(lambda v: v * (1 + 1e-8)))
        op = self._run(wl._op("cutnorm", 5, rng, self._out("cut")))
        self._rejects(op, lambda t: json.dumps(
            {**json.loads(t), "value": json.loads(t)["value"] + 1e-9}))
        op = self._run(wl._op("cut_distance", 3, rng, self._out("dist")))
        self._rejects(op, lambda t: json.dumps(
            {**json.loads(t), "value": json.loads(t)["value"] + 1e-9}))
        for q in (0, 1):
            op = self._run(wl._op("rate", q, rng, self._out(f"rate{q}")))
            lines = op.out.read_text().splitlines()
            u, h = lines[5].split(",")
            self._rejects(op, lambda t: t.replace(
                lines[5], f"{u},{float(h) * (1 + 1e-7) + 1e-8!r}"))
            op = self._run(wl._op("k-alpha", q, rng, self._out(f"ka{q}")))
            self._rejects(op, lambda t: json.dumps(
                {"k_alpha": json.loads(t)["k_alpha"] * (1 + 1e-6)}))

    def test_ensemble_ops(self):
        wl = workloads.Ensemble(0, self.tmp / "ensemble")
        sample = self._run(wl._sample(200, 0.1, 7, self._out("sample")))

        def scale_one(text):
            head, first, rest = text.split("\n", 2)
            i, j, v = first.split(",")
            return f"{head}\n{i},{j},{float(v) * 1.001!r}\n{rest}"
        self._rejects(sample, scale_one)
        self._rejects(sample, lambda t: "\n".join(t.splitlines()[: len(t.splitlines()) // 2])
                      + "\n")

        tilt = self._run(wl._tilt(200, 0.1, 7, wl.tilts[1], self._out("tilt")))
        self._rejects(tilt, lambda t: "\n".join(
            [ln for ln in t.splitlines() if ln.startswith("i") or int(ln.split(",")[1]) >= 100])
            + "\n")

        spec = self._run(wl._spectrum(200, sample.out, ["--matrix", str(sample.out)],
                                      self._out("eig"), "t"))

        def shift_top(text):
            lines = text.splitlines()
            lines[-1] = repr(float(lines[-1]) + 1e-3)
            return "\n".join(lines) + "\n"
        self._rejects(spec, shift_top)

        for metric in ("ks", "w1", "w2"):
            op = self._run(wl._compare(spec.out, metric, self._out(metric), 200))
            tol = oracles.SEMICIRCLE_TOL[metric]
            self._rejects(op, lambda t: json.dumps(
                {**json.loads(t), "value": json.loads(t)["value"] + 2 * tol}))
        ev = np.loadtxt(spec.out, skiprows=1)
        d = oracles.semicircle_distance(ev, "d")
        oracles.check_semicircle_compare(json.dumps({"metric": "d", "value": d}),
                                          spec.out, "d")
        self.assertRaises(Mismatch, oracles.check_semicircle_compare,
                          json.dumps({"metric": "d", "value": d + 1e-3}), spec.out, "d")

    def test_verify(self):
        wl = workloads.Verify(0, self.tmp / "verify")
        op = self._run(wl._suite("schur_ward", 2, 0, self._out("verify")))
        self._rejects(op, lambda t: t.replace(": 0 violations", ": 1 violations"))


if __name__ == "__main__":
    unittest.main()

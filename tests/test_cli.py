"""Tests for the qvelab command-line interface."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from qvelab import cli, ensembles, kernels
from qvelab.kernels import Partition, StepKernel


@pytest.fixture()
def const1_kernel(tmp_path):
    path = tmp_path / "const1.json"
    kernels.save_kernel(StepKernel.constant(1.0), path)
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseComplex:
    def test_basic(self):
        assert cli.parse_complex("0+2i") == 2j
        assert cli.parse_complex("1.5-0.25i") == 1.5 - 0.25j
        assert cli.parse_complex("-3+1e-2i") == complex(-3, 0.01)

    def test_rejects_garbage(self):
        import argparse
        for bad in ("2i", "1+2j", "hello"):
            with pytest.raises(argparse.ArgumentTypeError):
                cli.parse_complex(bad)


class TestQveSolve:
    def test_semicircle_point(self, const1_kernel, capsys):
        # [DERIVED] m(2i) = (sqrt(2) - 1) i
        code, out, err = run(
            ["qve-solve", "--kernel", const1_kernel, "--z", "0+2i"], capsys)
        assert code == 0
        data = json.loads(out)
        m = complex(*data[0]["m"][0])
        assert abs(m - (math.sqrt(2.0) - 1.0) * 1j) <= 1e-10
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["cmd"] == "qve-solve"

    def test_invalid_z_exits_2(self, const1_kernel, capsys):
        code, _, _ = run(
            ["qve-solve", "--kernel", const1_kernel, "--z", "0-2i"], capsys)
        assert code == 2


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_missing_file(self, capsys):
        assert cli.main(["qve-solve", "--kernel", "/nonexistent.json",
                         "--z", "0+2i"]) == 2

    def test_verify_identities_pass(self, capsys):
        code, _, err = run(
            ["verify", "--suite", "schur_ward", "--seed", "7",
             "--trials", "10"], capsys)
        assert code == 0
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["passed"] is True

    def test_negative_max_order_exits_2(self, const1_kernel, capsys):
        code, out, err = run(
            ["moments", "--kernel", const1_kernel, "--max-order", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "ValueError"

    def test_unknown_suite_exits_2(self, capsys):
        code, out, err = run(["verify", "--suite", "bogus"], capsys)
        assert code == 2
        assert out == ""
        assert "invalid choice" in err

    def test_verify_nonpositive_trials_exits_2(self, capsys):
        for trials in ("0", "-3"):
            code, out, err = run(
                ["verify", "--suite", "schur_ward", "--trials", trials], capsys)
            assert code == 2
            assert out == ""
            assert json.loads(err.strip().splitlines()[-1])["error"] == "ValueError"

    def test_verify_nan_residual_is_a_violation(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(ensembles, "schur_residual", lambda M, z, i: math.nan)
        out = tmp_path / "verify.txt"
        code, _, err = run(["verify", "--suite", "schur_ward", "--trials", "3",
                            "--out", str(out)], capsys)
        assert code == 1
        assert out.read_text() == "schur_ward: 3 violations / 3 trials\n"
        assert json.loads(err.strip().splitlines()[-1])["passed"] is False

    def test_exact_too_large_exits_2(self, tmp_path, capsys):
        path = tmp_path / "k13.json"
        kernels.save_kernel(StepKernel(Partition.equal(13), np.ones((13, 13))), path)
        code, out, err = run(["cutnorm", "--kernel", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "ExactTooLarge"

    def test_grid_too_narrow_exits_2(self, const1_kernel, tmp_path, capsys):
        code, _, err = run(["qve-measure", "--kernel", const1_kernel,
                            "--grid=-1:1:100:0.001",
                            "--out", str(tmp_path / "rho.csv")], capsys)
        assert code == 2
        assert json.loads(err.strip().splitlines()[-1])["error"] == "GridTooNarrow"

    def test_k_alpha_out_of_float_range_exits_2(self, capsys):
        code, out, err = run(["k-alpha", "--alpha", "354", "--eps", "0.5"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "DomainError"


class TestSubcommands:
    def test_moments(self, const1_kernel, capsys):
        code, out, _ = run(
            ["moments", "--kernel", const1_kernel, "--max-order", "4"], capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "order,value"
        assert [r.split(",")[1] for r in rows[1:]] == \
            ["1.0", "0.0", "1.0", "0.0", "2.0"]

    def test_moments_beyond_tree_enumeration(self, const1_kernel, capsys):
        # [DERIVED] M_2j = Catalan(j) exactly, past the 10-edge tree limit
        code, out, _ = run(
            ["moments", "--kernel", const1_kernel, "--max-order", "30"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        want = [repr(float(math.comb(o, o // 2) // (o // 2 + 1)))
                if o % 2 == 0 else "0.0" for o in range(31)]
        assert rows == [f"{o},{v}" for o, v in enumerate(want)]

    def test_k_alpha(self, capsys):
        code, out, _ = run(["k-alpha", "--alpha", "2", "--eps", "0.5"], capsys)
        assert code == 0
        assert json.loads(out)["k_alpha"] > 1.0

    def test_rate(self, capsys):
        code, out, _ = run(
            ["rate", "--u-min", "1", "--u-max", "2", "--num", "3"], capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "u,h_L"
        assert len(rows) == 4

    def test_cutnorm(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        kernels.save_kernel(StepKernel.constant(1.0, 2), a)
        kernels.save_kernel(StepKernel.constant(2.0, 2), b)
        code, out, _ = run(
            ["cutnorm", "--kernel", str(a), "--minus", str(b)], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["exact"] and abs(data["value"] - 1.0) <= 1e-12

    def test_sample_and_spectrum(self, tmp_path, capsys):
        sample = tmp_path / "sample.csv"
        code, _, _ = run(
            ["sample", "--n", "30", "--p", "0.2", "--seed", "1",
             "--out", str(sample)], capsys)
        assert code == 0
        eig = tmp_path / "eig.csv"
        code, _, _ = run(
            ["spectrum", "--matrix", str(sample), "--n", "30",
             "--out", str(eig)], capsys)
        assert code == 0
        vals = np.loadtxt(eig, skiprows=1)
        assert vals.size == 30

    def test_compare_with_semicircle(self, tmp_path, capsys):
        eig = tmp_path / "eig.csv"
        run(["spectrum", "--n", "100", "--p", "0.5", "--seed", "3",
             "--out", str(eig)], capsys)
        code, out, _ = run(
            ["compare", "--a", str(eig), "--b", "semicircle",
             "--metric", "ks"], capsys)
        assert code == 0
        val = json.loads(out)["value"]
        assert 0.0 <= val <= 1.0

    def test_tilt(self, tmp_path, capsys):
        k = tmp_path / "u.json"
        kernels.save_kernel(StepKernel.constant(2.0, 2), k)
        out_path = tmp_path / "tilt.csv"
        code, _, _ = run(
            ["tilt", "--kernel", str(k), "--n", "20", "--p", "0.3",
             "--seed", "0", "--out", str(out_path)], capsys)
        assert code == 0
        assert out_path.exists()

    def test_qve_measure(self, const1_kernel, tmp_path, capsys):
        out_path = tmp_path / "measure.csv"
        code, _, _ = run(
            ["qve-measure", "--kernel", const1_kernel,
             "--grid=-3:3:400:0.001", "--out", str(out_path)], capsys)
        assert code == 0
        from qvelab import measures
        mu = measures.load_measure_csv(out_path)
        assert abs(trapezoid(mu.density, mu.x) - 1.0) <= 1e-6


class TestDeterminism:
    def _bytes_of(self, argv, path, capsys):
        code = cli.main(argv)
        assert code == 0
        capsys.readouterr()
        return path.read_bytes()

    def test_sample_rerun_identical(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["sample", "--n", "40", "--p", "0.2", "--seed", "5",
                "--out", str(out)]
        first = self._bytes_of(argv, out, capsys)
        second = self._bytes_of(argv, out, capsys)
        assert first == second

    def test_spectrum_rerun_identical(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        argv = ["spectrum", "--n", "40", "--p", "0.2", "--seed", "5",
                "--out", str(out)]
        assert (self._bytes_of(argv, out, capsys)
                == self._bytes_of(argv, out, capsys))

    def test_qve_measure_rerun_identical(self, tmp_path, const1_kernel, capsys):
        out = tmp_path / "m.csv"
        argv = ["qve-measure", "--kernel", const1_kernel,
                "--grid=-3:3:300:0.001", "--out", str(out)]
        assert (self._bytes_of(argv, out, capsys)
                == self._bytes_of(argv, out, capsys))

"""Tests for the qvelab command-line interface."""

import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

import qvelab
from qvelab import cli, ensembles, kernels, measures, qve, suites
from qvelab.kernels import Partition, StepKernel

SRC = str(Path(qvelab.__file__).resolve().parents[1])


@pytest.fixture()
def const1_kernel(tmp_path):
    path = tmp_path / "const1.json"
    kernels.save_kernel(StepKernel.constant(1.0), path)
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_python(args):
    """Run a fresh interpreter with the package's source directory on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


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

    def test_verify_summary_explains_each_suite(self, tmp_path, capsys):
        # stderr carries each suite's worst margin, its trial and wall time;
        # the --out file keeps its one line per suite
        out = tmp_path / "verify.txt"
        code, _, err = run(["verify", "--suite", "identities", "--seed", "7",
                            "--trials", "10", "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text() == "schur_ward: 0 violations / 10 trials\n"
        (row,) = json.loads(err.strip().splitlines()[-1])["suites"]
        res = suites.schur_ward_suite(seed=7, trials=10)
        assert row.pop("elapsed_s") >= 0.0
        assert row == {"suite": "schur_ward", "trials": 10, "violations": 0,
                       "worst_margin": res.worst_margin,
                       "worst_trial": res.worst_trial}
        assert 0.0 < res.worst_margin <= 1.0

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

    def test_k_alpha_nan_alpha_exits_2(self, capsys):
        # alpha < 1 is False for NaN: the guard must reject it all the same
        code, out, err = run(["k-alpha", "--alpha", "nan", "--eps", "0.5"], capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "DomainError"

    def test_k_alpha_overflow_stderr_is_one_json_line(self, tmp_path):
        # L'(theta) overflows on the way to the out-of-range root; numpy's
        # warnings must not reach stderr ahead of the error line
        law = tmp_path / "law.json"
        law.write_text(json.dumps({"support": [-2.0, 0.0, 2.0],
                                   "probs": [0.125, 0.75, 0.125]}))
        proc = run_python(["-m", "qvelab.cli", "k-alpha", "--law", str(law),
                           "--alpha", "100", "--eps", "0.2"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "DomainError"

    def _spectrum_of_csv(self, path, n, capsys):
        code, out, err = run(["spectrum", "--matrix", str(path), "--n", str(n),
                              "--out", str(path.with_suffix(".eig"))], capsys)
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        return code, json.loads(lines[0])

    @pytest.mark.parametrize("argv, text, key", [
        (["moments", "--kernel"], "{}", "boundaries"),
        (["k-alpha", "--alpha", "2", "--eps", "0.3", "--law"],
         '{"support": [-1, 1]}', "probs"),
    ])
    def test_json_without_a_key_exits_2(self, tmp_path, argv, text, key):
        path = tmp_path / "input.json"
        path.write_text(text)
        proc = run_python(["-m", "qvelab.cli", *argv, str(path)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        line = json.loads(lines[0])
        assert line["error"] == "ValueError" and repr(key) in line["message"]

    def test_measure_row_with_wrong_field_count_exits_2(self, tmp_path, capsys):
        path = tmp_path / "atoms.csv"
        path.write_text("x,weight\n0.25,1.0\n0.5\n")
        code, out, err = run(["compare", "--a", str(path), "--b", "semicircle"],
                             capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err.strip())["error"] == "ValueError"

    def test_tilt_empty_size_exits_2(self, const1_kernel, tmp_path, capsys):
        code, out, err = run(["tilt", "--kernel", const1_kernel, "--n", "0",
                              "--p", "0.2", "--out", str(tmp_path / "x.csv")],
                             capsys)
        assert code == 2
        assert json.loads(err.strip())["message"] == "n must be >= 1"

    @pytest.mark.parametrize("kernel, error", [
        (StepKernel(Partition([0.3, 1.0]), [[1.0, 2.0], [2.0, 1.0]]),
         "PartMeasureMismatch"),
        (StepKernel(Partition.equal(2), [[1.0, 0.0], [0.0, 1.0]]), "DomainError"),
    ])
    def test_tilt_kernel_errors_exit_2_by_name(self, tmp_path, kernel, error, capsys):
        path = tmp_path / "U.json"
        kernels.save_kernel(kernel, path)
        code, out, err = run(["tilt", "--kernel", str(path), "--n", "10",
                              "--p", "0.2", "--out", str(tmp_path / "x.csv")],
                             capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err.strip())["error"] == error

    def test_sample_larger_than_n_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        assert run(["sample", "--n", "50", "--p", "0.2", "--seed", "1",
                    "--out", str(path)], capsys)[0] == 0
        code, line = self._spectrum_of_csv(path, 10, capsys)
        assert code == 2 and line["error"] == "ValueError"

    def test_negative_index_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("i,j,value\n-1,3,0.5\n")
        code, line = self._spectrum_of_csv(path, 5, capsys)
        assert code == 2 and line["error"] == "ValueError"

    def test_diagonal_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("i,j,value\n2,2,0.5\n")
        code, line = self._spectrum_of_csv(path, 5, capsys)
        assert code == 2 and line["error"] == "ValueError"

    def test_repeated_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("i,j,value\n0,1,0.5\n0,1,0.25\n")
        code, line = self._spectrum_of_csv(path, 2, capsys)
        assert code == 2 and line["error"] == "ValueError"
        assert "repeats the entry (0, 1)" in line["message"]

    def test_non_finite_entry_exits_2_by_name(self, tmp_path, capsys):
        # named as a non-finite value, not as an asymmetric matrix
        path = tmp_path / "x.csv"
        path.write_text("i,j,value\n0,1,nan\n")
        code, line = self._spectrum_of_csv(path, 2, capsys)
        assert code == 2 and line["error"] == "ValueError"
        assert "not finite" in line["message"]

    @pytest.mark.parametrize("argv, text, value", [
        (["moments", "--kernel"], '{"boundaries": [1], "values": [[NaN]]}',
         "nan"),
        (["moments", "--kernel"],
         '{"boundaries": [0.5, 1], "values": [[1, Infinity], [Infinity, 1]]}',
         "inf"),
        (["qve-solve", "--z", "0+1i", "--kernel"],
         '{"boundaries": [0.5, 1], "values": [[1, Infinity], [Infinity, 1]]}',
         "inf"),
        (["rate", "--num", "3", "--law"],
         '{"support": [-1, NaN, 1], "probs": [0.25, 0.5, 0.25]}', "nan"),
    ])
    def test_non_finite_json_exits_2_by_value(self, tmp_path, argv, text, value):
        path = tmp_path / "input.json"
        path.write_text(text)
        proc = run_python(["-m", "qvelab.cli", *argv, str(path)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        line = json.loads(lines[0])
        assert line["error"] == "ValueError"
        assert f"value {value} " in line["message"]
        assert "not finite" in line["message"]

    @pytest.mark.parametrize("text", ["x,weight\n0.5,0.5\nnan,0.5\n",
                                      "eigenvalue\n0.5\nnan\n"])
    def test_non_finite_measure_csv_exits_2_by_value(self, tmp_path, text, capsys):
        path = tmp_path / "mu.csv"
        path.write_text(text)
        code, out, err = run(["compare", "--a", str(path), "--b", "semicircle"],
                             capsys)
        assert code == 2
        assert out == ""
        line = json.loads(err.strip())
        assert line["error"] == "ValueError"
        assert "value nan in data row 2 is not finite" in line["message"]

    @pytest.mark.parametrize("n", [0, -3])
    def test_spectrum_matrix_nonpositive_size_exits_2(self, tmp_path, n, capsys):
        path = tmp_path / "x.csv"
        path.write_text("i,j,value\n")
        code, line = self._spectrum_of_csv(path, n, capsys)
        assert code == 2
        assert line == {"error": "ValueError", "message": "n must be >= 1"}

    @pytest.mark.parametrize("bounds", [["--u-min", "1", "--u-max", "inf"],
                                        ["--u-min", "nan", "--u-max", "5"],
                                        # finite bounds whose span overflows
                                        ["--u-min=-1.7e308", "--u-max", "1.7e308"]])
    def test_rate_non_finite_bound_exits_2(self, bounds):
        proc = run_python(["-m", "qvelab.cli", "rate", *bounds, "--num", "3"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "DomainError"

    def test_rate_overflow_rows_are_inf_on_one_stderr_line(self):
        # theta u and L(theta) overflow near the top of the float range; the
        # rows read inf, and numpy's warnings must not reach stderr
        proc = run_python(["-m", "qvelab.cli", "rate", "--u-min", "1e307",
                           "--u-max", "1.7e308", "--num", "3"])
        assert proc.returncode == 0
        rows = proc.stdout.splitlines()
        assert rows[0] == "u,h_L"
        assert [row.split(",")[1] for row in rows[1:]] == ["inf"] * 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary.pop("elapsed_s") >= 0.0
        assert summary == {"cmd": "rate", "num": 3}

    @pytest.mark.parametrize("cmd, extra", [("cutnorm", ["--mode", "exact"]),
                                            ("cutnorm", ["--seed", "1"]),
                                            ("qve-measure", ["--no-richardson"])])
    def test_removed_options_exit_2(self, const1_kernel, tmp_path, cmd, extra, capsys):
        # each subcommand runs one algorithm, with no option to pick another:
        # --mode is refused whatever its value
        argv = [cmd, "--kernel", const1_kernel, *extra, "--out", str(tmp_path / "o")]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "unrecognized arguments" in err
        assert not (tmp_path / "o").exists()

    def test_eig_failure_exits_1(self, monkeypatch, tmp_path, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code, out, err = run(["spectrum", "--n", "50", "--p", "0.2", "--seed", "1",
                              "--out", str(tmp_path / "f")], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "EigFailure"

    def test_derivative_solve_failure_exits_1(self, monkeypatch, const1_kernel,
                                             tmp_path, capsys):
        # a singular Jacobian in the inversion's derivative is a numerical
        # failure, not bad input: numpy's LinAlgError is a ValueError, which
        # would exit 2.  The linear solve breaks once both grid solves are done
        from qvelab import qve

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        solve, calls = qve.solve_qve, []

        def solve_then_break(*args, **kwargs):
            sol = solve(*args, **kwargs)
            calls.append(sol)
            if len(calls) == 2:
                monkeypatch.setattr(np.linalg, "solve", fail)
            return sol

        monkeypatch.setattr(qve, "solve_qve", solve_then_break)
        out = tmp_path / "m.csv"
        code, _, err = run(["qve-measure", "--kernel", const1_kernel,
                            "--grid=-3:3:400:0.001", "--out", str(out)], capsys)
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["error"] == "SolveFailure"
        assert not out.exists()

    def test_solve_failure_exits_1(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", fail)
        code, out, err = run(["verify", "--suite", "schur_ward", "--trials", "1"],
                             capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "SolveFailure"


def _readme_commands():
    """The ``qvelab ...`` lines of README's "Command line" block."""
    text = (Path(SRC).parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("qvelab ")]


def test_readme_commands_parse():
    lines = _readme_commands()
    assert len(lines) == 11
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == line.split()[1]


def test_cli_import_leaves_scipy_unloaded():
    # the runtime needs numpy only; scipy is a test oracle
    proc = run_python(["-c", "import json, sys, qvelab.cli; print(json.dumps("
                       "[m for m in sys.modules if m.split('.')[0] == 'scipy']))"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


class TestCachedParser:
    """main reuses one parser; no parse may leak into the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_append_option_starts_empty_each_call(self, const1_kernel, capsys):
        points = []
        for zs in (["0+2i", "1+1i"], ["0.5+3i"]):
            argv = ["qve-solve", "--kernel", const1_kernel]
            for z in zs:
                argv += ["--z", z]
            code, out, _ = run(argv, capsys)
            assert code == 0
            points.append([complex(*row["z"]) for row in json.loads(out)])
        assert points == [[2j, 1 + 1j], [0.5 + 3j]]

    def test_option_default_restored_each_call(self, capsys):
        trials = []
        for extra in (["--trials", "2"], []):
            code, out, _ = run(["verify", "--suite", "stability", *extra], capsys)
            assert code == 0
            trials.append(out)
        assert trials == ["stability: 0 violations / 2 trials\n",
                          "stability: 0 violations / 200 trials\n"]


# one run of each subcommand; {k} is a kernel JSON path, {d} a scratch directory
SUMMARY_ARGVS = [
    ["qve-solve", "--kernel", "{k}", "--z", "0+2i"],
    ["qve-measure", "--kernel", "{k}", "--grid=-3:3:400:0.001", "--out", "{d}/m.csv"],
    ["moments", "--kernel", "{k}", "--max-order", "4"],
    ["rate", "--u-min", "1", "--u-max", "2", "--num", "3"],
    ["k-alpha", "--alpha", "2", "--eps", "0.5"],
    ["sample", "--n", "10", "--p", "0.5", "--out", "{d}/s.csv"],
    ["tilt", "--kernel", "{k}", "--n", "10", "--p", "0.5", "--out", "{d}/t.csv"],
    ["spectrum", "--n", "10", "--out", "{d}/e.csv"],
    ["compare", "--a", "semicircle", "--b", "semicircle"],
    ["cutnorm", "--kernel", "{k}"],
    ["verify", "--suite", "k_alpha_roundtrip", "--trials", "1"],
]


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

    @pytest.fixture()
    def kernel_pair(self, tmp_path):
        vals = np.array([[2.0, 0.5, 1.0], [0.5, 1.0, 3.0], [1.0, 3.0, 0.25]])
        Wa = StepKernel(Partition.equal(3), vals)
        vals = vals.copy()
        vals[1, :] = vals[:, 1] = [0.75, 2.5, 1.5]
        Wb = StepKernel(Partition.equal(3), vals)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        kernels.save_kernel(Wa, a)
        kernels.save_kernel(Wb, b)
        return Wa, Wb, str(a), str(b)

    def test_compare_kernels_d_inverts_nothing(self, kernel_pair, tmp_path,
                                               inversions, capsys):
        # d of two kernel operands compares their QVE solutions directly
        Wa, Wb, a, b = kernel_pair
        out = tmp_path / "d.json"
        code, _, _ = run(["compare", "--a", a, "--b", b, "--metric", "d",
                          "--out", str(out)], capsys)
        assert code == 0
        assert inversions == []
        d = np.abs(qve.solve_qve(Wa, measures.METRIC_D_GRID).average()
                   - qve.solve_qve(Wb, measures.METRIC_D_GRID).average()).max()
        assert out.read_text() == json.dumps({"metric": "d", "value": float(d)})

    @pytest.mark.parametrize("metric, distance", [
        ("ks", measures.ks_distance),
        ("w1", lambda mu, nu: measures.wasserstein(mu, nu, 1)),
        ("w2", lambda mu, nu: measures.wasserstein(mu, nu, 2))])
    def test_compare_kernels_ks_w_invert_each_once(self, kernel_pair, tmp_path,
                                                   metric, distance, inversions,
                                                   capsys):
        # KS and Wasserstein read the inverted grids: the output is the
        # distance of the two qve_measure grid measures, byte for byte
        Wa, Wb, a, b = kernel_pair
        want = json.dumps({"metric": metric, "value": distance(
            qve.qve_measure(Wa), qve.qve_measure(Wb))})
        inversions.clear()
        out = tmp_path / f"{metric}.json"
        code, _, _ = run(["compare", "--a", a, "--b", b, "--metric", metric,
                          "--out", str(out)], capsys)
        assert code == 0
        assert [W.values.tobytes() for W in inversions] == [
            Wa.values.tobytes(), Wb.values.tobytes()]
        assert out.read_text() == want

    def test_verify_interlacing_inverts_nothing(self, inversions, capsys):
        code, _, _ = run(["verify", "--suite", "interlacing", "--trials", "10"],
                         capsys)
        assert code == 0
        assert inversions == []

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


    @pytest.mark.parametrize("argv", SUMMARY_ARGVS, ids=lambda argv: argv[0])
    def test_summary_reports_elapsed(self, argv, const1_kernel, tmp_path, capsys):
        # one stderr JSON line per subcommand, timed from the start of main
        argv = [a.format(k=const1_kernel, d=tmp_path) for a in argv]
        t0 = time.perf_counter()
        code, _, err = run(argv, capsys)
        wall = time.perf_counter() - t0
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["cmd"] == argv[0]
        assert 0.0 <= summary["elapsed_s"] <= wall
        assert {a[0] for a in SUMMARY_ARGVS} == set(cli._COMMANDS)


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

    def test_empty_sample_round_trip(self, tmp_path):
        # n = 1 has no upper triangle: a header-only sample CSV, a 1 x 1 zero
        # matrix, one stderr line per command and byte-identical reruns
        x, eig = tmp_path / "x.csv", tmp_path / "eig.csv"
        argvs = [["sample", "--n", "1", "--p", "0.5", "--out", str(x)],
                 ["spectrum", "--matrix", str(x), "--n", "1", "--out", str(eig)],
                 ["compare", "--a", str(eig), "--b", "semicircle"]]

        def once():
            got = []
            for argv, out in zip(argvs, (x, eig, None)):
                proc = run_python(["-m", "qvelab.cli", *argv])
                assert proc.returncode == 0
                assert len(proc.stderr.splitlines()) == 1
                json.loads(proc.stderr)
                got.append(out.read_bytes() if out else proc.stdout)
            return got

        first = once()
        assert first[:2] == [b"i,j,value\n", b"eigenvalue\n0.0\n"]
        assert once() == first

    def test_qve_measure_rerun_identical(self, tmp_path, const1_kernel, capsys):
        out = tmp_path / "m.csv"
        argv = ["qve-measure", "--kernel", const1_kernel,
                "--grid=-3:3:300:0.001", "--out", str(out)]
        assert (self._bytes_of(argv, out, capsys)
                == self._bytes_of(argv, out, capsys))

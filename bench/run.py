"""qvelab benchmark: one closed-loop client running seeded CLI workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

Workloads: spectral, ensemble, kernel_stats, verify (see workloads.py).  The
program is imported from ./src; nothing is installed.  One process runs one
workload: each operation starts after the previous one returns, and the
benchmark starts no threads.  A run issues a fixed batch of operations sized
to take about --seconds at the reference commit (Workload.batch), so runs of
one workload attempt the same operations and fail on the same ones whatever
the machine's speed.  Set-up (import of qvelab.cli in a fresh
interpreter, input generation, warm-up) is repeated and its median reported.
Every output is checked by an oracle in oracles.py after the timed phase, and
a seeded subset of operations is rerun to require byte-identical output.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first half of
the batch untraced and the same operations again traced, and prints the
per-layer metrics of the traced half plus trace.overhead, the ratio of the two
halves' successful operations per second.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
A fuller record (environment, every operation, spans) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import envinfo
import latency
import oracles
from workloads import WORKLOADS, Op

SETUP_REPEATS = 3
# determinism reruns take at most this share of the timed phase
RERUN_SHARE = 0.05


@dataclass
class Record:
    index: int
    op: Op
    latency: float
    code: int | None
    error: str | None
    message: str = ""
    end: float = 0.0           # seconds from the start of its phase

    @property
    def ok(self) -> bool:
        return self.error is None


def _error_of(code, stderr: str) -> str:
    """Error type the CLI reported on stderr for a nonzero exit."""
    for line in reversed(stderr.splitlines()):
        try:
            data = json.loads(line)
        except ValueError:
            continue
        if isinstance(data, dict) and "error" in data:
            return str(data["error"])
    return f"exit{code}"


def execute(op: Op, index: int, dest: Path | None = None) -> Record:
    """Run one operation, timing only the call; any exception is a failure."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        t0 = perf_counter()
        try:
            code = op.execute(dest)
            exc = None
        except Exception as err:  # an escaped exception is a failed operation
            code, exc = None, err
        t1 = perf_counter()
    if exc is not None:
        return Record(index, op, t1 - t0, None, type(exc).__name__, str(exc)[:300])
    if code != 0:
        return Record(index, op, t1 - t0, code, _error_of(code, captured.getvalue()),
                      captured.getvalue()[-300:])
    return Record(index, op, t1 - t0, 0, None)


def run_phase(workload, phase: str, count: int, tracer=None, first_index=0):
    """Closed loop: issue the first `count` operations back to back."""
    records = []
    start = perf_counter()
    for op in itertools.islice(workload.ops(phase), count):
        index = first_index + len(records)
        if tracer is not None:
            tracer.op = index
        records.append(execute(op, index))
        records[-1].end = perf_counter() - start
    return records


def throughput(records) -> float:
    """Successful operations per second of the phase's wall time."""
    return sum(r.ok for r in records) / records[-1].end


def check_outputs(records) -> int:
    """Apply each operation's oracle; returns the number of wrong outputs."""
    wrong = 0
    for rec in records:
        if not rec.ok:
            continue
        try:
            rec.op.check()
        except (oracles.Mismatch, OSError, ValueError, KeyError, TypeError) as err:
            rec.error, rec.message = "OracleMismatch", f"{type(err).__name__}: {err}"[:300]
            wrong += 1
    return wrong


def rerun_subset(records, seed: int, budget_s: float) -> int:
    """Rerun a seeded subset of successful operations; their outputs must be
    byte-identical.  Returns the number that were not."""
    good = [r for r in records if r.ok]
    order = np.random.default_rng([seed, 2]).permutation(len(good))
    spent, wrong = 0.0, 0
    for i in order:
        rec = good[i]
        if spent and spent + rec.latency > budget_s:
            continue
        spent += rec.latency
        dest = rec.op.out.with_name(rec.op.out.name + ".rerun")
        again = execute(rec.op, rec.index, dest)
        if not again.ok or dest.read_bytes() != rec.op.out.read_bytes():
            rec.error = "NonDeterministic"
            rec.message = again.error or "rerun output differs"
            wrong += 1
    return wrong


def time_import(root: Path) -> float:
    """Wall time of a fresh interpreter that imports qvelab.cli and exits."""
    code = "import sys; sys.path.insert(0, 'src'); import qvelab.cli"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    return perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, root: Path, src: Path, work: Path, results: Path) -> int:
    import qvelab

    if Path(qvelab.__file__).resolve().parent != (src / "qvelab").resolve():
        print(f"error: qvelab imported from {qvelab.__file__}, not {src}", file=sys.stderr)
        return 2
    env = envinfo.record(root, src, args.workload, args.seed)

    setups, imports = [], []
    for rep in range(SETUP_REPEATS):
        imports.append(time_import(root))
        t0 = perf_counter()
        workload = WORKLOADS[args.workload](args.seed, work / f"setup{rep}")
        for op in workload.warmup():
            execute(op, -1)
        setups.append(imports[-1] + perf_counter() - t0)
        if rep:
            shutil.rmtree(work / f"setup{rep - 1}", ignore_errors=True)

    tracer = None
    cpu_before = envinfo.cpu_times()
    if args.trace:
        import tracing

        count = workload.batch(args.seconds / 2)
        plain = run_phase(workload, "plain", count)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, "traced", count, tracer, first_index=len(plain))
        finally:
            tracer.uninstall()
        records = plain + traced
    else:
        count = workload.batch(args.seconds)
        records = run_phase(workload, "run", count)
    rss = peak_rss_mb()
    steal = envinfo.steal_share(cpu_before, envinfo.cpu_times())

    t0 = perf_counter()
    wrong = check_outputs(records)
    t1 = perf_counter()
    wrong += rerun_subset(records, args.seed, RERUN_SHARE * args.seconds)
    t2 = perf_counter()

    timed = traced if args.trace else records
    ok = [r.ok for r in timed]
    lat = latency.summarize([r.latency for r in timed], ok)
    ops_per_s = throughput(timed)
    if args.trace:
        plain_rate = throughput(plain)
        metrics = tracer.metrics(statistics.median(imports),
                                 {r.index for r in traced if r.ok},
                                 ops_per_s / plain_rate if plain_rate else 0.0)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "ops_per_s": _metric(ops_per_s, "1/s"),
            "latency_p50_s": _metric(lat["p50"], "s"),
            "latency_tail_s": _metric(lat["tail"], "s"),
            "success_share": _metric(sum(ok) / len(ok), "1"),
            "peak_rss_mb": _metric(rss, "MB"),
        }

    errors = {}
    for r in records:
        if not r.ok:
            errors[r.error] = errors.get(r.error, 0) + 1
    detail = {"ops": len(timed), "elapsed_s": timed[-1].end,
              "tail_percentile": lat["tail_percentile"], "errors": errors,
              "setup_s": setups, "import_s": imports, "cpu_steal_share": steal, "check_s": t1 - t0, "rerun_s": t2 - t1}
    if tracer is not None:
        detail["layer_errors"] = tracer.errors_by_layer()
    result = {"correct": wrong == 0, "attempted": len(records),
              "failed": sum(not r.ok for r in records), "metrics": metrics}

    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "detail": detail, "result": result,
                   "ops": [{"i": r.index, "kind": r.op.kind, "latency_s": r.latency,
                            "exit": r.code, "error": r.error, "message": r.message}
                           for r in records]}, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(results / f"{stem}-spans.jsonl")
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "qvelab" / "cli.py").is_file():
        print(f"error: no qvelab source tree under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    bench = Path(__file__).resolve().parent
    work = bench / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, root, src, work, bench / "results")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

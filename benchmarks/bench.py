"""End-to-end benchmark of the steerqkd CLI, one workload per run.

    python3 benchmarks/bench.py --workload scan_grid --seed 1 --seconds 20 --trace 0

A single client in this process makes in-process ``steerqkd.cli.main(argv)``
calls in a closed loop: the next call starts when the previous one has
returned and its output has been checked.  Inputs come only from the
workload seed (see ``workloads.py``); the package is imported from ``src/``
of the checkout this file sits in.  Each call's output is checked outside
the timed region (``checks.py``) and hashed.

``--trace 0`` runs calls for a third of ``--seconds`` of call time, then
times the same calls twice more in two further passes.  A call's latency is
the median of its three times, so a burst of host noise during one pass
does not move it; the end-to-end metrics come from these latencies.
``--trace 1`` times the first half of ``--seconds`` in one pass, then
replays exactly those calls with every layer traced (``tracing.py``),
requires byte-identical outputs, and reports the per-layer metrics.  The
last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with per-call latencies and digests and the environment, is written to
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# numpy, steerqkd and the benchmark modules that use them are imported inside
# functions: main() must cap the BLAS threads and put src/ on the path first.

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 11
SUBPROCESS_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# op_tail_ms is the slowest latency with at least this many samples above it.
TAIL_SAMPLES = 10
# Timed passes over a --trace 0 run's calls; a call's latency is their median.
PASSES = 3

# Runs in a fresh interpreter: import the package and make the workload's
# warm-up call, timed from before the import.
SETUP_CHILD = """\
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from steerqkd import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[2]))
print(json.dumps({"rc": rc, "seconds": time.perf_counter() - t0}))
"""


@dataclass
class Record:
    """One timed call: latency, exit code, output digest and check verdict.

    After :func:`repeat`, ``seconds`` is the median of ``pass_seconds``.
    """

    index: int
    work: int
    seconds: float
    rc: int
    digest: str
    output_bytes: int
    error: str | None
    pass_seconds: list[float] = field(default_factory=list)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("scan_grid", "simulate", "filter_onset"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def invoke(call, work_dir: Path, main) -> tuple[Record, bytes]:
    """Make one timed call through ``main`` and collect its output bytes."""
    argv = call.materialize(str(work_dir))
    out_path = None if call.out_name is None else work_dir / call.out_name
    if out_path is not None and out_path.exists():
        out_path.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed call, not a benchmark failure
            rc = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    if out_path is None:
        data = out.getvalue().encode()
    else:
        data = out_path.read_bytes() if out_path.exists() else b""
    error = None
    if rc != 0:
        lines = err.getvalue().strip().splitlines() or [""]
        error = f"exit code {rc}: {lines[-1]}"
    record = Record(call.index, call.work, seconds, rc,
                    hashlib.sha256(data).hexdigest(), len(data), error)
    return record, data


def measure(workload: str, seed: int, seconds: float, work_dir: Path, main):
    """Closed loop of checked calls until ``seconds`` of call time is spent."""
    import checks
    import workloads

    calls, records, spent = [], [], 0.0
    while spent < seconds:
        call = workloads.make_call(workload, seed, len(calls))
        record, data = invoke(call, work_dir, main)
        if record.error is None:
            record.error = checks.check(call, data)
        calls.append(call)
        records.append(record)
        spent += record.seconds
    return calls, records


def repeat(calls, records: list[Record], work_dir: Path, main, passes: int) -> None:
    """Time ``calls`` in ``passes - 1`` more passes; each record keeps the median.

    A call whose output in a later pass differs from its first output fails.
    """
    for record in records:
        record.pass_seconds = [record.seconds]
    for _ in range(passes - 1):
        for call, record in zip(calls, records):
            again, _ = invoke(call, work_dir, main)
            record.pass_seconds.append(again.seconds)
            if record.error is None and again.digest != record.digest:
                record.error = again.error or "output differs from the first pass"
    for record in records:
        record.seconds = statistics.median(record.pass_seconds)


def setup_seconds(warmup_argv: list[str]) -> list[float]:
    """Import plus first-call time in ``SETUP_REPEATS`` fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(warmup_argv)],
            cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["rc"] != 0:
            raise RuntimeError(f"warm-up call exited with {result['rc']}")
        times.append(result["seconds"])
    return times


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the slowest sample with TAIL_SAMPLES above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_SAMPLES], 100.0 * (n - TAIL_SAMPLES) / n


def run_digest(records: list[Record]) -> str:
    return hashlib.sha256("".join(r.digest for r in records).encode()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "steerqkd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args: argparse.Namespace, nproc: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(records: list[Record], setup: list[float]) -> tuple[dict, dict]:
    """Latencies are per-call medians; throughput counts every pass."""
    latencies = [r.seconds for r in records]
    ok_work = sum(r.work * len(r.pass_seconds) for r in records if r.error is None)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "work_per_s": (ok_work / sum(sum(r.pass_seconds) for r in records), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "samples": len(latencies),
        "tail_percentile": tail_pct,
        "setup_samples_s": setup,
        "error_ratio": sum(r.error is not None for r in records) / len(records),
    }
    return metrics, detail


def traced_replay(calls, records: list[Record], work_dir: Path) -> tuple[dict, dict, int]:
    """Replay ``calls`` with every layer traced; per-layer metrics and failures.

    A replayed call fails when its output differs from the untraced call's.
    """
    import tracing

    tracer = tracing.Tracer()
    traced = []
    with tracer:
        for op, call in enumerate(calls):
            record, _ = invoke(call, work_dir, lambda argv, op=op: tracer.call_main(op, argv))
            traced.append(record)
    mismatched = [t.index for r, t in zip(records, traced) if r.digest != t.digest]
    overhead = sum(r.seconds for r in records) / sum(t.seconds for t in traced)
    metrics, bases = tracing.per_layer_metrics(
        tracer, len(calls), sum(t.output_bytes for t in traced), overhead)
    detail = {"traced_run_digest": run_digest(traced), "digest_mismatches": mismatched,
              "bases": bases, "traced_seconds": [t.seconds for t in traced]}
    return metrics, detail, len(mismatched)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.time()
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(nproc)
    if not (SRC / "steerqkd" / "__init__.py").is_file():
        print(f"error: no steerqkd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from steerqkd import cli

    import workloads

    work_dir = RESULTS / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        warmup = workloads.warmup_call(args.workload)
        setup = []
        if args.trace == 0:
            setup = setup_seconds(warmup.materialize(str(work_dir)))
        record, _ = invoke(warmup, work_dir, cli.main)
        if record.error is not None:
            print(f"error: warm-up call failed: {record.error}", file=sys.stderr)
            return 1

        seconds = args.seconds / PASSES if args.trace == 0 else args.seconds / 2.0
        calls, records = measure(args.workload, args.seed, seconds, work_dir, cli.main)
        if args.trace == 0:
            repeat(calls, records, work_dir, cli.main, PASSES)
        failed = sum(r.error is not None for r in records)
        attempted = len(records)
        if args.trace == 0:
            metrics, detail = end_to_end(records, setup)
        else:
            metrics, detail, mismatched = traced_replay(calls, records, work_dir)
            attempted += len(calls)
            failed += mismatched
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "environment": environment(args, nproc),
        "started": started,
        "run_digest": run_digest(records),
        **detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "calls": [vars(r) for r in records],
    }
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    for r in records:
        if r.error is not None:
            print(f"call {r.index} failed: {r.error}", file=sys.stderr)
    print(f"results: {out_file}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

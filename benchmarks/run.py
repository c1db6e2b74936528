"""Benchmark of boundstates: seeded workloads timed end to end, and a
separate traced run for per-layer numbers.

    python3 benchmarks/run.py --workload grid-warm --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --seed 1            # every workload, one table

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src`` and writes only under ``.bench_tmp`` there.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  WORKLOADS.md
describes the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from bench_checks import CheckFailed, check_reproduce_paper  # noqa: E402
from bench_workloads import MIN_COLD_RUNS, TAIL, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
COLD_SAMPLES_TRACED = 3
CHILD_TIMEOUT = 170.0

class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # nproc is 2 and one process runs at a time: keep BLAS single-threaded.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


ENV = child_env()


def environment() -> str:
    versions = " ".join(
        f"{pkg}={importlib.metadata.version(pkg)}" for pkg in ("numpy", "scipy")
    )
    return f"python={platform.python_version()} {versions} nproc={os.cpu_count()}"


# -- children ----------------------------------------------------------------


def _worker_cmd(workload, seed, seconds, trace, mode, tmp) -> list[str]:
    return [sys.executable, str(HERE / "bench_worker.py"), workload, str(seed),
            str(seconds), str(trace), mode, str(tmp)]


def setup_time(workload: str, seed: int, tmp: Path) -> float:
    """Seconds from starting a fresh worker until it reports ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        _worker_cmd(workload, seed, 0, 0, "setup", tmp),
        stdout=subprocess.PIPE, text=True, env=ENV, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up of {workload} failed (exit {proc.returncode})")
    return elapsed


def run_worker(workload: str, seed: int, seconds: int, trace: int, tmp: Path) -> dict:
    proc = subprocess.run(
        _worker_cmd(workload, seed, seconds, trace, "run", tmp),
        stdout=subprocess.PIPE, text=True, env=ENV, cwd=ROOT, timeout=CHILD_TIMEOUT,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def cold_reproduce(tmp: Path, index: int) -> tuple[float, str | None, int]:
    """One cold ``python -m boundstates reproduce-paper``, checked.

    Returns wall seconds, the failure (None when the output checks out) and
    the child's peak resident set in KiB, read from its own rusage.
    """
    outdir = tmp / f"cold-{index}"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "boundstates", "reproduce-paper", "--output-dir", str(outdir)],
        stdout=subprocess.PIPE, text=True, env=ENV, cwd=ROOT,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        check_reproduce_paper(proc.returncode, stdout, outdir)
        error = None
    except CheckFailed as exc:
        error = f"check: {exc}"
    shutil.rmtree(outdir, ignore_errors=True)
    return elapsed, error, usage.ru_maxrss


def parse_importtime(text: str) -> tuple[float, float]:
    """(boundstates, scipy) cumulative import seconds from ``-X importtime``.

    The scipy figure adds up the outermost scipy entries only, so nested
    scipy imports are not counted twice.  The log lists children before
    their parent; reading it backwards visits each parent first.
    """
    total = None
    scipy_us = 0
    stack: list[tuple[int, bool]] = []
    for line in reversed(text.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside_scipy = any(is_scipy for _, is_scipy in stack)
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside_scipy:
            scipy_us += int(cumulative)
        if name == "boundstates" and depth == 0:
            total = int(cumulative)
        stack.append((depth, is_scipy))
    if total is None:
        raise BenchError("no boundstates entry in the import-time log")
    return total / 1e6, scipy_us / 1e6


def import_times() -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import boundstates"],
        capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError("import boundstates failed")
    return parse_importtime(proc.stderr)


# -- metrics -----------------------------------------------------------------


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1]


def end_to_end(workload: str, result: dict, setup: list[float]) -> dict:
    durations, passed = result["durations"], result["passed"]
    return {
        "op_p50_s": statistics.median(durations),
        "op_tail_s": nearest_rank(durations, TAIL[workload]),
        "ops_per_s": sum(passed) / sum(durations),
        "pass_frac": 1.0 - sum(result["failures"].values()) / result["executions"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup),
    }


def cold_runs(tmp: Path, seconds: float, at_least: int) -> dict:
    """Cold runs back to back, in the worker's result format."""
    runs = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(runs) < at_least:
        runs.append(cold_reproduce(tmp, len(runs)))
    failures: dict[str, int] = {}
    for _, error, _ in runs:
        if error is not None:
            failures[error] = failures.get(error, 0) + 1
    return {
        "durations": [d for d, _, _ in runs],
        "passed": [e is None for _, e, _ in runs],
        "executions": len(runs),
        "failures": failures,
        "peak_rss_kb": max(rss for _, _, rss in runs),
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: int, trace: int, tmp: Path) -> dict:
    # Warm the bytecode caches once: users pay that only on the first run.
    setup_time(workload, seed, tmp)
    if trace:
        imports = [import_times() for _ in range(IMPORT_SAMPLES)]
        cold = cold_runs(tmp, 0, COLD_SAMPLES_TRACED)
        result = run_worker(workload, seed, seconds, 1, tmp)
        metrics = dict(result["metrics"])
        metrics["import.total_s"] = statistics.median(t for t, _ in imports)
        metrics["import.scipy_s"] = statistics.median(s for _, s in imports)
        stages = sum(v for k, v in metrics.items() if k.startswith("cli.stage."))
        metrics["cli.other_s"] = (
            statistics.median(cold["durations"]) - metrics["import.total_s"] - stages
        )
        results = [cold, result]
    else:
        setup = [setup_time(workload, seed, tmp) for _ in range(SETUP_SAMPLES)]
        if workload == "repro-cold":
            result = cold_runs(tmp, seconds, MIN_COLD_RUNS)
        else:
            result = run_worker(workload, seed, seconds, 0, tmp)
        metrics = end_to_end(workload, result, setup)
        results = [result]
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    failures: dict[str, int] = {}
    for r in results:
        for reason, count in r["failures"].items():
            failures[reason] = failures.get(reason, 0) + count
    for reason, count in sorted(failures.items()):
        print(f"# {workload} failure x{count}: {reason}", file=sys.stderr)
    return {
        # Wrong output makes the run incorrect.  An operation that raised
        # returned no answer: it counts in failed and pass_frac only.
        "correct": not any(reason.startswith("check:") for reason in failures),
        "attempted": sum(r["executions"] for r in results),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "boundstates" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'boundstates'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"# env {environment()}")
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, tmp) for w in workloads}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    for w, r in results.items():
        print(f"# {w}: attempted={r['attempted']} failed={r['failed']} correct={r['correct']}")
        for name, m in r["metrics"].items():
            print(f"#   {name:<36} {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

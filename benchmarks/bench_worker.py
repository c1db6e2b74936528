"""Benchmark worker: a fresh interpreter that imports boundstates, builds one
workload's inputs and runs its operations.

    python benchmarks/bench_worker.py WORKLOAD SEED SECONDS TRACE MODE TMPDIR

run.py starts it with the checkout's ``src`` first on PYTHONPATH.  It
prints ``ready`` as soon as the package is imported and the inputs are
built (the end of set-up); in MODE ``setup`` it then exits, in MODE
``run`` it runs the workload and prints one JSON line.
"""

import sys
import time

from bench_workloads import (
    FIXED_POINT_SIZES,
    LANCZOS_SIZES,
    MIN_PASSES,
    OVERRUN,
    ROUNDS,
    ROUNDS_PER_PASS,
    STANDARD_BOX,
    WIDE_BOX,
    WIDE_BOX_POINTS,
    passes,
    warmup_ops,
)


def build_inputs(workload: str) -> dict:
    """Import the package and build the grids, wells and Hamiltonians."""
    import boundstates

    inputs = {"potentials": {}, "hamiltonians": {}}
    if workload != "grid-warm":
        return inputs
    spec = {
        "poschl_teller": boundstates.PotentialSpec.poschl_teller(),
        "gaussian": boundstates.PotentialSpec.gaussian(),
    }
    keys = [
        (kind, STANDARD_BOX, n)
        for kind in spec
        for n in sorted(set(FIXED_POINT_SIZES + LANCZOS_SIZES))
    ]
    keys.append(("poschl_teller", WIDE_BOX, WIDE_BOX_POINTS))
    for kind, half_width, n in keys:
        grid = boundstates.make_grid(half_width, n)
        inputs["potentials"][kind, half_width, n] = boundstates.sample_potential(
            spec[kind], grid
        )
    for kind in spec:
        for n in LANCZOS_SIZES:
            V = inputs["potentials"][kind, STANDARD_BOX, n]
            inputs["hamiltonians"][kind, n] = (
                boundstates.Hamiltonian(V, 1.0),
                boundstates.start_vector(V.grid),
            )
    return inputs


def timed_passes(runner, ops: list[dict], count: int, deadline: float):
    """``count`` passes over ``ops``; returns every outcome and each
    operation's least time.

    Other tenants of the machine only ever slow an operation down, for
    seconds at a time, so the least over passes spread across the run is
    the steadiest estimate of its time.  Past MIN_PASSES, a pass that would
    end after ``deadline`` seconds is not started.
    """
    best = [float("inf")] * len(ops)
    outcomes = []
    start = time.perf_counter()
    for done in range(count):
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed * (done + 1) / done > deadline:
            break
        for i, op in enumerate(ops):
            outcome = runner.execute(op)
            best[i] = min(best[i], outcome.duration)
            outcomes.append(outcome)
    return outcomes, best


def traced_rounds(runner, tracer, rounds, seconds: float):
    """The reference unit, then rounds untraced and traced until ``seconds``.

    Returns every outcome and the per-layer metrics.  Each round runs twice,
    in alternating order, so a warmer second pass favours neither side of
    the tracing overhead.
    """
    tracer.enabled = True
    outcomes = runner.replay_and_probes()
    times, traced_ops, reference = {False: 0.0, True: 0.0}, set(), None
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        ops = rounds(index)
        for enabled in (False, True) if index % 2 == 0 else (True, False):
            tracer.enabled = enabled
            done = [runner.execute(op) for op in ops]
            times[enabled] += sum(o.duration for o in done)
            outcomes += done
            if enabled:
                traced_ops.update(o.op_id for o in done)
        tracer.enabled = True
        if reference is None:
            reference = dict(tracer.counts)
        index += 1
    metrics = runner.layer_metrics(reference, traced_ops)
    metrics["trace.overhead_frac"] = times[True] / times[False] - 1.0
    return outcomes, metrics


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, mode, tmp = argv
    inputs = build_inputs(workload)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    import json
    import resource
    from pathlib import Path

    from bench_ops import Runner
    from bench_trace import Tracer

    tracer = Tracer()
    runner = Runner(inputs, tracer, Path(tmp))
    runner.prepare_checks()
    for op in warmup_ops(workload, int(seed)):
        runner.execute(op)
    rounds = ROUNDS[workload]
    if trace == "1":
        outcomes, metrics = traced_rounds(
            runner, tracer, lambda index: rounds(int(seed), index), float(seconds)
        )
        best, passed = [], []
    else:
        ops = [op for i in range(ROUNDS_PER_PASS[workload]) for op in rounds(int(seed), i)]
        count = passes(workload, float(seconds))
        outcomes, best = timed_passes(runner, ops, count, OVERRUN * float(seconds))
        failed = {i % len(ops) for i, o in enumerate(outcomes) if o.error is not None}
        passed = [i not in failed for i in range(len(ops))]
        metrics = {}

    failures: dict[str, int] = {}
    for o in outcomes:
        if o.error is not None:
            failures[o.error[:120]] = failures.get(o.error[:120], 0) + 1
    print(
        json.dumps(
            {
                "durations": best,
                "passed": passed,
                "executions": len(outcomes),
                "failures": failures,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

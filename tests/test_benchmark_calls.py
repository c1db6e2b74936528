"""Every call the benchmark under ``benchmarks/`` makes into the package, once.

The benchmark reaches the package through call sites of its own: a traced
in-process replay of ``reproduce-paper``, unit-cost probes of the kernel and
the shooting shot, and the ``grid-warm`` operations.  Running each of them
here makes a change that breaks one of those calls fail the test suite, not
only a benchmark run.
"""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_benchmark_call_runs_clean(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from bench_ops import Runner
    from bench_trace import Tracer
    from bench_worker import build_inputs
    from bench_workloads import warmup_ops

    runner = Runner(build_inputs("grid-warm"), Tracer(enabled=True), tmp_path)
    runner.prepare_checks()
    outcomes = runner.replay_and_probes()
    ops = warmup_ops("grid-warm", 1)
    assert {op["kind"] for op in ops} == {
        "fixed_point", "sweep_invert", "threshold", "lanczos"
    }
    outcomes += [runner.execute(op) for op in ops]
    assert [o.error for o in outcomes] == [None] * len(outcomes)

"""Tests of the benchmark itself: seeded generation, and checks that reject
corrupted outputs."""

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from boundstates import PotentialSpec, make_grid, sample_potential
from boundstates import lanczos as lz
from boundstates import waxman as wx

import bench_checks as bc
import run
from bench_ops import Outcome, Runner, lowest_eigenvalue
from bench_trace import Tracer
from bench_worker import timed_passes
from bench_workloads import (
    MIN_PASSES,
    WIDE_BOX,
    WIDE_BOX_PER_ROUND,
    grid_round,
    oracle_round,
    passes,
    warmup_ops,
)

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("generate", [grid_round, oracle_round])
def test_same_seed_same_operations(generate):
    assert generate(7, 0) == generate(7, 0)
    assert generate(7, 3) == generate(7, 3)
    assert generate(7, 0) != generate(8, 0)
    assert generate(7, 0) != generate(7, 1)


def test_round_composition_does_not_depend_on_seed():
    def shape(ops):
        # Everything but the drawn parameters (eps, m, and n for Lanczos).
        return sorted(
            (op["kind"], op.get("potential"), op.get("sector"),
             None if op["kind"] == "lanczos" else op["n"])
            for op in ops
        )

    first = shape(grid_round(1, 0))
    for seed, index in ((2, 0), (3, 5), (99, 1)):
        assert shape(grid_round(seed, index)) == first
    wide = [op for op in grid_round(5, 2) if op.get("half_width") == WIDE_BOX]
    assert len(wide) == WIDE_BOX_PER_ROUND
    # exp(+sqrt(eps) x) overflows at the box edge for every wide-box draw.
    assert all(math.sqrt(op["epsilon"]) * WIDE_BOX > math.log(sys.float_info.max) for op in wide)
    assert {op["kind"] for op in warmup_ops("grid-warm", 1)} == {op[0] for op in first}


@pytest.fixture(scope="module")
def repro_output(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("repro")
    proc = subprocess.run(
        [sys.executable, "-m", "boundstates", "reproduce-paper", "--output-dir", str(outdir)],
        capture_output=True, text=True, env=run.ENV,
    )
    return proc.returncode, proc.stdout, outdir


def test_reproduce_paper_check_accepts_the_parent_output(repro_output):
    bc.check_reproduce_paper(*repro_output)


def test_reproduce_paper_check_rejects_a_flipped_csv_byte(repro_output, tmp_path):
    code, stdout, outdir = repro_output
    for name in bc.EXPECTED_CSV_SHA256:
        shutil.copy(outdir / name, tmp_path / name)
    path = tmp_path / "waxman_sweep_odd.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(bc.CheckFailed):
        bc.check_reproduce_paper(code, stdout, tmp_path)


def test_reproduce_paper_check_rejects_wrong_rows_and_exit_codes(repro_output):
    code, stdout, outdir = repro_output
    with pytest.raises(bc.CheckFailed):
        bc.check_reproduce_paper(0, stdout, outdir)
    with pytest.raises(bc.CheckFailed):
        bc.check_reproduce_paper(code, stdout.replace("-0.477394", "-0.477395", 1), outdir)
    with pytest.raises(bc.CheckFailed):
        bc.check_reproduce_paper(code, stdout.replace("  FAIL", "  PASS"), outdir)


def test_reproduce_paper_check_tolerates_added_passing_rows(repro_output):
    code, stdout, outdir = repro_output
    added = "new_row  computed=1.0  reference=1.0  tol=-  PASS\n"
    bc.check_reproduce_paper(code, stdout + added, outdir)
    with pytest.raises(bc.CheckFailed):
        bc.check_reproduce_paper(code, stdout + added.replace("PASS", "FAIL"), outdir)


@pytest.mark.parametrize("sector", ["full", "odd"])
def test_sech2_check_rejects_a_coupling_moved_by_ten_tolerances(sector):
    grid = make_grid(12.0, 2401)
    V = sample_potential(PotentialSpec.poschl_teller(), grid)
    eps = 0.5
    res = wx.waxman_fixed_point(wx.WaxmanConfig(epsilon=eps, sector=sector), V)
    bc.check_sech2(res, eps, sector, grid.spacing)
    tol = bc.sech2_tolerance(bc.sech2_lambda(eps, sector), eps, grid.spacing)
    for shift in (10 * tol, -10 * tol):
        with pytest.raises(bc.CheckFailed):
            bc.check_sech2(dataclasses.replace(res, lam=res.lam + shift), eps, sector, grid.spacing)


def test_gaussian_check_rejects_a_coupling_moved_by_ten_tolerances():
    grid = make_grid(12.0, 2401)
    V = sample_potential(PotentialSpec.gaussian(), grid)
    res = wx.waxman_fixed_point(wx.WaxmanConfig(epsilon=0.5), V)
    h = grid.spacing
    bc.check_gaussian(res, wx.bound_state_residual(res.u, V, res.lam, res.epsilon), h)
    moved = res.lam + 10 * (10 * h * h)
    with pytest.raises(bc.CheckFailed):
        bc.check_gaussian(res, wx.bound_state_residual(res.u, V, moved, res.epsilon), h)


def test_oracle_invert_and_threshold_checks_reject_ten_tolerances():
    assert bc.check_oracle(4.0 + 0.1 * bc.ORACLE_TOL, 4.0) > 0
    with pytest.raises(bc.CheckFailed):
        bc.check_oracle(4.0 + 10 * bc.ORACLE_TOL, 4.0)
    eps, h = 0.3, 0.01
    lam = eps + math.sqrt(eps)
    bc.check_invert([eps], [lam], h)
    tol = bc.INVERT_REL_TOL * eps + bc.sech2_tolerance(lam, eps, h)
    with pytest.raises(bc.CheckFailed):
        bc.check_invert([eps + 10 * tol], [lam], h)
    bc.check_threshold(bc.THRESHOLD_EXACT)
    with pytest.raises(bc.CheckFailed):
        bc.check_threshold(bc.THRESHOLD_EXACT - 10 * bc.THRESHOLD_TOL)


def test_lanczos_check_rejects_a_ritz_value_below_the_spectrum_and_a_skewed_basis():
    grid = make_grid(12.0, 161)
    H = lz.Hamiltonian(sample_potential(PotentialSpec.gaussian(), grid), 1.0)
    run_ = lz.lanczos_run(H, lz.start_vector(grid), 18)
    history = lz.ritz_history(run_, H)
    lowest = lowest_eigenvalue(H)
    h = grid.spacing
    ritz_min = min(p.value for step in history for p in step)
    bc.check_lanczos(0.0, ritz_min, lowest, h)
    with pytest.raises(bc.CheckFailed):
        bc.check_lanczos(0.0, lowest - 10 * bc.ritz_floor_slack(h), lowest, h)
    with pytest.raises(bc.CheckFailed):
        bc.check_lanczos(10 * bc.ORTHONORMAL_TOL, ritz_min, lowest, h)


def test_a_raised_error_is_a_failed_operation(tmp_path):
    runner = Runner({"potentials": {}, "hamiltonians": {}}, Tracer(), tmp_path)
    op = {"kind": "fixed_point", "potential": "poschl_teller", "half_width": 12.0,
          "n": 2401, "sector": "full", "epsilon": -1.0}
    outcome = runner.execute(op)
    assert outcome.error.startswith("ValueError")
    ok = runner.execute(dict(op, epsilon=1.0))
    assert ok.error is None


def test_each_operation_keeps_its_least_time_over_passes():
    class Scripted:
        def __init__(self):
            self.times = iter([3.0, 1.0, 4.0, 2.0, 1.5, 2.5, 9.0, 9.0, 0.5])

        def execute(self, op):
            return Outcome(next(self.times), None, None)

    outcomes, best = timed_passes(Scripted(), ["a", "b", "c"], 3, deadline=60.0)
    assert len(outcomes) == 9
    assert best == [2.0, 1.0, 0.5]
    # A pass that would overrun the deadline is skipped, down to MIN_PASSES.
    outcomes, best = timed_passes(Scripted(), ["a", "b", "c"], 3, deadline=0.0)
    assert len(outcomes) == 3 * MIN_PASSES
    assert best == [2.0, 1.0, 2.5]


def test_pass_count_follows_the_seconds_not_the_speed():
    assert passes("grid-warm", 30) == 3
    assert passes("oracle-warm", 30) == 2
    assert passes("grid-warm", 1) == MIN_PASSES


def test_tracer_self_time_subtracts_children():
    tr = Tracer(enabled=True)
    with tr.operation("x") as op_id:
        with tr.span("cli.stage.a"):
            tr.call("waxman.f", sum, range(1000))
    self_times = tr.self_times({op_id})
    total = tr.spans[0].duration
    assert set(self_times) == {"op", "cli", "waxman"}
    assert sum(self_times.values()) == pytest.approx(total)


def test_importtime_parser_counts_nested_scipy_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |        350 |   scipy.linalg",
        "import time:        10 |        360 |   boundstates.lanczos",
        "import time:         5 |        400 | boundstates",
    ])
    # scipy and scipy._lib load inside scipy.linalg: counted once, with it.
    assert run.parse_importtime(log) == (400e-6, 350e-6)


def test_nearest_rank_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 21)]
    assert run.nearest_rank(values, 50) == 10.0
    assert run.nearest_rank(list(range(1, 201)), 95) == 190


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "grid-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Acceptance gate: one test per criterion, run at desk scale.

Each test prints a single ``ACCEPTANCE n ... PASS`` line on success; a
failure carries the measured numbers in its assertion message.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from boundstates import (
    Hamiltonian,
    NoBoundStateError,
    PotentialSpec,
    SampledFunction,
    ShootingConfig,
    bound_state_residual,
    classify_pairs,
    curve_from_results,
    delta_check,
    hamiltonian_apply,
    invert_curve,
    lanczos_run,
    make_grid,
    ritz_history,
    sample_potential,
    shooting_eigenvalue,
    start_vector,
    sweep_results,
    threshold_lambda,
    tridiagonal_eigen,
    waxman_step,
    GreensKernel,
    apply_kernel,
)
from boundstates.cli import LANCZOS_N_POINTS
from _jacobi import jacobi_eigenvalues
from _threshold import gaussian_odd_threshold, square_well_ground_level

REPORTED_GROUND_EPS = 0.479203
REPORTED_LANCZOS_GROUND = -0.475917
REPORTED_THRESHOLD = 1.35348

TOL_GROUND = 2e-3
TOL_ORACLE = 5e-4
TOL_THRESHOLD = 5e-3
TOL_LANCZOS = 5e-3

# Square-well ground level at lam = 1 by adaptive ODE integration.
SQUARE_WELL_EPS_LAM1 = square_well_ground_level(1.0)
PI2_OVER_4 = math.pi**2 / 4.0


def _report(num, text):
    print(f"ACCEPTANCE {num}: {text} PASS")


@pytest.fixture(scope="module")
def gaussian_setup():
    grid = make_grid(12.0, 2401)
    return grid, sample_potential(PotentialSpec.gaussian(), grid)


@pytest.fixture(scope="module")
def full_curve(gaussian_setup):
    _, V = gaussian_setup
    return curve_from_results(sweep_results(np.linspace(0.1, 1.0, 37), V))


@pytest.fixture(scope="module")
def eps_at_unit_coupling(full_curve):
    return invert_curve(full_curve, 1.0)


@pytest.fixture(scope="module")
def odd_curve(gaussian_setup):
    _, V = gaussian_setup
    epsilons = [1e-4, 1e-3, 1e-2] + list(np.linspace(0.05, 1.0, 20))
    return curve_from_results(sweep_results(epsilons, V, "odd"), "odd")


@pytest.fixture(scope="module")
def lanczos_comparison():
    grid = make_grid(12.0, LANCZOS_N_POINTS)
    H = Hamiltonian(sample_potential(PotentialSpec.gaussian(), grid), 1.0)
    run = lanczos_run(H, start_vector(grid), 18)
    history = ritz_history(run, H)
    return grid, H, run, history


def test_criterion_01_waxman_ground_state(eps_at_unit_coupling):
    eps = eps_at_unit_coupling
    assert eps == pytest.approx(REPORTED_GROUND_EPS, abs=TOL_GROUND), (
        f"inverted ground energy {-eps:.6f} vs reported "
        f"{-REPORTED_GROUND_EPS:.6f} (tol {TOL_GROUND:g})"
    )
    _report(1, f"waxman ground energy {-eps:.6f} within {TOL_GROUND:g} of reported")


def test_criterion_02_oracle_arbitration(eps_at_unit_coupling):
    shoot = ShootingConfig(lam=1.0, parity="even")
    eps_shoot = shooting_eigenvalue(shoot, PotentialSpec.gaussian())
    halved = shooting_eigenvalue(
        ShootingConfig(lam=1.0, parity="even", step=1e-3), PotentialSpec.gaussian()
    )
    assert abs(eps_shoot - eps_at_unit_coupling) <= TOL_ORACLE, (
        f"shooting {eps_shoot:.7f} vs waxman {eps_at_unit_coupling:.7f}"
    )
    assert abs(eps_shoot - halved) < 1e-8
    d_waxman_report = abs(eps_shoot - REPORTED_GROUND_EPS)
    d_lanczos_report = abs(eps_shoot - (-REPORTED_LANCZOS_GROUND))
    _report(
        2,
        f"shooting {eps_shoot:.7f} agrees with waxman within {TOL_ORACLE:g}, "
        f"step-halving < 1e-8 (distance to reported values: "
        f"{d_waxman_report:.2e} / {d_lanczos_report:.2e})",
    )


def test_criterion_03_no_odd_solution_at_unit_coupling(odd_curve):
    min_lambda = float(odd_curve.lambdas.min())
    assert min_lambda > 1.0, f"odd-sector curve reaches lambda {min_lambda:.5f}"
    with pytest.raises(NoBoundStateError):
        invert_curve(odd_curve, 1.0)
    _report(3, f"odd-sector min lambda {min_lambda:.5f} > 1, inversion reports none")


def test_criterion_04_excited_threshold(gaussian_setup):
    # The published 1.35348 is not reproducible: the threshold of the well
    # solved here, -u'' - lam exp(-x^2/2) u, is the zero-energy coupling that
    # tests/_threshold.py computes by adaptive ODE integration.  The criterion
    # checks the square-root extrapolation against that oracle and reports
    # the distance to the published number.
    _, V = gaussian_setup
    tail = [0.01 * 0.5**k for k in range(10)]
    lam_star = threshold_lambda(V, "odd", tail)
    lam_oracle = gaussian_odd_threshold()
    assert lam_star == pytest.approx(lam_oracle, abs=TOL_THRESHOLD), (
        f"extrapolated threshold {lam_star:.6f} vs zero-energy oracle "
        f"{lam_oracle:.7f} (tol {TOL_THRESHOLD:g}; tests/_threshold.py)"
    )
    _report(
        4,
        f"excited threshold {lam_star:.6f} within {TOL_THRESHOLD:g} of the "
        f"zero-energy oracle {lam_oracle:.7f} (distance to reported "
        f"{REPORTED_THRESHOLD}: {abs(lam_oracle - REPORTED_THRESHOLD):.2e})",
    )


def test_criterion_05_lanczos_ground_state(lanczos_comparison):
    _, _, _, history = lanczos_comparison
    lowest = min(p.value for p in history[-1])
    assert lowest == pytest.approx(REPORTED_LANCZOS_GROUND, abs=TOL_LANCZOS), (
        f"m=18 lowest Ritz value {lowest:.6f} vs reported {REPORTED_LANCZOS_GROUND}"
    )
    _report(5, f"m=18 lowest Ritz value {lowest:.6f} within {TOL_LANCZOS:g} of reported")


def test_criterion_06_spurious_detection(lanczos_comparison):
    _, _, _, history = lanczos_comparison
    assert any(p.value > 0 for p in history[-1]), "no positive Ritz value"
    labelled = classify_pairs(history)
    lowest_pair, lowest_label = min(labelled, key=lambda pl: pl[0].value)
    assert lowest_label == "genuine", f"lowest pair labelled {lowest_label}"
    spurious = [p for p, lab in labelled if lab == "spurious" and p.value > 0]
    assert spurious, "no positive pair labelled spurious"
    ratio = min(p.delta for p in spurious) / lowest_pair.delta
    assert ratio >= 10.0, f"delta ratio {ratio:.3g} < 10"
    _report(
        6,
        f"ground genuine (delta {lowest_pair.delta:.2e}), "
        f"{len(spurious)} spurious positive pair(s), ratio {ratio:.3g}",
    )


def test_criterion_07_no_spurious_waxman_states(gaussian_setup):
    grid, V = gaussian_setup
    points = sweep_results(np.linspace(0.1, 1.0, 20), V, "full")
    converged = [p.result for p in points if p.result is not None and p.result.converged]
    assert len(converged) == 20
    bound = 10.0 * grid.spacing**2
    worst = max(
        bound_state_residual(r.u, V, r.lam, r.epsilon) for r in converged
    )
    assert worst <= bound, f"residual {worst:.3e} above {bound:.3e}"
    _report(7, f"20/20 converged states satisfy the grid equation (max {worst:.2e})")


def test_criterion_08_analytic_fixtures():
    # sech^2 well at coupling 2: unit binding energy
    g = make_grid(12.0, 2401)
    Vpt = sample_potential(PotentialSpec.poschl_teller(), g)
    curve = curve_from_results(sweep_results(np.linspace(0.6, 1.4, 9), Vpt))
    eps_pt = invert_curve(curve, 2.0)
    assert eps_pt == pytest.approx(1.0, abs=1e-3)
    eps_pt_shoot = shooting_eigenvalue(
        ShootingConfig(lam=2.0, parity="even"), PotentialSpec.poschl_teller()
    )
    assert eps_pt_shoot == pytest.approx(1.0, abs=1e-6)

    # square well: transcendental-root level and the odd threshold
    gq = make_grid(12.0, 9601)
    Vq = sample_potential(PotentialSpec.square_well(1.0), gq)
    curve_q = curve_from_results(sweep_results(np.linspace(0.35, 0.55, 9), Vq))
    eps_q = invert_curve(curve_q, 1.0)
    assert eps_q == pytest.approx(SQUARE_WELL_EPS_LAM1, abs=2e-3)

    gt = make_grid(12.0, 48001)
    Vt = sample_potential(PotentialSpec.square_well(1.0), gt)
    tail = [0.01 * 0.5**k for k in range(10)]
    lam_star = threshold_lambda(Vt, "odd", tail)
    assert lam_star == pytest.approx(PI2_OVER_4, abs=5e-3)
    _report(
        8,
        f"sech^2 level {eps_pt:.6f}, square-well level {eps_q:.6f}, "
        f"odd threshold {lam_star:.6f}",
    )


def test_criterion_09_property_suites(gaussian_setup, lanczos_comparison, rng):
    grid, V = gaussian_setup

    # kernel weak-ODE identity at O(h^2)
    eps = 0.7
    x = grid.points
    inside = np.abs(x) < 6.0
    f = np.zeros_like(x)
    f[inside] = np.exp(-1.0 / (1.0 - (x[inside] / 6.0) ** 2))
    h = grid.spacing
    lap = np.zeros_like(f)
    lap[1:-1] = (2.0 * f[1:-1] - f[:-2] - f[2:]) / (h * h)
    ones = SampledFunction(grid, np.ones_like(f))
    out = apply_kernel(GreensKernel(eps), ones, SampledFunction(grid, lap + eps * f))
    assert np.max(np.abs(out.values - f)) < 0.1 * h * h

    # normalized-step invariants
    k = GreensKernel(0.5)
    u0 = SampledFunction(grid, np.exp(-grid.points**2 / 3.0))
    stepped = waxman_step(k, V, u0)
    assert stepped.values[grid.mid_index] == 1.0
    rescaled = waxman_step(k, V, SampledFunction(grid, 3.7 * u0.values))
    assert np.max(np.abs(stepped.values - rescaled.values)) <= 1e-12

    # positivity and antisymmetry
    u = SampledFunction(grid, np.ones(grid.n_points))
    for _ in range(4):
        u = waxman_step(k, V, u)
        assert np.all(u.values > 0)
    w = apply_kernel(GreensKernel(0.5, "odd"), V, u).values
    assert np.max(np.abs(w + w[::-1])) <= 1e-12

    # Lanczos orthonormality and variational descent
    lz_grid, H, run, history = lanczos_comparison
    gram = lz_grid.spacing * (run.Q @ run.Q.T)
    assert np.max(np.abs(gram - np.eye(run.m))) <= 1e-8
    lowest = [min(p.value for p in pairs) for pairs in history]
    assert all(b <= a + 1e-10 for a, b in zip(lowest, lowest[1:]))

    # delta identity on random unit vectors
    hh = lz_grid.spacing
    for _ in range(5):
        psi = rng.normal(size=lz_grid.n_points)
        psi /= math.sqrt(hh * np.dot(psi, psi))
        state = SampledFunction(lz_grid, psi)
        hpsi = hamiltonian_apply(H, state).values
        e = hh * np.dot(psi, hpsi)
        delta = delta_check(H, state, e)
        resid = hpsi - e * psi
        assert delta == pytest.approx(hh * np.dot(resid, resid), rel=1e-10)

    # coarse-grid full-Krylov equivalence against the Jacobi oracle
    gc = make_grid(12.0, 101)
    Hc = Hamiltonian(sample_potential(PotentialSpec.gaussian(), gc), 1.0)
    start = rng.normal(size=101)
    start /= math.sqrt(gc.spacing * np.dot(start, start))
    run_c = lanczos_run(Hc, SampledFunction(gc, start), 101)
    assert run_c.m == 101
    ritz, _ = tridiagonal_eigen(run_c.alphas, run_c.betas)
    hc = gc.spacing
    dense = (
        np.diag(2.0 / hc**2 - Hc.V.values)
        + np.diag(np.full(100, -1.0 / hc**2), 1)
        + np.diag(np.full(100, -1.0 / hc**2), -1)
    )
    np.testing.assert_allclose(ritz, jacobi_eigenvalues(dense), atol=1e-8)

    _report(9, "kernel, iteration-map, and Krylov property suites hold")


def test_criterion_10_reproduce_paper_command(tmp_path):
    runs = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "boundstates", "reproduce-paper",
             "--output-dir", str(outdir)],
            capture_output=True,
            text=True,
        )
        runs.append((proc, outdir))

    # byte-identical CSV exports across repeated runs
    for csv_name in ("waxman_sweep_full.csv", "waxman_sweep_odd.csv", "lanczos_trace.csv"):
        a = (runs[0][1] / csv_name).read_bytes()
        b = (runs[1][1] / csv_name).read_bytes()
        assert a == b, f"{csv_name} differs between runs"
        assert a, f"{csv_name} is empty"

    # The table compares against the published numbers unedited; only the
    # excited_threshold row may fail, since 1.35348 is out of reach of the
    # zero-energy limit (criterion 4).  Its verdict must still be the honest
    # comparison, and the exit code must follow the table's last line.
    proc = runs[0][0]
    lines = proc.stdout.splitlines()
    assert lines, f"no table printed; stderr: {proc.stderr}"
    rows = {l.split()[0]: l for l in lines if "  computed=" in l}
    assert lines[-1] in ("ALL PASS", "FAILURES PRESENT"), lines[-1:]
    expected_exit = 0 if lines[-1] == "ALL PASS" else 2
    assert proc.returncode == expected_exit, (
        f"exit={proc.returncode} after {lines[-1]!r}; stderr: {proc.stderr}"
    )
    failing = [
        l for name, l in rows.items()
        if name != "excited_threshold" and not l.endswith("PASS")
    ]
    assert not failing, f"failing rows: {failing}"
    assert "excited_threshold" in rows, proc.stdout

    fields = dict(
        f.split("=", 1) for f in rows["excited_threshold"].split()[1:-1]
    )
    computed = float(fields["computed"])
    lam_oracle = gaussian_odd_threshold()
    assert abs(computed - lam_oracle) <= TOL_THRESHOLD, (
        f"excited_threshold computed {computed:.6f} vs zero-energy oracle "
        f"{lam_oracle:.7f} (tol {TOL_THRESHOLD:g}; tests/_threshold.py)"
    )
    assert fields["reference"] == f"{REPORTED_THRESHOLD:.6f}"
    verdict = rows["excited_threshold"].rsplit(None, 1)[-1]
    honest = "PASS" if abs(computed - REPORTED_THRESHOLD) <= TOL_THRESHOLD else "FAIL"
    assert verdict == honest, (
        f"excited_threshold reads {verdict} for |{computed:.6f} - "
        f"{REPORTED_THRESHOLD}| vs tol {TOL_THRESHOLD:g}"
    )
    _report(
        10,
        f"reproduce-paper exit {proc.returncode} after {lines[-1]}, every row "
        f"but excited_threshold PASS, that row's {computed:.6f} within "
        f"{TOL_THRESHOLD:g} of the oracle and {verdict} against "
        f"{REPORTED_THRESHOLD}, byte-identical CSV",
    )

"""Krylov on Waxman's own operator against Lanczos on H, on the fine grid.

At binding energy eps the fixed point iterates the Birman-Schwinger
operator B = S K_eps S, with S = sqrt(W V) and W the trapezoid weights of
the kernel scan (h, and h/2 at both ends).  B is compact and positive: its
spectrum lies in [0, 1/lambda] and accumulates only at 0, so a Krylov run on
it has no continuum band to invent Ritz values in.  The same recursion that
``lanczos_run`` drives on H runs here on B, and on the same grid, start and
step count H-Lanczos misses the ground level and labels pairs spurious.

M. Sh. Birman, Mat. Sb. 55, 125 (1961); J. Schwinger, PNAS 47, 122 (1961).
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from boundstates import cli, lanczos, waxman
from boundstates import (
    Hamiltonian,
    PotentialSpec,
    SampledFunction,
    WaxmanConfig,
    classify_pairs,
    lanczos_run,
    make_grid,
    ritz_history,
    sample_potential,
    start_vector,
    tridiagonal_eigen,
    waxman_fixed_point,
)

M = 18
# Ritz pairs at or above this value lie in the coupling window 1/theta <= 100.
WINDOW = 0.01
CASES = [
    ("full", 0.1), ("full", 0.4774), ("full", 1.0),
    ("odd", 1e-4), ("odd", 0.01), ("odd", 0.5), ("odd", 1.0),
]


@dataclass
class KrylovOnB:
    theta: np.ndarray  # ascending Ritz values
    residual: np.ndarray  # ||B y - theta y|| of each unit Ritz vector y
    defect: float  # max |h Q Q^T - I|
    solve: waxman.WaxmanResult


def _krylov_on_b(grid, V, sector, eps):
    """M steps of ``lanczos._krylov`` on B over the sector's scan nodes."""
    h = grid.spacing
    with waxman._scan(grid, eps, sector) as scan:
        x, Vv = grid.points[scan.start :], V.values[scan.start :]
        W = np.full(x.size, h)
        W[0] = W[-1] = h / 2
        S, T = np.sqrt(W * Vv), np.sqrt(Vv / W)

        def apply(v, out):
            # scan.apply weights by W itself: S K (W T v) = S K S v.
            scan.apply(np.multiply(T, v, out=out), out)
            out *= S

        q0 = start_vector(grid).values if sector == "full" else x * np.exp(-x * x)
        Q = np.empty((M, x.size))
        Q[0] = q0 / math.sqrt(h * np.dot(q0, q0))
        alphas, betas = lanczos._krylov(apply, Q, h)
        theta, Z = tridiagonal_eigen(alphas, betas)
        Y = Z.T @ Q
        BY = np.empty_like(Y)
        for y, by in zip(Y, BY):
            apply(y, by)
    residual = np.sqrt(h * np.sum((BY - theta[:, None] * Y) ** 2, axis=1))
    defect = float(np.max(np.abs(h * (Q @ Q.T) - np.eye(M))))
    solve = waxman_fixed_point(WaxmanConfig(eps, sector=sector), V)
    return KrylovOnB(theta, residual, defect, solve)


@pytest.fixture(scope="module")
def runs(fine_grid, gaussian_fine):
    return {case: _krylov_on_b(fine_grid, gaussian_fine, *case) for case in CASES}


def _ids(case):
    return f"{case[0]}-{case[1]:g}"


@pytest.mark.parametrize("case", CASES, ids=_ids)
class TestKrylovOnWaxmanOperator:
    def test_top_ritz_value_is_the_inverse_coupling(self, runs, case):
        run = runs[case]
        assert run.solve.converged
        assert abs(1.0 / run.theta[-1] - run.solve.lam) <= 1e-10 * run.solve.lam

    def test_every_ritz_value_is_positive(self, runs, case):
        # theta is ascending and theta1 = 1/lambda (above), so all lie in
        # (0, 1/lambda]: no Ritz value strays below B's spectrum.
        assert runs[case].theta[0] > 0.0

    def test_every_pair_in_the_coupling_window_converges(self, runs, case):
        run = runs[case]
        window = run.theta >= WINDOW
        assert np.count_nonzero(window) >= 5
        assert np.all(run.residual[window] <= 1e-8 * run.theta[window])
        assert np.count_nonzero(run.residual <= 1e-8 * run.theta[-1]) >= 5

    def test_basis_is_orthonormal(self, runs, case):
        assert runs[case].defect <= 1e-12

    def test_iteration_count_follows_the_ratio(self, runs, case):
        # The fixed point contracts by theta2/theta1 per step, so reaching
        # the default tol 1e-10 takes about log(tol)/log(ratio) iterations.
        run = runs[case]
        p = math.log(1e-10) / math.log(run.theta[-2] / run.theta[-1])
        assert math.ceil(p) <= run.solve.iterations <= math.ceil(p) + 1


@pytest.mark.parametrize("sector", ["full", "odd"])
def test_ratio_rises_with_epsilon(runs, sector):
    # Deep energies contract slowest: they take the most iterations.
    ratios = [run.theta[-2] / run.theta[-1] for (s, _), run in runs.items() if s == sector]
    assert np.all(np.diff(ratios) > 0)


def test_lanczos_on_h_is_spurious_on_the_same_grid(fine_grid, gaussian_fine):
    H = Hamiltonian(gaussian_fine, 1.0)
    history = ritz_history(lanczos_run(H, start_vector(fine_grid), M), H)
    labelled = classify_pairs(history)
    h = fine_grid.spacing
    exact = eigh_tridiagonal(
        2.0 / h**2 - gaussian_fine.values,
        np.full(fine_grid.n_points - 1, -1.0 / h**2),
        eigvals_only=True,
        select="i",
        select_range=(0, 0),
    )[0]
    values = [pair.value for pair, _ in labelled]
    assert values[0] - exact > 1e-2
    assert any(label == "spurious" for _, label in labelled)
    assert values[-1] > 1e4


def _b_matrix(nodes, values, kernel, h):
    """Dense S K S on ``nodes``, with the trapezoid weights (h/2 at both ends)."""
    W = np.full(nodes.size, h)
    W[0] = W[-1] = h / 2
    S = np.sqrt(W * values)
    return S[:, None] * kernel(nodes[:, None], nodes[None, :]) * S


def _green(s):
    return lambda d: np.exp(-s * np.abs(d)) / (2 * s)


def test_whole_line_spectrum_is_the_union_of_the_sectors():
    # On a symmetric grid and an even well, the whole-line B commutes with
    # x -> -x.  Folded onto x >= 0, its even block is S (G(x - x') +
    # G(x + x')) S with the half-axis trapezoid weights (h/2 at the origin),
    # and its odd block is the odd sector's S (G(x - x') - G(x + x')) S on
    # x > 0.  The two spectra together are B's, dense, at eps = 1.
    n, eps = 641, 1.0
    grid = make_grid(12.0, n)
    V = sample_potential(PotentialSpec.gaussian(), grid)
    x, h, green = grid.points, grid.spacing, _green(math.sqrt(eps))
    whole = np.linalg.eigvalsh(_b_matrix(x, V.values, lambda a, b: green(a - b), h))
    half = slice(n // 2, None)
    assert x[half][0] == 0.0
    even = _b_matrix(x[half], V.values[half], lambda a, b: green(a - b) + green(a + b), h)
    odd = _b_matrix(x[half], V.values[half], lambda a, b: green(a - b) - green(a + b), h)
    # The origin's row and column of the odd block vanish: drop that node.
    odd = np.linalg.eigvalsh(odd[1:, 1:])
    union = np.sort(np.concatenate([np.linalg.eigvalsh(even), odd]))
    assert np.max(np.abs(whole - union)) <= 1e-12 * whole[-1]
    # And they are the operators the fixed point iterates.
    for sector, top in (("full", whole[-1]), ("odd", odd[-1])):
        solve = waxman_fixed_point(WaxmanConfig(eps, sector=sector), V)
        assert solve.converged
        assert abs(1.0 / top - solve.lam) <= 1e-10 * solve.lam


@pytest.mark.parametrize("eps", [0.2, 1.0])
def test_uneven_well_matches_the_dense_operator(eps):
    # An uneven well is the one input that runs the whole-line scan, and
    # shooting, which assumes parity, cannot check it.  The dense whole-line
    # S K S shares no code with the scan: its top eigenvalue is 1/lambda,
    # and mu2/mu1 sets the iteration count to tol 1e-13, as in the even case.
    grid = make_grid(12.0, 641)
    x = grid.points
    V = SampledFunction(grid, np.exp(-((x + 1.2) ** 2)) + 0.6 * np.exp(-2 * (x - 1.5) ** 2))
    assert not np.array_equal(V.values, V.values[::-1])
    green = _green(math.sqrt(eps))
    mu = np.linalg.eigvalsh(_b_matrix(x, V.values, lambda a, b: green(a - b), grid.spacing))
    solve = waxman_fixed_point(WaxmanConfig(eps, tol=1e-13), V)
    assert solve.converged
    assert abs(1.0 / mu[-1] - solve.lam) <= 1e-12 * solve.lam
    p = math.log(1e-13) / math.log(mu[-2] / mu[-1])
    assert abs(solve.iterations - math.ceil(p)) <= 1


@pytest.mark.parametrize("n", [161, 641])
def test_lanczos_n_points_is_where_18_steps_reach_the_ground(n):
    # With full reorthogonalization the H-Lanczos steps that a fixed ground
    # accuracy needs grow like 1/h, so a fixed m = 18 reaches the grid's
    # ground level on the coarse Lanczos mesh and misses it four times finer.
    assert cli.LANCZOS_N_POINTS == 161
    grid = make_grid(12.0, n)
    V = sample_potential(PotentialSpec.gaussian(), grid)
    run = lanczos_run(Hamiltonian(V, 1.0), start_vector(grid), M)
    h = grid.spacing
    exact = eigh_tridiagonal(
        2.0 / h**2 - V.values,
        np.full(n - 1, -1.0 / h**2),
        eigvals_only=True,
        select="i",
        select_range=(0, 0),
    )[0]
    gap = tridiagonal_eigen(run.alphas, run.betas)[0][0] - exact
    assert gap < 1e-3 if n == 161 else gap > 5e-3

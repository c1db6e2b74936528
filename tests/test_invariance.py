"""Exact symmetries of the discrete problem, checked without a reference value.

On the grid x -> 2x (half_width doubled, the same samples of V) the energy
eps -> eps/4 maps a full-sector Waxman solve onto lambda/4 with the same
iterates, and mirroring an uneven well mirrors its solve.  Both maps act on
every float of the scan exactly (powers of two, and a sign), so they hold bit
for bit on the half-axis path (even well), the whole-line path (uneven well)
and, since the scan's block layout depends only on sqrt(eps) * spacing, on
the block-anchored path of a wide box.  There a power of two is exact only
down to the smallest normal float, so the scaled u is compared bit for bit
above 1e-300; the mirrored solve keeps every bit.  The odd sector's reference
node is the node nearest x = 1 on both grids, not the scaled node, so its
scale map holds to roundoff of the iteration, not bit for bit.  The same map
carries a shooting solve (a, half_width and step doubled, lam quartered) and
the grid Hamiltonian (H -> H/4), but not exactly: shooting starts its bracket
at a fixed energy and stops at an absolute tolerance, and the Lanczos start
vector /sqrt(2) rounds.

The well's depth scales too: V -> 2^k V scales every float of a scan by 2^k
and each step's divisor with it, so lambda -> 2^-k lambda with the same
iterates, and the curve, its inversion and the threshold fit follow, bit for
bit, for any k whose floats stay normal (k = +-600 on the Gaussian sweep).
"""

import math

import numpy as np
import pytest

from boundstates import cli
from boundstates import (
    GreensKernel,
    Hamiltonian,
    PotentialSpec,
    SampledFunction,
    ShootingConfig,
    WaxmanConfig,
    apply_kernel,
    curve_from_results,
    hamiltonian_apply,
    invert_curve,
    lanczos_run,
    make_grid,
    shooting_eigenvalue,
    start_vector,
    sweep_results,
    threshold_lambda,
    waxman_fixed_point,
)

ENERGIES = (0.05, 0.5, 2.0)


def _table(half_width, n_points, shift=0.0):
    """A Gaussian well (shifted by ``shift``) as bare samples, grid-independent."""
    x = make_grid(half_width, n_points).points
    return np.exp(-0.5 * (x - shift) ** 2)


def _wide_sech2(shift):
    """sech^2 on half_width 60, n = 12001: sqrt(150) * 60 = 735 needs blocks."""
    x = make_grid(60.0, 12001).points
    return 1.0 / np.cosh(x - shift) ** 2


def _solve(values, half_width, epsilon, sector="full"):
    V = SampledFunction(make_grid(half_width, values.size), values)
    return waxman_fixed_point(WaxmanConfig(epsilon, sector=sector), V)


def _assert_scaled(values, half_width, epsilon, floor=0.0):
    """Scaled solve equal bit for bit; u only where |u| >= floor, and below
    it within floor (a tail passing through subnormal floats rounds)."""
    base = _solve(values, half_width, epsilon)
    wide = _solve(values, 2.0 * half_width, epsilon / 4.0)
    assert base.converged and wide.converged
    assert wide.lam == base.lam / 4.0
    assert (wide.iterations, wide.residual) == (base.iterations, base.residual)
    u, v = base.u.values, wide.u.values
    kept = np.abs(u) >= floor
    assert v[kept].tobytes() == u[kept].tobytes()
    assert np.all(np.abs(v - u)[~kept] < floor)


@pytest.mark.parametrize("n_points", [161, 2401])
@pytest.mark.parametrize("shift", [0.0, 0.7], ids=["half-axis", "whole-line"])
@pytest.mark.parametrize("epsilon", ENERGIES)
def test_scaling_maps_a_solve_exactly(epsilon, shift, n_points):
    _assert_scaled(_table(12.0, n_points, shift), 12.0, epsilon)


@pytest.mark.parametrize("shift", [0.0, 0.7], ids=["half-axis", "whole-line"])
def test_scaling_maps_a_blocked_solve_exactly(shift):
    # u falls to exp(-sqrt(150) * 60) ~ 1e-319 at the box edge: its tail and
    # the sums over it pass through subnormal floats, where x2 scaling rounds.
    _assert_scaled(_wide_sech2(shift), 60.0, 150.0, floor=1e-300)


@pytest.mark.parametrize(
    "values,half_width,epsilon",
    [(_table(12.0, n), 12.0, eps) for n in (161, 2401) for eps in ENERGIES]
    + [(_wide_sech2(0.0), 60.0, 150.0)],
    ids=[f"{n}-{eps}" for n in (161, 2401) for eps in ENERGIES] + ["blocks"],
)
def test_scaling_maps_an_odd_solve(values, half_width, epsilon):
    # The reference node does not scale, so the iteration counts may differ.
    base = _solve(values, half_width, epsilon, "odd")
    wide = _solve(values, 2.0 * half_width, epsilon / 4.0, "odd")
    assert base.converged and wide.converged
    assert abs(wide.lam - base.lam / 4.0) <= 1e-10 * base.lam / 4.0


@pytest.mark.parametrize(
    "values,half_width,epsilon",
    [(_table(12.0, n, 0.7), 12.0, eps) for n in (161, 2401) for eps in ENERGIES]
    + [(_wide_sech2(0.7), 60.0, 150.0)],
    ids=[f"{n}-{eps}" for n in (161, 2401) for eps in ENERGIES] + ["blocks"],
)
def test_mirroring_maps_a_solve_exactly(values, half_width, epsilon):
    res = _solve(values, half_width, epsilon)
    flipped = _solve(values[::-1].copy(), half_width, epsilon)
    assert res.converged
    assert (flipped.lam, flipped.iterations) == (res.lam, res.iterations)
    assert flipped.u.values.tobytes() == res.u.values[::-1].tobytes()


@pytest.mark.parametrize("sector", ["full", "odd"])
@pytest.mark.parametrize("epsilon", ENERGIES)
def test_scaling_maps_a_kernel_image_exactly(epsilon, sector, rng):
    # The image of the same samples is 4x the image: h doubles, 1/(2 s) doubles.
    values = _table(12.0, 161, 0.7)
    u = rng.normal(size=values.size)
    images = []
    for half_width, eps in ((12.0, epsilon), (24.0, epsilon / 4.0)):
        g = make_grid(half_width, values.size)
        kernel = GreensKernel(eps, sector)
        images.append(apply_kernel(kernel, SampledFunction(g, values), SampledFunction(g, u)))
    assert images[1].values.tobytes() == (4.0 * images[0].values).tobytes()


@pytest.fixture(scope="module")
def unit_sweep(gaussian_fine):
    return sweep_results(cli.FULL_SWEEP_EPSILONS, gaussian_fine)


@pytest.mark.parametrize("k", [600, -600])
def test_depth_scaling_maps_a_sweep_exactly(k, gaussian_fine, unit_sweep):
    # Only a divisor judged against the image's own size lets 2^-600 V bind,
    # and only an interval found by order, not by a product of residuals
    # that underflows, lets the 2^600 V curve invert.
    scaled = SampledFunction(gaussian_fine.grid, 2.0**k * gaussian_fine.values)
    points = sweep_results(cli.FULL_SWEEP_EPSILONS, scaled)
    for p, q in zip(unit_sweep, points, strict=True):
        assert q.converged
        assert q.result.lam == 2.0**-k * p.result.lam
        assert (q.result.iterations, q.result.residual) == (
            p.result.iterations, p.result.residual
        )
        assert q.result.u.values.tobytes() == p.result.u.values.tobytes()
    eps = invert_curve(curve_from_results(points), 2.0**-k)
    assert eps == invert_curve(curve_from_results(unit_sweep), 1.0)
    assert eps == 0.47739419373787056
    lam_star = threshold_lambda(scaled, "odd", cli.THRESHOLD_TAIL)
    assert lam_star * 2.0**k == 1.3419331985434635


@pytest.mark.parametrize("lam,parity", [(1.0, "even"), (2.0, "even"), (10.0, "odd")])
def test_scaling_maps_a_shooting_solve(lam, parity):
    base = shooting_eigenvalue(ShootingConfig(lam, parity), PotentialSpec.square_well(1.0))
    wide = shooting_eigenvalue(
        ShootingConfig(lam / 4.0, parity, half_width=24.0, step=4e-3),
        PotentialSpec.square_well(2.0),
    )
    assert abs(wide - base / 4.0) <= 1e-12 * base / 4.0


def test_scaling_maps_the_first_lanczos_steps():
    # Roundoff steers the (161, 18) run from about step 10, and the start
    # vector /sqrt(2) rounds, so only the first 6 alphas are compared.
    values = _table(12.0, 161)
    phi = start_vector(make_grid(12.0, values.size)).values
    runs, images = [], []
    for half_width, lam, start in ((12.0, 1.0, phi), (24.0, 0.25, phi / math.sqrt(2.0))):
        g = make_grid(half_width, values.size)
        H = Hamiltonian(SampledFunction(g, values), lam)
        images.append(hamiltonian_apply(H, SampledFunction(g, phi)).values)
        runs.append(lanczos_run(H, SampledFunction(g, start), 6))
    assert images[1].tobytes() == (images[0] / 4.0).tobytes()
    np.testing.assert_allclose(
        4.0 * np.array(runs[1].alphas), runs[0].alphas, rtol=1e-10, atol=0
    )

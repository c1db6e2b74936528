"""Fixed-point solver: iteration map, sweeps, curve inversion, thresholds."""

import dataclasses
import io
import math

import numpy as np
import pytest

from boundstates import cli, waxman
from boundstates import (
    GreensKernel,
    LambdaEpsilonCurve,
    NoBoundStateError,
    PotentialSpec,
    SampledFunction,
    ShootingConfig,
    SolverError,
    WaxmanConfig,
    apply_kernel,
    bound_state_residual,
    curve_from_results,
    invert_curve,
    make_grid,
    sample_potential,
    shooting_eigenvalue,
    sweep_results,
    threshold_lambda,
    waxman_fixed_point,
    waxman_step,
    write_sweep_csv,
)
from boundstates.waxman import _pchip_slopes
from _threshold import (
    gaussian_ground_level,
    gaussian_odd_threshold,
    square_well_ground_level,
)

# Ground levels by adaptive ODE integration (tests/_threshold.py, checked
# against exact sech^2 levels in the oracle tests).
SQUARE_WELL_EPS_LAM1 = square_well_ground_level(1.0)
SQUARE_WELL_ODD_THRESHOLD = 2.4674011002723397  # pi^2 / 4
GAUSSIAN_EPS_LAM1 = gaussian_ground_level(1.0)
# Zero-energy odd threshold of exp(-x^2/2) by adaptive ODE integration.
GAUSSIAN_ODD_THRESHOLD = gaussian_odd_threshold()

# Reported reference values the acceptance suite runs against.
REPORTED_GROUND_EPS = 0.479203

# eps-tolerance of the ground-state criterion, propagated through the local
# slope of the coupling curve (d lambda / d eps ~ 1.53 near eps ~ 0.48).
LAMBDA_AT_REPORTED_EPS_TOL = 3.2e-3


class TestLambdaFrom:
    def test_poschl_teller_exact_pair(self, fine_grid, poschl_teller_fine):
        sech = SampledFunction(fine_grid, 1.0 / np.cosh(fine_grid.points))
        image = apply_kernel(GreensKernel(1.0), poschl_teller_fine, sech)
        lam = 1 / image.values[fine_grid.mid_index]
        assert lam == pytest.approx(2.0, abs=1e-3)

    def test_vanishing_denominator_rejected(self, fine_grid, gaussian_fine):
        zero = SampledFunction(fine_grid, np.zeros(fine_grid.n_points))
        with pytest.raises(NoBoundStateError):
            waxman_step(GreensKernel(1.0), gaussian_fine, zero)

    @pytest.mark.parametrize("depth", [1e-12, 1e-15, 2.0**-600])
    def test_weak_well_binds(self, fine_grid, gaussian_fine, depth):
        # Every positive 1D well binds at some coupling.  The divisor is judged
        # against the image's own size, so a shallow well's small image is no
        # vanishing divisor: lambda * depth is the unit-depth coupling.
        W = SampledFunction(fine_grid, depth * gaussian_fine.values)
        res = waxman_fixed_point(WaxmanConfig(0.4774), W)
        assert res.converged and res.iterations == 13
        assert res.lam * depth == pytest.approx(1.0000085980937476, rel=1e-14, abs=0)


class TestWaxmanStep:
    def test_normalization_exact(self, fine_grid, gaussian_fine):
        u = SampledFunction(fine_grid, np.ones(fine_grid.n_points))
        out = waxman_step(GreensKernel(0.5), gaussian_fine, u)
        assert out.values[fine_grid.mid_index] == 1.0

    def test_scale_invariance(self, fine_grid, gaussian_fine):
        u = SampledFunction(fine_grid, np.exp(-fine_grid.points**2 / 3.0))
        k = GreensKernel(0.7)
        s1 = waxman_step(k, gaussian_fine, u).values
        s2 = waxman_step(
            k, gaussian_fine, SampledFunction(fine_grid, -7.3 * u.values)
        ).values
        assert np.max(np.abs(s1 - s2)) <= 1e-12

    def test_poschl_teller_eigenfunction_near_fixed(
        self, fine_grid, poschl_teller_fine
    ):
        sech = SampledFunction(fine_grid, 1.0 / np.cosh(fine_grid.points))
        out = waxman_step(GreensKernel(1.0), poschl_teller_fine, sech)
        assert np.max(np.abs(out.values - sech.values)) < 2e-4

    def test_single_step_from_flat_start(self, fine_grid, gaussian_fine):
        u = SampledFunction(fine_grid, np.ones(fine_grid.n_points))
        out = waxman_step(GreensKernel(0.479), gaussian_fine, u).values
        np.testing.assert_array_equal(out, out[::-1])
        assert np.all(out > 0.0)
        assert np.argmax(out) == fine_grid.mid_index

    def test_zero_start_rejected(self, fine_grid, gaussian_fine):
        zero = SampledFunction(fine_grid, np.zeros(fine_grid.n_points))
        with pytest.raises(SolverError):
            waxman_step(GreensKernel(1.0), gaussian_fine, zero)


class TestFixedPoint:
    def test_poschl_teller_level(self, poschl_teller_fine):
        res = waxman_fixed_point(WaxmanConfig(epsilon=1.0), poschl_teller_fine)
        assert res.converged
        assert res.lam == pytest.approx(2.0, abs=1e-3)
        assert res.u.values[res.u.grid.mid_index] == 1.0
        assert res.residual <= 1e-10

    def test_gaussian_at_reported_energy(self, gaussian_fine):
        res = waxman_fixed_point(WaxmanConfig(epsilon=REPORTED_GROUND_EPS), gaussian_fine)
        assert res.converged
        assert res.lam == pytest.approx(1.0, abs=LAMBDA_AT_REPORTED_EPS_TOL)

    def test_square_well_level(self):
        # The sampled edge effectively widens the well by half a panel, an
        # O(h) bias, so this comparison runs on a finer mesh.
        g = make_grid(12.0, 9601)
        V = sample_potential(PotentialSpec.square_well(1.0), g)
        res = waxman_fixed_point(
            WaxmanConfig(epsilon=SQUARE_WELL_EPS_LAM1), V
        )
        assert res.converged
        assert res.lam == pytest.approx(1.0, abs=2e-3)

    def test_non_convergence_is_flagged_not_raised(self, gaussian_fine):
        res = waxman_fixed_point(
            WaxmanConfig(epsilon=0.5, max_iter=2), gaussian_fine
        )
        assert not res.converged
        assert res.iterations == 2
        assert res.residual > 1e-10
        assert math.isfinite(res.lam)

    def test_full_sector_iterates_stay_positive(self, fine_grid, gaussian_fine):
        u = SampledFunction(fine_grid, np.ones(fine_grid.n_points))
        k = GreensKernel(0.4)
        for _ in range(5):
            u = waxman_step(k, gaussian_fine, u)
            assert np.all(u.values > 0.0)

    @pytest.mark.parametrize("sector", ["full", "odd"])
    @pytest.mark.parametrize(
        "well,epsilon,width",
        [
            ("gaussian", 0.05, 1e-9),
            ("gaussian", 0.5, 1e-9),
            ("wide_sech2", 150.0, 1e-7),
        ],
    )
    def test_coupling_lies_in_its_collatz_wielandt_bracket(
        self, well, epsilon, width, sector, gaussian_fine
    ):
        # The paper's claim, checked: u -> K(V u) is a positive map on the
        # sector's nodes (x > 0 in the odd sector), so a positive u is its
        # Perron vector and, for every node, min (Au)/u <= 1/lambda <= max
        # (Au)/u.  The bound needs every node of the sector, not a subset.
        # The wide box's full-sector u falls to 3.5e-316, so its ratios there
        # carry subnormal roundoff: a bracket 1e-8 wide.
        if well == "gaussian":
            V = gaussian_fine
        else:
            V = sample_potential(PotentialSpec.poschl_teller(), make_grid(60.0, 12001))
        res = waxman_fixed_point(WaxmanConfig(epsilon, sector=sector), V)
        nodes = V.grid.points > 0.0 if sector == "odd" else slice(None)
        u = res.u.values[nodes]
        image = apply_kernel(GreensKernel(epsilon, sector), V, res.u).values[nodes]
        assert res.converged and np.all(u > 0.0)
        low, high = 1.0 / np.max(image / u), 1.0 / np.min(image / u)
        assert low <= res.lam <= high
        assert high - low <= width * res.lam

    def test_odd_sector_antisymmetric(self, fine_grid, gaussian_fine):
        res = waxman_fixed_point(
            WaxmanConfig(epsilon=0.3, sector="odd"), gaussian_fine
        )
        v = res.u.values
        assert np.max(np.abs(v + v[::-1])) <= 1e-12
        assert v[fine_grid.mid_index] == 0.0
        assert v[fine_grid.mid_index + round(1.0 / fine_grid.spacing)] == 1.0

    @pytest.mark.parametrize("center", [0.7, -0.7])
    def test_odd_sector_solves_the_half_line_dirichlet_problem(self, fine_grid, center):
        # The odd kernel G(x - x') - G(x + x') is the Green's function of
        # -d^2/dx^2 + eps on x >= 0 with u(0) = 0, so on an uneven well the
        # odd sector solves that problem for V on x >= 0: V and its even
        # extension from x >= 0 solve bit for bit alike there, while the full
        # sector sees the whole line.  Mirror-image wells bind apart (1.7668
        # against 18.185), though their full-sector couplings are equal.
        x = fine_grid.points
        V = SampledFunction(fine_grid, np.exp(-((x - center) ** 2)))
        extended = SampledFunction(fine_grid, np.exp(-((np.abs(x) - center) ** 2)))
        odd, odd_ext = (
            waxman_fixed_point(WaxmanConfig(0.2, sector="odd"), W) for W in (V, extended)
        )
        assert odd.converged
        assert (odd_ext.lam, odd_ext.iterations) == (odd.lam, odd.iterations)
        assert odd_ext.u.values.tobytes() == odd.u.values.tobytes()
        expected = 1.766776506098 if center > 0 else 18.184568294802
        assert odd.lam == pytest.approx(expected, rel=1e-11)
        full, full_ext = (waxman_fixed_point(WaxmanConfig(0.2), W) for W in (V, extended))
        assert full.lam == pytest.approx(0.689187681605, rel=1e-11)
        assert abs(full_ext.lam - full.lam) > 0.2 * full.lam

    @pytest.mark.parametrize("half_width", [0.5, 1.7, 12.0, 400.0])
    @pytest.mark.parametrize("sector", ["full", "odd"])
    def test_step_and_solve_share_the_reference_node(self, sector, half_width):
        # The origin in the full sector; in the odd sector, whose states vanish
        # there, the node nearest min(1, half_width / 2) right of it, short of
        # the edge.  A well as wide as the box binds on every grid.
        target = 0.0 if sector == "full" else min(1.0, 0.5 * half_width)
        for n in (5, 7, 9, 41, 401, 2401):
            g = make_grid(half_width, n)
            V = SampledFunction(g, np.exp(-((g.points / half_width) ** 2)))
            u = SampledFunction(g, np.ones(n) if sector == "full" else g.points)
            stepped = waxman_step(GreensKernel(0.25, sector), V, u).values
            cfg = WaxmanConfig(epsilon=0.25, max_iter=3, sector=sector)
            solved = waxman_fixed_point(cfg, V).u.values
            (idx,) = np.flatnonzero(stepped == 1.0)
            assert np.flatnonzero(solved == 1.0).tolist() == [idx]
            if sector == "full":
                assert idx == g.mid_index
            else:
                assert g.mid_index < idx <= n - 2
                gaps = np.abs(g.points[g.mid_index + 1 : n - 1] - target)
                assert abs(g.points[idx] - target) <= gaps.min() + 1e-12 * half_width

    def test_odd_sector_rejects_origin_reference(self):
        # Three nodes leave no reference node between the origin and the edge.
        g = make_grid(1.0, 3)
        V = SampledFunction(g, np.ones(3))
        with pytest.raises(ValueError, match="odd sector needs n_points >= 5"):
            waxman_fixed_point(WaxmanConfig(epsilon=0.5, sector="odd"), V)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "3", None, 0, True])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            WaxmanConfig(epsilon=0.5, max_iter=max_iter)

    def test_max_iter_accepts_numpy_integers(self, gaussian_fine):
        cfg = WaxmanConfig(epsilon=0.5, max_iter=np.int64(2))
        assert waxman_fixed_point(cfg, gaussian_fine).iterations == 2

    def test_converged_iterate_is_fixed(self, poschl_teller_fine):
        res = waxman_fixed_point(
            WaxmanConfig(epsilon=1.0, tol=1e-13, max_iter=2000), poschl_teller_fine
        )
        stepped = waxman_step(GreensKernel(1.0), poschl_teller_fine, res.u)
        assert np.max(np.abs(stepped.values - res.u.values)) <= 1e-12

    def test_dense_eigenvector_is_fixed(self):
        # Brute-force route: assemble the kernel matrix, take its dominant
        # eigenvector (power-polished to kill LAPACK tail noise), and check
        # the iteration map leaves it in place.
        g = make_grid(10.0, 201)
        V = sample_potential(PotentialSpec.gaussian(), g)
        eps = 0.5
        s = math.sqrt(eps)
        K = np.exp(-s * np.abs(g.points[:, None] - g.points[None, :])) / (2.0 * s)
        wts = np.full(g.n_points, g.spacing)
        wts[0] = wts[-1] = 0.5 * g.spacing
        M = K * (wts * V.values)[None, :]
        idx = g.mid_index
        d = np.sqrt(wts * V.values)
        B = d[:, None] * K * d[None, :]
        _, vecs = np.linalg.eigh(B)
        v = np.where(d > 0, vecs[:, -1] / np.where(d > 0, d, 1.0), 0.0)
        for _ in range(60):
            v = M @ v
            v /= v[idx]
        stepped = waxman_step(GreensKernel(eps), V, SampledFunction(g, v))
        assert np.max(np.abs(stepped.values - v)) <= 1e-10


@pytest.fixture(scope="module")
def gaussian_sweep(gaussian_fine):
    return sweep_results(np.linspace(0.1, 1.0, 19), gaussian_fine)


@pytest.fixture(scope="module")
def gaussian_curve(gaussian_sweep):
    return curve_from_results(gaussian_sweep)


def _assert_converged_and_rising(points):
    # Read the raw sweep: a curve refuses couplings that do not rise, so its
    # own lambdas always would.
    assert all(p.converged for p in points)
    assert np.all(np.diff([p.result.lam for p in points]) > 0)


class TestSweep:
    def test_lambda_strictly_increasing(self, gaussian_sweep):
        _assert_converged_and_rising(gaussian_sweep)

    def test_lambda_monotone_over_wide_range(self, gaussian_fine):
        _assert_converged_and_rising(
            sweep_results(np.linspace(0.05, 1.5, 30), gaussian_fine)
        )

    def test_shooting_spot_checks(self, gaussian_curve):
        for target in (0.2, 0.5, 0.9):
            i = int(np.argmin(np.abs(gaussian_curve.epsilons - target)))
            lam = float(gaussian_curve.lambdas[i])
            back = shooting_eigenvalue(
                ShootingConfig(lam=lam, parity="even"), PotentialSpec.gaussian()
            )
            assert back == pytest.approx(gaussian_curve.epsilons[i], abs=1e-3)

    def test_single_point_curve(self, poschl_teller_fine):
        curve = curve_from_results(sweep_results([1.0], poschl_teller_fine))
        assert curve.lambdas[0] == pytest.approx(2.0, abs=1e-3)

    def test_empty_list_rejected(self, gaussian_fine):
        with pytest.raises(ValueError):
            curve_from_results(sweep_results([], gaussian_fine))

    def test_unsorted_rejected(self, gaussian_fine):
        with pytest.raises(ValueError):
            curve_from_results(sweep_results([0.5, 0.2], gaussian_fine))

    def test_failures_become_gaps(self, gaussian_fine):
        points = sweep_results([0.2, 0.5], gaussian_fine, max_iter=1)
        assert all(p.result is not None and not p.result.converged for p in points)
        with pytest.raises(SolverError):
            curve_from_results(points)

    def test_kernel_overflow_is_a_failed_point(self, recwarn):
        # On a flat table well of 1e300, grow*V*u = 1e300 * exp(sqrt(eps) x)
        # passes the float maximum at the box edge once sqrt(eps) * 12 > 18.9:
        # that point fails with a typed error, its neighbour solves.
        g = make_grid(12.0, 161)
        V = SampledFunction(g, np.full(g.n_points, 1e300))
        ok, overflow = sweep_results([1.0, 4.0], V)
        assert ok.result is not None and ok.result.converged
        assert overflow.result is None and "overflow" in overflow.error
        with pytest.raises(SolverError, match="overflow"):
            waxman_fixed_point(WaxmanConfig(epsilon=4.0), V)
        # On a 1e308 well at eps 1e-6 each weight is below 1.02 and each
        # grow*V*u fits in a float, but the trapezoid pair sums do not.
        W = SampledFunction(g, np.full(g.n_points, 1e308))
        (near,) = sweep_results([1e-6], W)
        assert near.result is None
        assert "overflow encountered in add" in near.error
        assert "epsilon=1e-06" in near.error
        assert len(recwarn) == 0

    @pytest.mark.parametrize("entry", ["apply_kernel", "waxman_step"])
    def test_one_shot_overflow_is_a_solver_error(self, entry, recwarn):
        # V*u = 1e300 * 1e10 is past the float maximum before the scan starts.
        g = make_grid(12.0, 161)
        W = SampledFunction(g, np.full(g.n_points, 1e300))
        u = SampledFunction(g, np.full(g.n_points, 1e10))
        with pytest.raises(SolverError, match="overflow at epsilon=0.5"):
            getattr(waxman, entry)(GreensKernel(0.5), W, u)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("epsilon", [150.0, 175.0, 200.0])
    def test_wide_box_solves_match_the_sech2_level(self, epsilon):
        # sqrt(eps) * 60 = 735-849 is past exp's float range (709.78), so the
        # scan anchors its weights per block.  The sech^2 well binds at
        # lambda = s (s + 1), s = sqrt(eps); the grid's second-order error
        # stays inside 0.5 * lambda * (1 + eps) * h^2.
        V = sample_potential(PotentialSpec.poschl_teller(), make_grid(60.0, 12001))
        res = waxman_fixed_point(WaxmanConfig(epsilon), V)
        s, h = math.sqrt(epsilon), V.grid.spacing
        assert res.converged
        assert abs(res.lam - s * (s + 1.0)) <= 0.5 * res.lam * (1.0 + epsilon) * h * h

    def test_csv_format_and_determinism(self, gaussian_fine):
        points = sweep_results([0.3, 0.5], gaussian_fine)
        buffers = []
        for _ in range(2):
            buf = io.StringIO()
            write_sweep_csv(points, buf)
            buffers.append(buf.getvalue())
        assert buffers[0] == buffers[1]
        lines = buffers[0].splitlines()
        assert lines[0] == "epsilon,lambda,iterations,residual,converged"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.3
        assert first[4] == "true"
        # 17 significant digits survive a round trip
        assert float(first[1]) == points[0].result.lam


class TestInvertCurve:
    def test_exact_knot_returned(self):
        curve = LambdaEpsilonCurve(
            np.array([0.2, 0.4, 0.6]), np.array([0.5, 1.0, 1.5])
        )
        assert invert_curve(curve, 1.0) == 0.4

    def test_gaussian_ground_state(self, gaussian_fine):
        points = sweep_results(np.linspace(0.3, 0.7, 17), gaussian_fine)
        curve = curve_from_results(points)
        eps = invert_curve(curve, 1.0)
        assert eps == pytest.approx(REPORTED_GROUND_EPS, abs=2e-3)
        assert eps == pytest.approx(GAUSSIAN_EPS_LAM1, abs=1e-4)

    def test_out_of_range_is_no_bound_state(self):
        curve = LambdaEpsilonCurve(np.array([0.2, 0.4]), np.array([1.3, 1.8]), "odd")
        with pytest.raises(NoBoundStateError):
            invert_curve(curve, 1.0)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            LambdaEpsilonCurve(np.array([0.4, 0.2]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            LambdaEpsilonCurve(np.array([0.2, 0.4]), np.array([1.0, -2.0]))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LambdaEpsilonCurve([0.2, 0.4], [1.0, 2.0], "even"),
            lambda: GreensKernel(0.5, "even"),
        ],
        ids=["curve", "kernel"],
    )
    def test_bad_sector_has_one_message(self, make):
        # The curve and the kernel state the sector rule once, in one message.
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == "sector must be one of ('full', 'odd'), got 'even'"


def _scipy_inverse(x, y, target):
    """Inversion by scipy's PchipInterpolator and brentq on the first
    bracketing interval: an independent check of ``invert_curve``."""
    from scipy.interpolate import PchipInterpolator
    from scipy.optimize import brentq

    interp = PchipInterpolator(x, y)
    r = y - target
    j = next(j for j in range(len(x) - 1) if r[j] * r[j + 1] < 0)
    return brentq(
        lambda e: float(interp(e)) - target, x[j], x[j + 1], xtol=1e-13, rtol=8.9e-16
    )


# Non-uniform, increasing samples that take every branch the slope rules
# have on increasing data: the left end keeps its one-sided estimate
# (3 m0 - m1) / 2 = 0.7, the right end's estimate is negative (its secant is
# 1/30 of the one before) and is set to 0, and the interior knots take the
# weighted harmonic mean.
SYNTHETIC_X = np.array([0.5, 1.5, 2.5, 3.0, 4.5, 4.8, 6.0, 7.5])
SYNTHETIC_Y = np.array([1.0, 1.6, 2.0, 2.1, 4.0, 4.6, 5.8, 5.85])
# Samples a curve refuses: a secant of each sign and a zero secant (the
# branches scipy's PCHIP keeps for non-monotone data).
NON_MONOTONE_Y = np.array([5.0, 6.0, 1.0, 1.0, 4.0, 4.6, 5.8, 5.95])


class TestPchipParity:
    @pytest.fixture(scope="class")
    def samples(self, gaussian_fine):
        out = {
            "synthetic": (SYNTHETIC_X, SYNTHETIC_Y),
            "two-point": (np.array([0.2, 0.6]), np.array([0.9, 1.4])),
        }
        for sector, epsilons in (
            ("full", cli.FULL_SWEEP_EPSILONS),
            ("odd", cli.ODD_SWEEP_EPSILONS),
        ):
            points = sweep_results(epsilons, gaussian_fine, sector)
            curve = curve_from_results(points, sector)
            out[sector] = (curve.epsilons, curve.lambdas)
        return out

    @pytest.mark.parametrize("name", ["full", "odd", "synthetic", "two-point"])
    def test_slopes_match_scipy(self, samples, name):
        from scipy.interpolate import PchipInterpolator

        x, y = samples[name]
        reference = PchipInterpolator(x, y).derivative()(x)
        np.testing.assert_allclose(_pchip_slopes(x, y), reference, rtol=0, atol=1e-13)

    def test_synthetic_samples_take_every_branch(self):
        h = np.diff(SYNTHETIC_X)
        d, m = _pchip_slopes(SYNTHETIC_X, SYNTHETIC_Y), np.diff(SYNTHETIC_Y) / h
        assert d[0] == pytest.approx(0.7, abs=1e-15)  # one-sided end
        assert d[-1] == 0.0 < m[-1]  # negative estimate, set to 0
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        harmonic = (w1 + w2) / (w1 / m[:-1] + w2 / m[1:])
        np.testing.assert_allclose(d[1:-1], harmonic, rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "y", [NON_MONOTONE_Y, SYNTHETIC_Y[::-1]], ids=["mixed", "falling"]
    )
    def test_non_monotone_samples_are_refused(self, y):
        with pytest.raises(ValueError, match="strictly increasing"):
            LambdaEpsilonCurve(SYNTHETIC_X, y)

    @pytest.mark.parametrize("name", ["full", "odd", "synthetic", "two-point"])
    def test_inverse_matches_scipy(self, samples, name):
        x, y = samples[name]
        targets = np.linspace(y.min(), y.max(), 41)[1:-1]
        if name == "full":
            targets = np.append(targets, 1.0)  # the reproduce-paper inversion
        curve = LambdaEpsilonCurve(x, y, "odd" if name == "odd" else "full")
        for target in targets[~np.isin(targets, y)]:
            assert invert_curve(curve, target) == pytest.approx(
                _scipy_inverse(x, y, target), abs=1e-13
            )


class TestThreshold:
    TAIL = tuple(0.01 * 0.5**k for k in range(10))

    def test_square_well_matches_closed_form(self):
        g = make_grid(12.0, 48001)
        V = sample_potential(PotentialSpec.square_well(1.0), g)
        lam_star = threshold_lambda(V, "odd", self.TAIL)
        assert lam_star == pytest.approx(SQUARE_WELL_ODD_THRESHOLD, abs=5e-3)

    def test_gaussian_matches_zero_energy_limit(self, gaussian_fine):
        lam_star = threshold_lambda(gaussian_fine, "odd", self.TAIL)
        assert lam_star == pytest.approx(GAUSSIAN_ODD_THRESHOLD, abs=1e-3)

    def test_short_tail_rejected(self, gaussian_fine):
        with pytest.raises(ValueError):
            threshold_lambda(gaussian_fine, "odd", [0.01, 0.005])

    def test_increasing_tail_rejected(self, gaussian_fine):
        with pytest.raises(ValueError):
            threshold_lambda(gaussian_fine, "odd", [0.001, 0.005, 0.01])

    def test_full_sector_rejected(self, gaussian_fine):
        with pytest.raises(ValueError):
            threshold_lambda(gaussian_fine, "full", self.TAIL)


# Epsilon lists each bad in the increasing direction; reversed, each is as
# bad in the decreasing direction a threshold tail needs.
BAD_EPSILONS = {
    "empty": [],
    "wrong-order": [0.3, 0.2, 0.1],
    "nonpositive": [0.0, 0.1, 0.2],
    "nan": [0.1, math.nan, 0.2],
    "inf": [0.1, 0.2, math.inf],
}
CURVE_CALLERS = {
    "sweep_results": lambda eps, V: sweep_results(eps, V),
    "threshold_lambda": lambda eps, V: threshold_lambda(V, "odd", eps[::-1]),
    "LambdaEpsilonCurve": lambda eps, V: LambdaEpsilonCurve(eps, np.ones(len(eps))),
}


@pytest.mark.parametrize("bad", list(BAD_EPSILONS))
@pytest.mark.parametrize("caller", list(CURVE_CALLERS))
def test_bad_epsilon_list_rejected_before_any_solve(
    caller, bad, gaussian_fine, monkeypatch
):
    calls = []

    def counting(cfg, V):
        calls.append(cfg.epsilon)
        return waxman_fixed_point(cfg, V)

    monkeypatch.setattr(waxman, "waxman_fixed_point", counting)
    expected = (
        "epsilon_tail .* strictly decreasing"
        if caller == "threshold_lambda"
        else "epsilons .* strictly increasing"
    )
    with pytest.raises(ValueError, match=expected):
        CURVE_CALLERS[caller](BAD_EPSILONS[bad], gaussian_fine)
    assert calls == []


class TestThresholdTail:
    def test_unconverged_point_is_named(self, gaussian_fine):
        with pytest.raises(SolverError, match=r"epsilon=0\.01: did not converge"):
            threshold_lambda(gaussian_fine, "odd", cli.THRESHOLD_TAIL, max_iter=1)

    def test_failed_point_carries_its_error(self, recwarn):
        # An all-zero well has no coupling at any energy: the first tail point
        # in tail order fails, and its recorded error is reported with it.
        g = make_grid(12.0, 161)
        V = SampledFunction(g, np.zeros(g.n_points))
        with pytest.raises(
            SolverError, match="epsilon=300: no admissible coupling at epsilon=300"
        ):
            threshold_lambda(V, "odd", [300.0, 200.0, 100.0])
        assert len(recwarn) == 0

    def test_reproduce_paper_value_is_pinned(self, gaussian_fine):
        # The 17 digits the threshold command prints at the default tail.
        lam_star = threshold_lambda(gaussian_fine, "odd", cli.THRESHOLD_TAIL)
        assert lam_star == 1.3419331985434635


def _hand_built(points, lams):
    """``points`` with their converged couplings replaced by ``lams``."""
    return [
        dataclasses.replace(p, result=dataclasses.replace(p.result, lam=lam))
        for p, lam in zip(points, lams)
    ]


@pytest.mark.parametrize(
    "lams", [[1.5, 1.4, 1.3], [1.3, 1.3, 1.4]], ids=["falling", "flat"]
)
class TestCouplingOrder:
    """lambda(eps) strictly increases; a sweep whose couplings do not is a
    numerical failure wherever a curve is made of it."""

    MESSAGE = "make no curve: curve lambdas: .* strictly increasing"

    def test_curve_from_results_raises(self, lams, gaussian_fine):
        points = _hand_built(sweep_results([0.1, 0.2, 0.3], gaussian_fine, "odd"), lams)
        with pytest.raises(SolverError, match=self.MESSAGE):
            curve_from_results(points, "odd")

    def test_threshold_lambda_raises(self, lams, gaussian_fine, monkeypatch):
        sweep = waxman.sweep_results
        monkeypatch.setattr(
            waxman, "sweep_results", lambda *args: _hand_built(sweep(*args), lams)
        )
        with pytest.raises(SolverError, match=self.MESSAGE):
            threshold_lambda(gaussian_fine, "odd", [0.3, 0.2, 0.1])


class TestResidualProperty:
    def test_converged_state_solves_grid_equation(self, gaussian_fine):
        res = waxman_fixed_point(WaxmanConfig(epsilon=0.5), gaussian_fine)
        r = bound_state_residual(res.u, gaussian_fine, res.lam, res.epsilon)
        h = gaussian_fine.grid.spacing
        assert r <= 10.0 * h * h

    @pytest.mark.parametrize("sector", ["full", "odd"])
    @pytest.mark.parametrize("epsilon", [0.05, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("well", ["gaussian_fine", "poschl_teller_fine"])
    def test_residual_is_the_three_point_formula(self, well, sector, epsilon, request):
        # The residual applies the Lanczos Hamiltonian; on interior nodes it
        # must keep the bits of the explicit three-point formula.
        V = request.getfixturevalue(well)
        res = waxman_fixed_point(WaxmanConfig(epsilon=epsilon, sector=sector), V)
        v, h = res.u.values, V.grid.spacing
        lap = (2.0 * v[1:-1] - v[:-2] - v[2:]) / (h * h)
        r = lap - res.lam * V.values[1:-1] * v[1:-1] + epsilon * v[1:-1]
        expect = float(np.max(np.abs(r)))
        assert bound_state_residual(res.u, V, res.lam, epsilon) == expect

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_nonpositive_coupling_rejected(self, gaussian_fine, lam):
        res = waxman_fixed_point(WaxmanConfig(epsilon=0.5), gaussian_fine)
        with pytest.raises(ValueError, match="coupling lam must be positive"):
            bound_state_residual(res.u, gaussian_fine, lam, res.epsilon)

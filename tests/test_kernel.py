"""Green's kernel: validation, quadrature application, defining-ODE check."""

import math
import tracemalloc

import numpy as np
import pytest

from boundstates import (
    GreensKernel,
    GridMismatchError,
    PotentialSpec,
    SampledFunction,
    WaxmanConfig,
    apply_kernel,
    default_x_ref,
    make_grid,
    sample_potential,
    waxman_fixed_point,
)
from boundstates import waxman
from boundstates.waxman import _KernelScan

# Identity used below: (-d^2/dx^2 + 1) sech = 2 sech^3, so convolving the
# unit-energy kernel with sech^2 * sech returns sech / 2.
PT_IDENTITY_TOL = 2e-4


class TestKernelValue:
    def test_validation(self):
        with pytest.raises(ValueError):
            GreensKernel(0.0)
        with pytest.raises(ValueError):
            GreensKernel(1.0, "even")


class TestApplyKernel:
    def test_zero_input(self, fine_grid, gaussian_fine):
        zero = SampledFunction(fine_grid, np.zeros(fine_grid.n_points))
        out = apply_kernel(GreensKernel(1.0), gaussian_fine, zero)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_linearity(self, fine_grid, gaussian_fine):
        u = SampledFunction(fine_grid, np.exp(-fine_grid.points**2 / 3.0))
        k = GreensKernel(0.8)
        w1 = apply_kernel(k, gaussian_fine, u).values
        w2 = apply_kernel(
            k, gaussian_fine, SampledFunction(fine_grid, 5.0 * u.values)
        ).values
        np.testing.assert_allclose(w2, 5.0 * w1, rtol=1e-12)

    def test_grid_mismatch(self, gaussian_fine):
        other = make_grid(12.0, 241)
        u = SampledFunction(other, np.ones(241))
        with pytest.raises(GridMismatchError):
            apply_kernel(GreensKernel(1.0), gaussian_fine, u)

    @pytest.mark.parametrize("sector", ["full", "odd"])
    def test_matches_dense_quadrature(self, sector, rng):
        # The prefix-sum application must agree with the explicitly assembled
        # kernel matrix to roundoff; the dense route is the brute-force oracle.
        g = make_grid(8.0, 201)
        V = sample_potential(PotentialSpec.gaussian(), g)
        u = SampledFunction(g, rng.normal(size=g.n_points))
        eps = 0.7
        s = np.sqrt(eps)
        w_scan = apply_kernel(GreensKernel(eps, sector), V, u).values

        def G(d):
            return np.exp(-s * np.abs(d)) / (2.0 * s)

        f = V.values * u.values
        x = g.points
        if sector == "full":
            wts = np.full(x.size, g.spacing)
            wts[0] = wts[-1] = 0.5 * g.spacing
            dense = G(x[:, None] - x[None, :]) @ (wts * f)
        else:
            mid = g.mid_index
            xh = x[mid:]
            wts = np.full(xh.size, g.spacing)
            wts[0] = wts[-1] = 0.5 * g.spacing
            K = G(x[:, None] - xh[None, :]) - G(x[:, None] + xh[None, :])
            dense = K @ (wts * f[mid:])
        np.testing.assert_allclose(w_scan, dense, atol=1e-13)

    def test_poschl_teller_identity(self, fine_grid, poschl_teller_fine):
        sech = SampledFunction(fine_grid, 1.0 / np.cosh(fine_grid.points))
        out = apply_kernel(GreensKernel(1.0), poschl_teller_fine, sech)
        err = np.max(np.abs(out.values - 0.5 * sech.values))
        assert err < PT_IDENTITY_TOL

    def test_output_is_odd_for_any_input(self, fine_grid, gaussian_fine):
        u = SampledFunction(fine_grid, np.exp(-((fine_grid.points - 1) ** 2)))
        out = apply_kernel(GreensKernel(0.5, "odd"), gaussian_fine, u).values
        np.testing.assert_array_equal(out, -out[::-1])
        assert out[fine_grid.mid_index] == 0.0


def _bump(x, support=6.0):
    out = np.zeros_like(x)
    inside = np.abs(x) < support
    out[inside] = np.exp(-1.0 / (1.0 - (x[inside] / support) ** 2))
    return out


class TestDefiningEquation:
    """Weak form of (-d^2/dx^2 + eps) G = delta, without trusting the closed form.

    Feeding u = (-f'' + eps f) through the kernel with V = 1 must return f
    up to the second-difference truncation error.
    """

    @pytest.mark.parametrize("n_points", [1201, 2401])
    def test_reproduces_test_function(self, n_points):
        g = make_grid(12.0, n_points)
        eps = 0.7
        f = _bump(g.points)
        h = g.spacing
        lap = np.zeros_like(f)
        lap[1:-1] = (2.0 * f[1:-1] - f[:-2] - f[2:]) / (h * h)
        u = SampledFunction(g, lap + eps * f)
        ones = SampledFunction(g, np.ones_like(f))
        out = apply_kernel(GreensKernel(eps), ones, u).values
        assert np.max(np.abs(out - f)) < 0.1 * h * h

    def test_error_is_second_order(self):
        errs = []
        for n in (1201, 2401):
            g = make_grid(12.0, n)
            eps = 0.7
            f = _bump(g.points)
            h = g.spacing
            lap = np.zeros_like(f)
            lap[1:-1] = (2.0 * f[1:-1] - f[:-2] - f[2:]) / (h * h)
            out = apply_kernel(
                GreensKernel(eps), SampledFunction(g, np.ones_like(f)), SampledFunction(g, lap + eps * f)
            ).values
            errs.append(np.max(np.abs(out - f)))
        assert 3.0 < errs[0] / errs[1] < 5.0


def _cumtrapz(y, h):
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * h * (y[1:] + y[:-1]), out=out[1:])
    return out


def _rev_cumtrapz(y, h):
    return _cumtrapz(y[::-1], h)[::-1]


def _reference_apply(scan, f):
    # The allocating form of the scan, one temporary per operation; the
    # buffered apply must match it bit for bit.
    h = scan.grid.spacing
    two_s = 2.0 * scan.s
    if scan.sector == "full":
        left = _cumtrapz(scan.grow * f, h)
        right = _rev_cumtrapz(scan.decay * f, h)
        return (scan.decay * left + scan.grow * right) / two_s
    mid = scan.grid.mid_index
    fh = f[mid:]
    left = _cumtrapz(scan.grow * fh, h)
    right = _rev_cumtrapz(scan.decay * fh, h)
    half = (scan.decay * (left - right[0]) + scan.grow * right) / two_s
    out = np.empty_like(f)
    out[mid:] = half
    out[:mid] = -half[:0:-1]
    return out


def _reference_fixed_point(cfg, V):
    # The fixed-point loop on the whole grid, with a fresh array for every
    # intermediate; it reads x_ref, tol and max_iter from cfg.
    grid = V.grid
    x_ref = cfg.x_ref if cfg.x_ref is not None else default_x_ref(grid, cfg.sector)
    idx = grid.node_index(x_ref)
    u = np.ones(grid.n_points) if cfg.sector == "full" else grid.points
    u = u / u[idx]
    scan = _KernelScan(grid, cfg.epsilon, cfg.sector)
    residual = math.inf
    for iterations in range(1, cfg.max_iter + 1):
        w = _reference_apply(scan, V.values * u)
        u_next = w / w[idx]
        residual = float(np.max(np.abs(u_next - u)))
        u = u_next
        if residual <= cfg.tol:
            break
    w = _reference_apply(scan, V.values * u)
    return 1.0 / w[idx], iterations, residual, u


class TestBufferedScan:
    """The scan reuses its work arrays; every bit must match the reference."""

    @pytest.mark.parametrize("n_points", [2401, 50001])
    @pytest.mark.parametrize("sector", ["full", "odd"])
    def test_apply_bit_identical(self, n_points, sector, rng):
        self._check_apply(n_points, sector, False, rng)

    @pytest.mark.parametrize("n_points", [2401, 50001])
    def test_even_half_axis_apply_bit_identical(self, n_points, rng):
        # Even input to the full-sector kernel may take the half-axis apply.
        self._check_apply(n_points, "full", True, rng)

    @staticmethod
    def _check_apply(n_points, sector, even, rng):
        # A scan with a parity reads and writes the nodes x >= 0 only; its
        # mirror must then give the whole-grid reference.
        g = make_grid(12.0, n_points)
        V = sample_potential(PotentialSpec.gaussian(), g)
        for eps in (1e-3, 0.5, 170.0):
            scan = _KernelScan(g, eps, sector, even)
            ref, start = _KernelScan(g, eps, sector), scan.start
            for _ in range(2):  # the second apply runs on used work arrays
                r = rng.normal(size=n_points)
                f = V.values * (r + r[::-1] if even else r)
                expected = _reference_apply(ref, f)
                fresh = scan.apply(f[start:], out=np.empty(n_points - start))
                assert np.array_equal(fresh, expected[start:])
                out = np.full(n_points, np.nan)
                half = out[start:]
                assert scan.apply(f[start:], out=half) is half
                assert scan.mirror(out) is out
                assert np.array_equal(out, expected)
                half = f[start:]
                assert scan.apply(half, out=half) is half  # in place
                assert np.array_equal(scan.mirror(f), expected)

    @pytest.mark.parametrize("eps", [1.0, 170.0])
    @pytest.mark.parametrize("sector", ["full", "odd"])
    def test_fixed_point_bit_identical(self, sector, eps):
        g = make_grid(12.0, 50001)
        V = sample_potential(PotentialSpec.poschl_teller(), g)
        cfg = WaxmanConfig(epsilon=eps, sector=sector)
        res = waxman_fixed_point(cfg, V)
        lam, iterations, residual, u = _reference_fixed_point(cfg, V)
        assert res.converged
        assert (res.lam, res.iterations, res.residual) == (lam, iterations, residual)
        assert np.array_equal(res.u.values, u)

    @pytest.mark.parametrize("n_points", [161, 2401, 50001])
    @pytest.mark.parametrize("sector", ["full", "odd"])
    @pytest.mark.parametrize("well", ["gaussian", "poschl_teller", "square_well", "table"])
    def test_solve_matches_whole_line_reference(self, well, sector, n_points, monkeypatch):
        # An even well's solve runs on x >= 0 in both sectors; an uneven
        # (table) well keeps the whole line in the full sector.  Every byte of
        # u (signed zeros included: the square well is exactly 0 outside
        # |x| <= 1) and lam, iterations and residual match the reference.
        g = make_grid(12.0, n_points)
        if well == "table":
            V = SampledFunction(g, np.exp(-0.5 * (g.points - 0.3) ** 2))
        elif well == "square_well":
            V = sample_potential(PotentialSpec.square_well(1.0), g)
        else:
            V = sample_potential(PotentialSpec(well), g)
        starts = []

        class Recording(_KernelScan):
            def __init__(self, *args):
                super().__init__(*args)
                starts.append(self.start)

        monkeypatch.setattr(waxman, "_KernelScan", Recording)
        mid = g.mid_index
        cases = [(eps, None, 500) for eps in (1e-3, 0.05, 1.0, 175.0)]
        for eps in (0.05, 175.0):  # x_ref 7 nodes either side of the origin
            cases += [(eps, float(g.points[mid + k]), 500) for k in (7, -7)]
        cases += [(1.0, float(g.points[mid - 7]), 3), (175.0, None, 3)]
        for eps, x_ref, max_iter in cases:
            cfg = WaxmanConfig(eps, x_ref, max_iter=max_iter, sector=sector)
            res = waxman_fixed_point(cfg, V)
            lam, iterations, residual, u = _reference_fixed_point(cfg, V)
            assert (res.lam, res.iterations, res.residual) == (lam, iterations, residual)
            assert res.u.values.tobytes() == u.tobytes()
        whole_line = well == "table" and sector == "full"
        assert starts == [0 if whole_line else mid] * len(cases)

    @pytest.mark.parametrize("n_points", [161, 2401, 50001])
    @pytest.mark.parametrize("sector", ["full", "odd"])
    def test_decay_is_exp_minus_s_x(self, n_points, sector):
        # The reference apply reads scan.decay, so check the weight itself:
        # in the full sector it is the mirror of grow, not a second exp.
        for half_width in (12.0, 7.3):
            g = make_grid(half_width, n_points)
            x = g.points if sector == "full" else g.points[g.mid_index :]
            for eps in (1e-3, 0.5, 1.0, 170.0, 3495.0):
                scan = _KernelScan(g, eps, sector)
                assert np.array_equal(scan.decay, np.exp(-scan.s * x))

    @pytest.mark.parametrize(
        "sector,solve_arrays,apply_arrays", [("full", 4.2, 4.2), ("odd", 4.2, 3.2)]
    )
    def test_scan_holds_few_arrays(self, sector, solve_arrays, apply_arrays):
        # On an even well a solve of either sector holds u, w, grow, decay and
        # the two running integrals on the half-axis, then the unfolded u;
        # apply_kernel holds V*u and the scan's arrays (whole-line in the full
        # sector, where grow read backwards is decay).  Counted in n-sized
        # float arrays; numpy reports them to tracemalloc.
        n = 50001
        g = make_grid(12.0, n)
        V = sample_potential(PotentialSpec.gaussian(), g)
        u = SampledFunction(g, np.ones(n))
        peaks = []
        for run in (
            lambda: waxman_fixed_point(WaxmanConfig(epsilon=1.0, sector=sector), V),
            lambda: apply_kernel(GreensKernel(1.0, sector), V, u),
        ):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] / (8 * n))
            finally:
                tracemalloc.stop()
        assert peaks[0] <= solve_arrays
        assert peaks[1] <= apply_arrays

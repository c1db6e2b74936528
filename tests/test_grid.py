"""Grid construction, quadrature, and inner-product behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundstates import (
    GridMismatchError,
    SampledFunction,
    inner_product,
    integrate,
    make_grid,
)
from boundstates.grid import find_root

SQRT_2PI = 2.5066282746310005  # closed form of the Gaussian integral


class TestMakeGrid:
    def test_three_point_grid(self):
        g = make_grid(1.0, 3)
        np.testing.assert_array_equal(g.points, [-1.0, 0.0, 1.0])
        assert g.spacing == 1.0

    def test_default_scale_spacing(self):
        g = make_grid(12.0, 2401)
        assert g.spacing == pytest.approx(0.01, abs=1e-15)

    def test_even_count_rejected(self):
        with pytest.raises(ValueError):
            make_grid(12.0, 2400)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_half_width_rejected(self, bad):
        with pytest.raises(ValueError):
            make_grid(bad, 101)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 1)

    @pytest.mark.parametrize("half_width,n", [(1.0, 3), (12.0, 2401), (5.5, 333)])
    def test_invariants(self, half_width, n):
        g = make_grid(half_width, n)
        diffs = np.diff(g.points)
        assert np.all(diffs > 0)
        assert np.max(np.abs(diffs - g.spacing)) <= 1e-12 * half_width
        # symmetric pairing and an exact origin node
        assert np.max(np.abs(g.points + g.points[::-1])) <= 1e-12 * half_width
        assert g.points[g.mid_index] == 0.0
        assert abs(g.spacing * (n - 1) - 2 * half_width) <= 1e-12 * half_width

    def test_node_index(self):
        g = make_grid(12.0, 2401)
        assert g.node_index(0.0) == g.mid_index
        assert g.node_index(1.0) == g.mid_index + 100
        with pytest.raises(ValueError):
            g.node_index(0.005)


class TestSampledFunction:
    def test_length_mismatch_rejected(self):
        g = make_grid(1.0, 3)
        with pytest.raises(ValueError):
            SampledFunction(g, np.zeros(5))

    def test_nonfinite_rejected(self):
        g = make_grid(1.0, 3)
        with pytest.raises(ValueError):
            SampledFunction(g, [0.0, np.nan, 0.0])

    def test_from_callable(self):
        g = make_grid(2.0, 5)
        f = SampledFunction.from_callable(g, lambda x: x**2)
        np.testing.assert_allclose(f.values, g.points**2)


class TestIntegrate:
    def test_constant(self):
        g = make_grid(5.0, 201)
        assert integrate(SampledFunction(g, np.ones(201))) == pytest.approx(10.0)

    def test_odd_integrand_vanishes(self):
        g = make_grid(7.0, 401)
        f = SampledFunction(g, g.points.copy())
        assert abs(integrate(f)) <= 1e-12

    def test_gaussian_against_closed_form(self, fine_grid):
        f = SampledFunction.from_callable(fine_grid, lambda x: np.exp(-0.5 * x * x))
        assert integrate(f) == pytest.approx(SQRT_2PI, abs=1e-8)

    def test_refinement_reduces_error_fourfold(self):
        # cos has nonzero boundary derivatives, so the h^2 term is visible
        exact = 2.0 * math.sin(5.0)
        errs = []
        for n in (101, 201):
            g = make_grid(5.0, n)
            f = SampledFunction.from_callable(g, np.cos)
            errs.append(abs(integrate(f) - exact))
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestInnerProduct:
    def test_constant_pair(self):
        g = make_grid(5.0, 201)
        one = SampledFunction(g, np.ones(201))
        assert inner_product(one, one) == pytest.approx(10.0)

    def test_normalized_gaussian(self, fine_grid):
        phi = SampledFunction.from_callable(
            fine_grid, lambda x: (2.0 / np.pi) ** 0.25 * np.exp(-x * x)
        )
        assert inner_product(phi, phi) == pytest.approx(1.0, abs=1e-8)

    def test_symmetry_exact(self, fine_grid, rng):
        f = SampledFunction(fine_grid, rng.normal(size=fine_grid.n_points))
        g = SampledFunction(fine_grid, rng.normal(size=fine_grid.n_points))
        assert inner_product(f, g) == inner_product(g, f)

    def test_positive_semidefinite(self, rng):
        g = make_grid(3.0, 51)
        for _ in range(20):
            f = SampledFunction(g, rng.normal(size=51))
            assert inner_product(f, f) >= 0.0

    def test_grid_mismatch_rejected(self):
        f = SampledFunction(make_grid(1.0, 3), np.ones(3))
        g = SampledFunction(make_grid(2.0, 3), np.ones(3))
        with pytest.raises(GridMismatchError):
            inner_product(f, g)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-10, 10, allow_nan=False),
    b=st.floats(-10, 10, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
def test_trapezoid_linearity(a, b, seed):
    g = make_grid(4.0, 81)
    r = np.random.default_rng(seed)
    fv = r.normal(size=81)
    gv = r.normal(size=81)
    lhs = integrate(SampledFunction(g, a * fv + b * gv))
    rhs = a * integrate(SampledFunction(g, fv)) + b * integrate(SampledFunction(g, gv))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestFindRoot:
    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (2.0, 3.0)])
    def test_no_sign_change_rejected(self, a, b):
        with pytest.raises(ValueError, match="differ in sign"):
            find_root(lambda x: x * x + 0.5, a, b, 1e-12)

    @pytest.mark.parametrize("a, b", [(2.0, 5.0), (-1.0, 2.0)])
    def test_zero_at_an_end_returns_that_end(self, a, b):
        assert find_root(lambda x: x - 2.0, a, b, 1e-12) == 2.0

    # Strongly convex on the bracket: plain regula falsi never moves the
    # upper end, so its bracket never narrows, and on exp(20x) and x^3 its
    # iterate takes over 80000 steps to come within 1e-12.  Bisection needs
    # 42 evaluations on [0, 1]; the Illinois halving must beat both.
    @pytest.mark.parametrize(
        "f, root",
        [
            (lambda x: x**10 - 0.5, 0.5**0.1),
            (lambda x: math.exp(20.0 * x) - 2.0, math.log(2.0) / 20.0),
            (lambda x: x**3 - 1e-6, 1e-2),
        ],
        ids=["x^10", "exp(20x)", "x^3"],
    )
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0)])
    def test_convex_roots_within_xtol_and_evaluation_cap(self, f, root, a, b):
        calls = []

        def counted(x):
            calls.append(x)
            assert len(calls) <= 40, "no convergence within 40 evaluations"
            return f(x)

        assert abs(find_root(counted, a, b, 1e-12) - root) <= 1e-12

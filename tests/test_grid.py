"""Grid construction, sampled functions, and root finding."""

import math

import numpy as np
import pytest

from boundstates import SampledFunction, make_grid
from boundstates.grid import find_root


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

    @pytest.mark.parametrize("bad", [2401.7, 2401.0, "2401", True])
    def test_non_integer_count_rejected(self, bad):
        with pytest.raises(ValueError, match="n_points must be an odd integer >= 3"):
            make_grid(12.0, bad)

    def test_numpy_integer_count_accepted(self):
        g = make_grid(12.0, np.int64(2401))
        assert type(g.n_points) is int
        assert g.points.shape == (2401,)


class TestSampledFunction:
    def test_length_mismatch_rejected(self):
        g = make_grid(1.0, 3)
        with pytest.raises(ValueError):
            SampledFunction(g, np.zeros(5))

    def test_nonfinite_rejected(self):
        g = make_grid(1.0, 3)
        with pytest.raises(ValueError):
            SampledFunction(g, [0.0, np.nan, 0.0])


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

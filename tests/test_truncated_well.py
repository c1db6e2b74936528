"""A hypothesis for the one FAIL row: the published threshold is the cut well's.

``reproduce-paper`` compares the odd-sector threshold of exp(-x^2 / 2) with
the published 1.35348 and fails: this well binds its odd sector at
1.3420023.  The same Gaussian cut to zero at |x| = 3 binds it at 1.3516411,
inside the published tolerance.  The near-threshold odd state is spread
out, so the far tail of V weighs on it.  These tests pin both thresholds
through the zero-energy ODE oracle of tests/_threshold.py, and that the
package's kernel route, which drops V outside its grid, converges to the
cut value.  They pin numbers, not the published run's setup, which the
paper does not state; the harness's well, reference and tolerance stay.
"""

from functools import lru_cache

import numpy as np
import pytest

from boundstates import PotentialSpec, make_grid, sample_potential, threshold_lambda
from boundstates.cli import REFERENCE_EXCITED_THRESHOLD, THRESHOLD_TAIL, TOL_THRESHOLD
from _threshold import gaussian_odd_threshold, gaussian_well, odd_threshold

CUT = 3.0


def cut_well(x):
    """The Gaussian set to zero beyond |x| = 3."""
    return gaussian_well(x) if abs(x) <= CUT else 0.0


@lru_cache(maxsize=None)
def cut_threshold():
    """Odd threshold of the cut well, by the ODE oracle."""
    return odd_threshold(cut_well, jumps=(CUT,))


def test_cut_well_threshold_is_within_the_published_tolerance():
    assert cut_threshold() == pytest.approx(1.3516411, abs=1e-7)
    assert abs(cut_threshold() - REFERENCE_EXCITED_THRESHOLD) <= TOL_THRESHOLD


def test_uncut_well_threshold_is_not():
    assert gaussian_odd_threshold() == pytest.approx(1.3420023, abs=1e-7)
    assert abs(gaussian_odd_threshold() - REFERENCE_EXCITED_THRESHOLD) > TOL_THRESHOLD


def test_package_threshold_at_half_width_3_converges_to_the_cut_well():
    # A grid of half-width 3 is the cut: the kernel route drops V outside it.
    lams = np.array(
        [
            threshold_lambda(
                sample_potential(PotentialSpec.gaussian(), make_grid(CUT, n)),
                "odd",
                THRESHOLD_TAIL,
            )
            for n in (151, 301, 601, 1201)
        ]
    )
    assert lams == pytest.approx([1.3514740, 1.3515522, 1.3515718, 1.3515767], abs=1e-7)
    steps = np.diff(lams)
    # Each halving of h quarters the step: O(h^2).
    assert steps[:-1] / steps[1:] == pytest.approx(4.0, rel=1e-2)
    limit = lams[-1] + steps[-1] / 3.0  # Richardson, h -> 0
    # The limit keeps the square-root fit's own bias, 6.3e-5 below the
    # oracle here; the uncut well shows the same (1.341933 against
    # 1.3420023).  So the bound is the fit's, not the grid error's.
    assert abs(limit - cut_threshold()) <= 1e-4

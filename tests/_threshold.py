"""Threshold couplings and ground levels by adaptive ODE integration: test oracles.

At the threshold coupling lam* of the odd sector, the lowest odd state of
``-u'' - lam V(x) u = -eps u`` reaches eps = 0.  There the state solves

    u'' = -lam* V(x) u,    u(0) = 0,    u'(L) = 0,

with u linear outside the well, so a zero-energy bound state is flat far
away.  The oracle integrates the odd solution outward with scipy's DOP853
(tight tolerances, restarted at every potential jump so each piece is
smooth) and finds the smallest coupling at which u'(L) changes sign with
``brentq``.  The same integrator, started from the even data u(0) = 1,
u'(0) = 0 at a binding energy eps > 0, gives the even ground level as the
largest eps at which u'(L) + sqrt(eps) u(L) changes sign (the outward
solution matches the decaying exponential there).

It takes the well as a plain callable and shares no code with
``boundstates``, so agreement with the package's solvers is evidence rather
than tautology.
"""

import math
from functools import lru_cache

from scipy.integrate import solve_ivp
from scipy.optimize import brentq

HALF_WIDTH = 12.0
RTOL = 1e-12
ATOL = 1e-14
LAM_STEP = 0.25
LAM_MAX = 50.0
LEVEL_SCAN = 32


def gaussian_well(x):
    """The Gaussian shape the package calls ``gaussian``: exp(-x^2 / 2)."""
    return math.exp(-0.5 * x * x)


def sech2_well(x):
    """The sech^2 shape; its odd sector binds for coupling above 2."""
    return 1.0 / math.cosh(x) ** 2


def square_well(a):
    """Unit-depth square well of half-width ``a`` (jump at x = a)."""
    return lambda x: 1.0 if abs(x) <= a else 0.0


def _terminal_state(well, lam, eps, state, jumps):
    """(u(L), u'(L)) of u'' = (eps - lam V) u from the given (u(0), u'(0))."""
    edges = [0.0] + sorted(j for j in jumps if 0.0 < j < HALF_WIDTH) + [HALF_WIDTH]
    for lo, hi in zip(edges, edges[1:]):
        # At a piece's ends the well takes its interior value, so the
        # integrator never sees the far side of a jump.
        inside = well(0.5 * (lo + hi))

        def rhs(x, y, lo=lo, hi=hi, inside=inside):
            v = well(x) if lo < x < hi else inside
            return [y[1], (eps - lam * v) * y[0]]

        sol = solve_ivp(rhs, (lo, hi), state, method="DOP853", rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise RuntimeError(f"integration failed on [{lo}, {hi}]: {sol.message}")
        state = sol.y[:, -1]
    return float(state[0]), float(state[1])


def odd_threshold(well, jumps=()):
    """Smallest coupling at which the odd sector of ``well`` binds.

    ``jumps`` lists the x > 0 where the well is discontinuous.  Steps the
    coupling up from zero until u'(L) turns negative (at zero coupling u is
    x, with slope 1), then refines that first sign change.
    """
    # u'(L) of the odd zero-energy solution u(0) = 0, u'(0) = 1
    slope = lambda lam: _terminal_state(well, lam, 0.0, [0.0, 1.0], jumps)[1]
    lo = 0.0
    while lo < LAM_MAX:
        hi = lo + LAM_STEP
        if slope(hi) <= 0.0:
            return brentq(slope, lo, hi, xtol=1e-14, rtol=1e-14)
        lo = hi
    raise ValueError(f"no odd threshold below coupling {LAM_MAX}")


@lru_cache(maxsize=None)
def gaussian_odd_threshold():
    """Odd-sector threshold coupling of the Gaussian well exp(-x^2 / 2)."""
    return odd_threshold(gaussian_well)


def even_ground_level(well, lam, jumps=()):
    """Binding energy eps of the even ground state of lam * ``well``.

    The wells here peak at 1, so no level lies deeper than eps = lam.  Steps
    eps down from there until the decay defect u'(L) + sqrt(eps) u(L) of the
    even solution turns negative (above every level it is positive), then
    refines that first sign change.
    """

    def defect(eps):
        u, up = _terminal_state(well, lam, eps, [1.0, 0.0], jumps)
        return up + math.sqrt(eps) * u

    step = lam / LEVEL_SCAN
    hi = lam
    while hi > step:
        lo = hi - step
        if defect(lo) <= 0.0:
            return brentq(defect, lo, hi, xtol=1e-14, rtol=1e-14)
        hi = lo
    raise ValueError(f"no even level deeper than eps = {step}")


@lru_cache(maxsize=None)
def square_well_ground_level(lam):
    """Even ground level of the unit-depth square well of half-width 1."""
    return even_ground_level(square_well(1.0), lam, jumps=(1.0,))


@lru_cache(maxsize=None)
def gaussian_ground_level(lam):
    """Even ground level of the Gaussian well exp(-x^2 / 2)."""
    return even_ground_level(gaussian_well, lam)

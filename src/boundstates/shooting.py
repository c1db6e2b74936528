"""Independent ground-truth eigensolvers: outward shooting and closed forms.

These deliberately share no machinery with the kernel or Lanczos solvers
(different discretization, different algorithm family), so agreement
between routes is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import NoBoundStateError
from .potentials import PotentialSpec, peak_value, potential_pieces

PARITIES = ("even", "odd")
# Potential kinds with closed-form (or transcendental-root) levels.
ANALYTIC_KINDS = ("poschl_teller", "square_well")

_RESCALE_LIMIT = 1e100


@dataclass
class ShootingConfig:
    """Parameters of one shooting solve at fixed coupling."""

    lam: float
    parity: str
    half_width: float = 12.0
    step: float = 2e-3
    bracket: tuple[float, float] | None = None
    tol: float = 1e-10
    prescan: int = 50

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"coupling lam must be positive, got {self.lam!r}")
        if self.parity not in PARITIES:
            raise ValueError(f"parity must be one of {PARITIES}, got {self.parity!r}")
        if not self.half_width > 0 or not self.step > 0 or not self.tol > 0:
            raise ValueError("half_width, step, and tol must all be positive")
        if self.bracket is not None:
            lo, hi = self.bracket
            if not (0 < lo < hi):
                raise ValueError(f"bracket must satisfy 0 < lo < hi, got {self.bracket!r}")


def _pieces(cfg: ShootingConfig, potential) -> list[tuple[float, float, Callable]]:
    if isinstance(potential, PotentialSpec):
        return potential_pieces(potential, cfg.half_width)
    if callable(potential):
        return [(0.0, cfg.half_width, potential)]
    raise TypeError("potential must be a PotentialSpec or a callable V(x)")


def _terminal_state(
    cfg: ShootingConfig, pieces, epsilon: float, initial_scale: float = 1.0
) -> tuple[float, float]:
    """Integrate u'' = (eps - lam V) u outward from x = 0 to the boundary.

    Classic fourth-order Runge-Kutta with a fixed step per smooth piece;
    splitting at potential jumps preserves the full order.  The state is
    rescaled whenever it overflows the renormalization limit, which leaves
    every scale-invariant functional of (u, u') unchanged.
    """
    if cfg.parity == "even":
        u, up = initial_scale, 0.0
    else:
        u, up = 0.0, initial_scale
    lam = cfg.lam
    for lo, hi, f in pieces:
        span = hi - lo
        if span <= 0:
            continue
        nsteps = max(1, math.ceil(span / cfg.step))
        h = span / nsteps
        for i in range(nsteps):
            x = lo + i * h
            qa = epsilon - lam * f(x)
            qm = epsilon - lam * f(x + 0.5 * h)
            qb = epsilon - lam * f(x + h)
            k1u = up
            k1p = qa * u
            k2u = up + 0.5 * h * k1p
            k2p = qm * (u + 0.5 * h * k1u)
            k3u = up + 0.5 * h * k2p
            k3p = qm * (u + 0.5 * h * k2u)
            k4u = up + h * k3p
            k4p = qb * (u + h * k3u)
            u += h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            up += h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            if abs(u) > _RESCALE_LIMIT or abs(up) > _RESCALE_LIMIT:
                u *= 1e-100
                up *= 1e-100
    return u, up


def shoot_mismatch(
    cfg: ShootingConfig, potential, epsilon: float, initial_scale: float = 1.0
) -> float:
    """Logarithmic-derivative mismatch u'(L)/u(L) + sqrt(eps) at the boundary.

    Vanishes at an eigenvalue, where the outward solution matches the
    decaying exponential; invariant under rescaling of the initial data
    (``initial_scale`` exists to make that property testable).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if initial_scale == 0.0:
        raise ValueError("initial_scale must be nonzero")
    u, up = _terminal_state(cfg, _pieces(cfg, potential), epsilon, initial_scale)
    if u == 0.0:
        return math.copysign(math.inf, up)
    return up / u + math.sqrt(epsilon)


def _decay_defect(cfg: ShootingConfig, pieces, epsilon: float) -> float:
    # Numerator of the mismatch: u'(L) + sqrt(eps) u(L).  Shares its root with
    # the mismatch but crosses zero at O(1) scale, so a coarse scan can
    # bracket it (the mismatch itself dips and recovers within an
    # exponentially narrow energy window around the root).
    u, up = _terminal_state(cfg, pieces, epsilon)
    return up + math.sqrt(epsilon) * u


def shooting_eigenvalue(cfg: ShootingConfig, potential) -> float:
    """Binding energy of the lowest state of the given parity, by Brent's method.

    Scans the bracket for sign changes of the decay defect and refines the
    one at the largest binding energy (the deepest level of the parity).
    """
    pieces = _pieces(cfg, potential)
    if cfg.bracket is not None:
        lo, hi = cfg.bracket
    else:
        if not isinstance(potential, PotentialSpec):
            raise ValueError("an explicit bracket is required for a bare callable")
        lo, hi = 1e-4, cfg.lam * peak_value(potential)
    if not lo < hi:
        raise ValueError(f"empty bracket ({lo:g}, {hi:g})")

    grid = np.linspace(lo, hi, cfg.prescan)
    defects = [_decay_defect(cfg, pieces, float(e)) for e in grid]
    bracket = None
    for i in range(len(grid) - 1):
        if defects[i] == 0.0:
            return float(grid[i])
        if defects[i] * defects[i + 1] < 0:
            bracket = (float(grid[i]), float(grid[i + 1]))
    if defects[-1] == 0.0:
        return float(grid[-1])
    if bracket is None:
        raise NoBoundStateError(
            f"no level in bracket ({lo:g}, {hi:g}) for lam={cfg.lam:g}, "
            f"parity={cfg.parity}"
        )

    return float(
        brentq(lambda e: _decay_defect(cfg, pieces, e), *bracket, xtol=cfg.tol)
    )


def analytic_level(spec: PotentialSpec, lam: float, index: int) -> float:
    """Closed-form (or transcendental-root) binding energy of level ``index``.

    Supports the sech^2 well, where with s(s+1) = lam the levels sit at
    (s - n)^2 for 0 <= n < s, and the square well, where level n solves
    k tan(ka) = sqrt(eps) (n even) or -k cot(ka) = sqrt(eps) (n odd) with
    k^2 + eps = lam.
    """
    if not lam > 0:
        raise ValueError(f"coupling lam must be positive, got {lam!r}")
    if index < 0:
        raise ValueError(f"level index must be >= 0, got {index!r}")

    if spec.kind == "poschl_teller":
        s = 0.5 * (math.sqrt(1.0 + 4.0 * lam) - 1.0)
        if index >= s:
            raise ValueError(
                f"sech^2 well with lam={lam:g} has no level {index} "
                f"(supports indices below {s:g})"
            )
        return (s - index) ** 2

    if spec.kind == "square_well":
        a = spec.a
        theta_max = math.sqrt(lam) * a
        lo = index * math.pi / 2.0
        if theta_max <= lo:
            raise ValueError(
                f"square well with lam={lam:g}, a={a:g} has no level {index}"
            )
        hi = min((index + 1) * math.pi / 2.0, theta_max)

        if index % 2 == 0:

            def f(theta):
                return theta * math.tan(theta) - math.sqrt(
                    max(lam * a * a - theta * theta, 0.0)
                )

        else:

            def f(theta):
                return -theta / math.tan(theta) - math.sqrt(
                    max(lam * a * a - theta * theta, 0.0)
                )

        # The root is simple and the function monotone on the branch; a short
        # scan locates the sign change away from the branch endpoints.
        thetas = np.linspace(lo + 1e-12 * (1 + lo), hi, 256)
        vals = [f(float(t)) for t in thetas]
        for i in range(len(thetas) - 1):
            if vals[i] == 0.0:
                theta = float(thetas[i])
                break
            if vals[i] * vals[i + 1] < 0:
                theta = brentq(f, float(thetas[i]), float(thetas[i + 1]), xtol=1e-13)
                break
        else:
            raise ValueError(
                f"square well with lam={lam:g}, a={a:g} has no level {index}"
            )
        eps = lam - (theta / a) ** 2
        if eps <= 0:
            raise ValueError(
                f"square well with lam={lam:g}, a={a:g} has no bound level {index}"
            )
        return eps

    raise ValueError(f"no closed-form levels for potential kind {spec.kind!r}")

"""Independent ground-truth eigensolvers: outward shooting and closed forms.

Shooting integrates the linear ODE u'' = (eps - lam V) u outward with RK4
as a pairwise product of renormalized 2x2 step propagators, with V sampled
once per solve.

These deliberately share no machinery with the kernel or Lanczos solvers
(different discretization, different algorithm family), so agreement
between routes is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoBoundStateError
from .grid import find_root
from .potentials import PotentialSpec, peak_value, potential_pieces

PARITIES = ("even", "odd")
# Energies on the sign-change scan of the bracket, and the Illinois xtol.
_PRESCAN = 50
_XTOL = 1e-10


@dataclass
class ShootingConfig:
    """Parameters of one shooting solve at fixed coupling."""

    lam: float
    parity: str
    half_width: float = 12.0
    step: float = 2e-3

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(
                f"coupling lam must be positive and finite, got {self.lam!r}"
            )
        if self.parity not in PARITIES:
            raise ValueError(f"parity must be one of {PARITIES}, got {self.parity!r}")
        if not self.half_width > 0 or not self.step > 0:
            raise ValueError("half_width and step must both be positive")


def _sample(
    cfg: ShootingConfig, potential: PotentialSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Step widths and V at x, x + h/2 and x + h of every RK4 step on [0, L].

    Each smooth piece gets a fixed step (splitting at jumps keeps the full
    order); V is evaluated once per piece, on all its sample points at once.
    """
    if not isinstance(potential, PotentialSpec):
        raise TypeError(f"potential must be a PotentialSpec, got {potential!r}")
    widths, values = [], []
    for lo, hi, f in potential_pieces(potential, cfg.half_width):
        nsteps = math.ceil((hi - lo) / cfg.step)
        v = f(np.linspace(lo, hi, 2 * nsteps + 1))
        widths.append(np.full(nsteps, (hi - lo) / nsteps))
        values.append(np.stack([v[:-1:2], v[1::2], v[2::2]]))
    return np.concatenate(widths), np.concatenate(values, axis=1)


def _terminal_state(
    cfg: ShootingConfig, samples, epsilon: float
) -> tuple[float, float]:
    """Integrate u'' = (eps - lam V) u outward from x = 0 to the boundary.

    One classic fourth-order Runge-Kutta step of the linear ODE is a 2x2
    matrix whose columns are the step applied to the unit states.  The
    terminal state is the ordered product of the step matrices, reduced
    pairwise.  Each product at each level is divided by the power of two
    that brings its largest entry into [1/2, 1): exact, never overflowing,
    and neutral to every sign and scale-invariant functional of (u, u').
    """
    h, v = samples
    qa, qm, qb = epsilon - cfg.lam * v
    # Both unit states at once, indexed by column: (u, u') = (1, 0) and (0, 1).
    u, up = np.eye(2)[:, :, None]
    k1u = up
    k1p = qa * u
    k2u = up + 0.5 * h * k1p
    k2p = qm * (u + 0.5 * h * k1u)
    k3u = up + 0.5 * h * k2p
    k3p = qm * (u + 0.5 * h * k2u)
    k4u = up + h * k3p
    k4p = qb * (u + h * k3u)
    u = u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    up = up + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    m = np.stack([u, up])  # m[row, column, step]; rows are u and u'
    while m.shape[-1] > 1:
        later, earlier = m[..., 1::2], m[..., :-1:2]
        prod = later[:, :1] * earlier[0] + later[:, 1:] * earlier[1]
        if m.shape[-1] % 2:
            prod = np.concatenate([prod, m[..., -1:]], axis=-1)
        scale = np.abs(prod).max(axis=(0, 1))
        m = np.ldexp(prod, -np.frexp(scale)[1])
    u, up = m[:, 0 if cfg.parity == "even" else 1, 0]
    return float(u), float(up)


def shoot_mismatch(
    cfg: ShootingConfig, potential: PotentialSpec, epsilon: float
) -> float:
    """Logarithmic-derivative mismatch u'(L)/u(L) + sqrt(eps) at the boundary.

    Vanishes at an eigenvalue, where the outward solution matches the
    decaying exponential.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    u, up = _terminal_state(cfg, _sample(cfg, potential), epsilon)
    if u == 0.0:
        return math.copysign(math.inf, up)
    return up / u + math.sqrt(epsilon)


def _decay_defect(cfg: ShootingConfig, samples, epsilon: float) -> float:
    # Numerator of the mismatch: u'(L) + sqrt(eps) u(L).  Shares its root with
    # the mismatch but crosses zero at O(1) scale, so a coarse scan can
    # bracket it (the mismatch itself dips and recovers within an
    # exponentially narrow energy window around the root).
    u, up = _terminal_state(cfg, samples, epsilon)
    return up + math.sqrt(epsilon) * u


def shooting_eigenvalue(cfg: ShootingConfig, potential: PotentialSpec) -> float:
    """Binding energy of the lowest state of the given parity, by the Illinois method.

    Samples V once, scans the bracket (1e-4, lam * max V) for sign changes of
    the decay defect (one propagator product per energy) and refines the one
    at the largest binding energy (the deepest level of the parity).
    Renormalizing the products keeps every sign, so wide boxes and deep wells
    cannot overflow.
    """
    samples = _sample(cfg, potential)
    lo, hi = 1e-4, cfg.lam * peak_value(potential)
    if not lo < hi:
        raise ValueError(f"empty bracket ({lo:g}, {hi:g})")

    grid = np.linspace(lo, hi, _PRESCAN)
    defects = [_decay_defect(cfg, samples, float(e)) for e in grid]
    ends = None
    for i, f in enumerate(defects):
        if f == 0.0:
            return float(grid[i])
        if i and defects[i - 1] * f < 0:
            ends = {float(grid[j]): defects[j] for j in (i - 1, i)}
    if ends is None:
        raise NoBoundStateError(
            f"no level in bracket ({lo:g}, {hi:g}) for lam={cfg.lam:g}, "
            f"parity={cfg.parity}"
        )

    def defect(e: float) -> float:  # the scan already shot the bracket ends
        return ends[e] if e in ends else _decay_defect(cfg, samples, e)
    return float(find_root(defect, *ends, _XTOL))


def analytic_level(spec: PotentialSpec, lam: float, index: int) -> float:
    """Closed-form (or transcendental-root) binding energy of level ``index``.

    Supports the sech^2 well, where with s(s+1) = lam the levels sit at
    (s - n)^2 for 0 <= n < s, and the square well, where level n solves
    k tan(ka) = sqrt(eps) (n even) or -k cot(ka) = sqrt(eps) (n odd) with
    k^2 + eps = lam.  Raises ``NoBoundStateError`` for a level the well does
    not have and ``ValueError`` for a bad argument.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"coupling lam must be positive and finite, got {lam!r}")
    if index < 0:
        raise ValueError(f"level index must be >= 0, got {index!r}")

    if spec.kind == "poschl_teller":
        s = 0.5 * (math.sqrt(1.0 + 4.0 * lam) - 1.0)
        if index >= s:
            raise NoBoundStateError(
                f"sech^2 well with lam={lam:g} has no level {index} "
                f"(supports indices below {s:g})"
            )
        return (s - index) ** 2

    if spec.kind == "square_well":
        a = spec.a
        theta_max = math.sqrt(lam) * a
        lo = index * math.pi / 2.0
        if theta_max <= lo:
            raise NoBoundStateError(
                f"square well with lam={lam:g}, a={a:g} has no level {index}"
            )
        hi = min((index + 1) * math.pi / 2.0, theta_max)

        def f(theta):
            lhs = theta * math.tan(theta) if index % 2 == 0 else -theta / math.tan(theta)
            return lhs - math.sqrt(max(lam * a * a - theta * theta, 0.0))

        # The root is simple and the function monotone on the branch; a short
        # scan locates the sign change away from the branch endpoints.
        thetas = np.linspace(lo + 1e-12 * (1 + lo), hi, 256)
        vals = [f(float(t)) for t in thetas]
        for i in range(len(thetas) - 1):
            if vals[i] == 0.0:
                theta = float(thetas[i])
                break
            if vals[i] * vals[i + 1] < 0:
                theta = find_root(f, float(thetas[i]), float(thetas[i + 1]), 1e-13)
                break
        else:
            raise NoBoundStateError(
                f"square well with lam={lam:g}, a={a:g} has no level {index}"
            )
        eps = lam - (theta / a) ** 2
        if eps <= 0:
            raise NoBoundStateError(
                f"square well with lam={lam:g}, a={a:g} has no bound level {index}"
            )
        return eps

    raise ValueError(f"no closed-form levels for potential kind {spec.kind!r}")

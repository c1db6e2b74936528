"""Independent ground-truth eigensolvers: outward shooting and closed forms.

Shooting integrates the linear ODE u'' = (eps - lam V) u outward with RK4
as products of renormalized 2x2 step propagators, with V sampled once per
solve.  A pairwise product gives the terminal state, whose decay defect the
root finder refines; a prefix scan gives u at every step node, whose sign
changes count the levels bound deeper than a trial energy and so certify
which level the refined bracket holds.

These deliberately share no machinery with the kernel or Lanczos solvers
(different discretization, different algorithm family), so agreement
between routes is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoBoundStateError, SolverError
from .grid import check_positive, find_root
from .potentials import PotentialSpec, potential_pieces

PARITIES = ("even", "odd")
# The Illinois xtol on the binding energy.
_XTOL = 1e-10


@dataclass
class ShootingConfig:
    """Parameters of one shooting solve at fixed coupling."""

    lam: float
    parity: str
    half_width: float = 12.0
    step: float = 2e-3

    def __post_init__(self):
        check_positive("coupling lam", self.lam)
        if self.parity not in PARITIES:
            raise ValueError(f"parity must be one of {PARITIES}, got {self.parity!r}")
        check_positive("half_width", self.half_width)
        check_positive("step", self.step)


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


def _step_matrices(cfg: ShootingConfig, samples, epsilon: float) -> np.ndarray:
    """RK4 step propagators of u'' = (eps - lam V) u, as m[row, column, step].

    One classic fourth-order Runge-Kutta step of the linear ODE is a 2x2
    matrix whose columns are the step applied to the unit states (u, u') =
    (1, 0) and (0, 1), the even and odd initial states; its rows are u and
    u'.  Raises ``SolverError`` when a
    step is too coarse for the well, h sqrt(lam max V) > 1: there RK4 loses
    its accuracy, at least one node of u can fall between two step nodes,
    and a huge coupling would overflow the matrices.
    """
    h, v = samples
    if cfg.lam * float((h * h * v).max()) > 1.0:
        raise SolverError(
            f"step {cfg.step:g} cannot resolve the well at lam={cfg.lam:g}: "
            "h * sqrt(lam * max V) exceeds 1"
        )
    qa, qm, qb = epsilon - cfg.lam * v
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
    return np.stack([u, up])


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Products later @ earlier of stacks of 2x2 matrices, renormalized.

    Each product is divided by the power of two that brings its largest entry
    into [1/2, 1): exact, never overflowing, and neutral to every sign and
    scale-invariant functional of (u, u').
    """
    prod = later[:, :1] * earlier[0] + later[:, 1:] * earlier[1]
    return np.ldexp(prod, -np.frexp(np.abs(prod).max(axis=(0, 1)))[1])


def _terminal_state(
    cfg: ShootingConfig, samples, epsilon: float
) -> tuple[float, float]:
    """Integrate u'' = (eps - lam V) u outward from x = 0 to the boundary.

    The terminal state is the ordered product of the step matrices, reduced
    pairwise.
    """
    m = _step_matrices(cfg, samples, epsilon)
    while m.shape[-1] > 1:
        prod = _compose(m[..., 1::2], m[..., :-1:2])
        m = np.concatenate([prod, m[..., -1:]], axis=-1) if m.shape[-1] % 2 else prod
    u, up = m[:, PARITIES.index(cfg.parity), 0]
    return float(u), float(up)


def _node_count(cfg: ShootingConfig, samples, epsilon: float) -> int:
    """Sturm count: the levels of the parity with binding energy above eps.

    An inclusive prefix scan of the step matrices (Hillis-Steele: each pass
    composes every prefix with the one ``d`` steps earlier, d = 1, 2, 4, ...)
    gives u at every step node.  The count is the number of sign changes of
    u on (0, L], plus 1 when (u'(L) + sqrt(eps) u(L)) u(L) < 0, that is when
    the decaying tail would add one more node beyond L (Johnson, J. Chem.
    Phys. 67, 4086, 1977).  A step resolves the well, so u changes sign at
    most once between two nodes.
    """
    m = _step_matrices(cfg, samples, epsilon)
    d = 1
    while d < m.shape[-1]:
        m[..., d:] = _compose(m[..., d:], m[..., :-d])
        d *= 2
    u, up = m[:, PARITIES.index(cfg.parity)]
    negative = u < 0
    nodes = int(np.count_nonzero(negative[1:] != negative[:-1])) + int(negative[0])
    return nodes + int((up[-1] + math.sqrt(epsilon) * u[-1]) * u[-1] < 0)


def shoot_mismatch(
    cfg: ShootingConfig, potential: PotentialSpec, epsilon: float
) -> float:
    """Logarithmic-derivative mismatch u'(L)/u(L) + sqrt(eps) at the boundary.

    Vanishes at an eigenvalue, where the outward solution matches the
    decaying exponential.
    """
    check_positive("epsilon", epsilon)
    u, up = _terminal_state(cfg, _sample(cfg, potential), epsilon)
    if u == 0.0:
        return math.copysign(math.inf, up)
    return up / u + math.sqrt(epsilon)


def _decay_defect(cfg: ShootingConfig, samples, epsilon: float) -> float:
    # Numerator of the mismatch: u'(L) + sqrt(eps) u(L).  Shares its root with
    # the mismatch but crosses zero at O(1) scale, so the root finder sees a
    # simple sign change (the mismatch itself dips and recovers within an
    # exponentially narrow energy window around the root).
    u, up = _terminal_state(cfg, samples, epsilon)
    return up + math.sqrt(epsilon) * u


def shooting_eigenvalue(cfg: ShootingConfig, potential: PotentialSpec) -> float:
    """Binding energy of the lowest state of the given parity, in a certified bracket.

    Samples V once.  The node count N(eps) of ``_node_count`` says how many
    levels of the parity lie in (eps, lam * max V): none at 1e-4 raises
    ``NoBoundStateError``, and otherwise bisection on N shrinks the bracket
    until it holds the deepest level alone, N(lo) = 1 and N(hi) = 0 (the
    certificate of SLEIGN2, Bailey, Everitt & Zettl, ACM TOMS 27, 143,
    2001).  The Illinois method then finds the root of the decay defect in
    that bracket.  Renormalizing the products keeps every sign, so wide
    boxes and deep wells cannot overflow.
    """
    samples = _sample(cfg, potential)
    lo, hi = 1e-4, cfg.lam * float(samples[1].max())
    # No level binds deeper than lam * max V, so an empty bracket holds none.
    levels = _node_count(cfg, samples, lo) if lo < hi else 0
    if levels < 1:
        raise NoBoundStateError(
            f"no {cfg.parity} level bound deeper than {lo:g} for lam={cfg.lam:g}"
        )
    while levels > 1:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise SolverError(
                f"cannot separate the two deepest {cfg.parity} levels "
                f"near {lo!r} for lam={cfg.lam:g}"
            )
        count = _node_count(cfg, samples, mid)
        if count:
            lo, levels = mid, count
        else:
            hi = mid
    return float(find_root(lambda e: _decay_defect(cfg, samples, e), lo, hi, _XTOL))


def analytic_level(spec: PotentialSpec, lam: float, index: int) -> float:
    """Closed-form (or transcendental-root) binding energy of level ``index``.

    Supports the sech^2 well, where with s(s+1) = lam the levels sit at
    (s - n)^2 for 0 <= n < s, and the square well, where level n solves
    k tan(ka) = sqrt(eps) (n even) or -k cot(ka) = sqrt(eps) (n odd) with
    k^2 + eps = lam on the branch n pi/2 < ka < (n + 1) pi/2.  Raises
    ``NoBoundStateError`` for a level the well does not have,
    ``SolverError`` for one that underflows to 0, and ``ValueError`` for a
    bad argument.
    """
    check_positive("coupling lam", lam)
    if index < 0:
        raise ValueError(f"level index must be >= 0, got {index!r}")

    if spec.kind == "poschl_teller":
        # s = (sqrt(1 + 4 lam) - 1) / 2, in a form that neither cancels at small
        # lam nor overflows at huge lam.
        s = lam / (math.sqrt(lam + 0.25) + 0.5)
        if index >= s:
            raise NoBoundStateError(
                f"sech^2 well with lam={lam:g} has no level {index} "
                f"(supports indices below {s:g})"
            )
        eps = (s - index) ** 2
    elif spec.kind == "square_well":
        a = spec.a
        theta_max = math.sqrt(lam) * a
        lo = index * math.pi / 2.0
        if theta_max <= lo:
            raise NoBoundStateError(
                f"square well with lam={lam:g}, a={a:g} has no level {index}"
            )
        # One ulp past the rounded branch end keeps a root that lies within
        # rounding of the end inside the bracket.
        hi = min(math.nextafter((index + 1) * math.pi / 2.0, math.inf), theta_max)

        def f(theta):
            # The branch equation times cos(theta) (n even) or sin(theta)
            # (n odd): no pole, and exactly one sign change on (lo, hi).
            r = math.sqrt(max(theta_max - theta, 0.0)) * math.sqrt(theta_max + theta)
            if index % 2 == 0:
                return theta * math.sin(theta) - r * math.cos(theta)
            return theta * math.cos(theta) + r * math.sin(theta)

        theta = find_root(f, lo, hi, 1e-13 * hi)
        eps = lam - (theta / a) ** 2
        if eps < 0.5 * lam:
            # Near threshold lam - (theta / a)^2 cancels; the branch equation
            # gives sqrt(eps) a = theta tan(theta) or -theta cot(theta) instead.
            # Deep levels keep the difference, which is the accurate form there.
            t = math.tan(theta)
            kappa = theta * t if index % 2 == 0 else -theta / t
            if not kappa > 0:
                raise NoBoundStateError(
                    f"square well with lam={lam:g}, a={a:g} has no bound "
                    f"level {index}"
                )
            eps = (kappa / a) ** 2
    else:
        raise ValueError(f"no closed-form levels for potential kind {spec.kind!r}")
    if eps == 0.0:
        raise SolverError(f"level {index} at lam={lam:g} underflows to 0")
    return eps

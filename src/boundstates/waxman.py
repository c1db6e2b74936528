"""Green's-kernel fixed-point solver for bound states of 1D attractive wells.

For a binding energy epsilon > 0 the decaying kernel of (-d^2/dx^2 + epsilon)
turns the eigenvalue problem into an integral equation.  Normalizing each
iterate at a reference node removes the coupling strength from the map, so
iterating to a fixed point and reading the normalization integral afterwards
yields the coupling lambda(epsilon) that supports a bound state at that
energy.  Sweeping epsilon and inverting the sampled curve gives the energy
at a prescribed coupling; the odd-parity sector (image kernel vanishing at
the origin) does the same for the first excited state of an even well.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import NoBoundStateError, SolverError
from .grid import (
    Grid, SampledFunction, check_integer, check_positive, check_same_grid, find_root
)
from .lanczos import Hamiltonian, hamiltonian_apply

SECTORS = ("full", "odd")

# At or below this share of an image's largest magnitude, a divisor counts as 0.
_DENOMINATOR_FLOOR = 1e-14
# Tail points (the ones nearest zero) in the threshold's square-root fit.
_FIT_POINTS = 4
# Largest s |x - a| of a scan weight exp(+-s (x - a)): exp(600) leaves a factor
# exp(109) below the float maximum (exp(709.78)) for the running sums.
_MAX_EXPONENT = 600.0


def _check_sector(sector: str) -> None:
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}, got {sector!r}")


@dataclass(frozen=True)
class GreensKernel:
    """Decaying kernel of (-d^2/dx^2 + epsilon), optionally parity-restricted.

    In the full sector the kernel is exp(-sqrt(eps)|x-x'|)/(2 sqrt(eps)); the
    odd sector uses the image combination G(x-x') - G(x+x'), which vanishes
    at the origin and acts on the half-axis.
    """

    epsilon: float
    sector: str = "full"

    def __post_init__(self):
        check_positive("epsilon", self.epsilon)
        _check_sector(self.sector)


class _KernelScan:
    """O(n) applier of the kernel quadrature on a fixed grid.

    Splitting the convolution at the evaluation node leaves two smooth
    half-integrals, so exponential prefix sums reproduce the trapezoid
    quadrature of the kinked integrand exactly, without the dense matrix.
    The weights exp(+-s (x - a)), s = sqrt(eps), are anchored at the node a
    nearest the origin of each block of at most _MAX_EXPONENT / (s h) steps
    (one block, a = 0, while s * half_width <= _MAX_EXPONENT).  Each running
    integral sums its first block, then each later one from the sum so far
    times exp(-s |a - a'|).  The odd sector's image term comes off the left
    integral's first block, and the joins carry it on.  It holds the weights
    and the two running integrals, allocated once; an apply needs no other
    scratch, and its output may overwrite its input.  In the odd sector, or
    with ``even`` (``_scan`` decides it), it scans only the nodes x >= 0, and
    ``mirror`` extends them by ``parity`` (-1, +1).
    """

    def __init__(self, grid: Grid, epsilon: float, sector: str, even: bool = False):
        self.grid = grid
        self.epsilon = epsilon
        self.sector = sector
        self.s = math.sqrt(epsilon)
        self.parity = -1.0 if sector == "odd" else 1.0 if even else 0.0
        self.start = grid.mid_index if self.parity else 0
        x = grid.points[self.start :]
        self._blocks = self._right_blocks = (slice(None), ())  # one block, no joins
        steps = int(_MAX_EXPONENT / (self.s * grid.spacing))
        if steps < grid.mid_index:
            origin = grid.mid_index - self.start
            a = np.arange(-origin, x.size - origin)
            a -= np.fmod(a, steps + 1)  # each node's anchor, in steps from 0
            a = x[a + origin]
            joins = [
                (int(k), math.exp(-self.s * (a[k] - a[k - 1])))
                for k in np.flatnonzero(a[1:] != a[:-1]) + 1
            ]
            self._blocks = _block_table(joins)
            self._right_blocks = _block_table([(x.size - k, c) for k, c in joins[::-1]])
            x = np.subtract(x, a, out=a)
        self.grow = np.exp(self.s * x)
        # make_grid is exactly antisymmetric and (-s)*x == s*(-x), so on the
        # full box the mirror of exp(s x) is exp(-s x) bit for bit.
        self.decay = np.exp(-self.s * x) if self.start else self.grow[::-1]
        self._left, self._right = np.empty_like(x), np.empty_like(x)
        self._half_h, self._two_s = 0.5 * grid.spacing, 2.0 * self.s

    def apply(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Kernel image of ``f`` in ``out`` (may be f), both on x >= 0 with a parity."""
        left, right = self._left, self._right
        # Trapezoid pair sums of grow*f (product in ``right``), summed below.
        # A pair across a join is weighted in the frame of its right node.
        np.multiply(self.grow, f, out=right)
        pairs = np.add(right[1:], right[:-1], out=left[1:])
        for k, _, c in self._blocks[1]:
            left[k] = right[k] + c * right[k - 1]
        pairs *= self._half_h
        # Integral of decay*f from the right edge, in ``out``: f is read no more.
        # A pair across a join is weighted in the frame of its left node.
        np.multiply(self.decay, f, out=right)
        pairs = np.add(right[1:], right[:-1], out=out[:-1])
        for k, _, c in self._blocks[1]:
            out[k - 1] = right[k - 1] + c * right[k]
        pairs *= self._half_h
        out[-1] = -0.0  # IEEE's exact additive identity: every sum keeps its sign
        _carried_sum(out[::-1], self._right_blocks)
        # Integral of grow*f from the left edge; on even input its part over
        # x < 0 is the right integral from 0, summed in the same order.
        left[0] = out[0] if self.parity > 0 else -0.0
        _carried_sum(left, self._blocks, out[0] if self.parity < 0 else None)
        left *= self.decay
        out *= self.grow
        out += left
        out /= self._two_s
        return out

    def step(self, f: np.ndarray, idx: int, out: np.ndarray) -> float:
        """Kernel image of ``f`` in ``out`` (may be f), over its value at grid node idx.

        Returns the divisor.  One at most 1e-14 of the image's largest magnitude
        (or an all-zero image) means the map vanishes at the reference node: no
        admissible coupling exists at this energy, or u has no component along
        the sector's dominant mode.  Only ``out`` is written.
        """
        self.apply(f, out=out)
        denom = out[idx - self.start]
        scale = max(np.maximum.reduce(out), -np.minimum.reduce(out))
        if abs(denom) <= _DENOMINATOR_FLOOR * scale:
            raise NoBoundStateError(
                f"no admissible coupling at epsilon={self.epsilon:g} "
                f"({self.sector} sector): kernel integral {denom:.3e} at the "
                f"reference node x={self.grid.points[idx]:g}"
            )
        out /= denom
        return denom

    def mirror(self, out: np.ndarray) -> np.ndarray:
        """Fill the nodes x < 0 of whole-grid ``out`` from x >= 0 by the parity."""
        if self.start:
            np.multiply(out[: self.start : -1], self.parity, out=out[: self.start])
        return out


def _block_table(joins: Sequence[tuple[int, float]]) -> tuple[slice, tuple]:
    """A running sum's first block, then (first node k, block, carry c) for the rest."""
    ends = [k for k, _ in joins] + [None]
    later = tuple((k, slice(k, end), c) for (k, c), end in zip(joins, ends[1:]))
    return slice(0, ends[0]), later


def _carried_sum(a: np.ndarray, blocks: tuple[slice, tuple], image=None) -> None:
    """Running sum of ``a`` in place: the first block, less ``image`` if given,
    then each later block (k, block, c) from c times the sum before node k."""
    head = a[blocks[0]]
    np.add.accumulate(head, out=head)
    if image is not None:
        head -= image
    for k, block, c in blocks[1]:
        a[k] += c * a[k - 1]
        np.add.accumulate(a[block], out=a[block])


@contextmanager
def _scan(grid: Grid, epsilon: float, sector: str, *factors) -> Iterator[_KernelScan]:
    """A kernel scan whose float overflow raises ``SolverError``, folded onto x >= 0
    in the full sector when given integrand factors that are all exactly even."""
    even = sector == "full" and bool(factors) and all(
        np.array_equal(f, f[::-1]) for f in factors
    )
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield _KernelScan(grid, epsilon, sector, even)
    except FloatingPointError as exc:
        raise SolverError(
            f"kernel scan overflow at epsilon={epsilon:g} ({sector} sector): {exc}"
        ) from exc


def _ref_index(grid: Grid, sector: str) -> int:
    """Node where iterates are 1: x = 0, or (odd sector) the one nearest min(1, L/2)."""
    if sector == "full":
        return grid.mid_index
    steps = max(1, round(min(1.0, 0.5 * grid.half_width) / grid.spacing))
    idx = min(grid.mid_index + steps, grid.n_points - 2)
    if idx == grid.mid_index:
        raise ValueError("odd sector needs n_points >= 5: its states vanish at x = 0")
    return idx


def _kernel_image(kernel: GreensKernel, V, u, step: bool) -> SampledFunction:
    """Kernel image of V*u at every grid node, normalized by ``scan.step`` if ``step``."""
    grid = check_same_grid(V.grid, u.grid, "potential and state must share a grid")
    idx = _ref_index(grid, kernel.sector) if step else None
    with _scan(grid, kernel.epsilon, kernel.sector, V.values, u.values) as scan:
        w = np.multiply(V.values, u.values)
        f = w[scan.start :]
        scan.step(f, idx, f) if step else scan.apply(f, out=f)
        return SampledFunction(grid, scan.mirror(w))


def apply_kernel(
    kernel: GreensKernel, V: SampledFunction, u: SampledFunction
) -> SampledFunction:
    """Quadrature of the kernel integral of V*u at every grid node."""
    return _kernel_image(kernel, V, u, step=False)


def waxman_step(
    kernel: GreensKernel, V: SampledFunction, u_n: SampledFunction
) -> SampledFunction:
    """One normalized iteration of the integral map, 1 at the solve's reference node."""
    return _kernel_image(kernel, V, u_n, step=True)


@dataclass
class WaxmanConfig:
    """Parameters of one fixed-point solve at fixed binding energy."""

    epsilon: float
    tol: float = 1e-10
    max_iter: int = 500
    sector: str = "full"

    def __post_init__(self):
        GreensKernel(self.epsilon, self.sector)  # validates epsilon and sector
        check_positive("tol", self.tol)
        check_integer("max_iter", self.max_iter, 1)


@dataclass
class WaxmanResult:
    """Converged state candidate with its coupling and iteration diagnostics."""

    u: SampledFunction
    lam: float
    epsilon: float
    iterations: int
    residual: float
    converged: bool


def waxman_fixed_point(cfg: WaxmanConfig, V: SampledFunction) -> WaxmanResult:
    """Iterate the normalized map until successive iterates stop moving.

    Non-convergence within ``max_iter`` is reported through the ``converged``
    flag, not raised; the final iterate and coupling are still returned.
    """
    grid = V.grid
    idx = _ref_index(grid, cfg.sector)
    residual, converged, iterations = math.inf, False, 0
    with _scan(grid, cfg.epsilon, cfg.sector, V.values) as scan:  # u stays even if V is
        # Ones (full sector) or x (odd sector): nonzero at the reference node.
        x = grid.points[scan.start :]
        u = np.ones_like(x) if cfg.sector == "full" else x / grid.points[idx]
        # The loop holds only u and the next iterate w: V*u goes into w, the step
        # maps it in place, u - w lands in u (abs reads an all-zero one as +0.0).
        Vv, w = V.values[scan.start :], np.empty_like(u)
        for iterations in range(1, cfg.max_iter + 1):
            scan.step(np.multiply(Vv, u, out=w), idx, w)
            u -= w
            residual = abs(float(max(np.maximum.reduce(u), -np.minimum.reduce(u))))
            u, w = w, u
            if residual <= cfg.tol:
                converged = True
                break
        lam = 1.0 / scan.step(np.multiply(Vv, u, out=w), idx, w)
        if scan.start:  # pad u to the whole grid; the mirror fills the pad
            u = scan.mirror(np.pad(u, (scan.start, 0)))
    return WaxmanResult(
        SampledFunction(grid, u), lam, cfg.epsilon, iterations, residual, converged
    )


def _epsilon_array(
    epsilons: Iterable[float], name: str = "epsilons", order: str = "increasing"
) -> np.ndarray:
    """The energies as an array: 1-D, nonempty, finite, positive, monotone."""
    eps = np.asarray(list(epsilons), dtype=float)
    sign = -1.0 if order == "decreasing" else 1.0
    ok = eps.ndim == 1 and eps.size > 0 and np.all(np.isfinite(eps) & (eps > 0))
    if not ok or np.any(sign * np.diff(eps) <= 0):  # ok first: inf - inf warns
        raise ValueError(f"{name} must be nonempty, finite, positive, strictly {order}")
    return eps


@dataclass
class LambdaEpsilonCurve:
    """Sampled coupling-versus-energy relation, strictly increasing in epsilon.

    Each kernel entry falls as epsilon grows, so for V >= 0 so does the Perron
    root 1/lambda of S K S (Birman 1961, Schwinger 1961): lambda strictly
    increases with epsilon, and the curve refuses lambdas that do not.
    """

    epsilons: np.ndarray
    lambdas: np.ndarray
    sector: str = "full"

    def __post_init__(self):
        eps = _epsilon_array(self.epsilons)
        lam = np.asarray(self.lambdas, dtype=float)
        ok = lam.shape == eps.shape and np.all(np.isfinite(lam) & (lam > 0))
        if not ok or np.any(np.diff(lam) <= 0):  # ok first: inf - inf warns
            raise ValueError(
                "curve lambdas: one per epsilon, positive, finite, strictly increasing"
            )
        _check_sector(self.sector)
        self.epsilons = eps
        self.lambdas = lam


@dataclass
class SweepPoint:
    """One sweep entry; ``result`` is None when the solve raised."""

    epsilon: float
    result: WaxmanResult | None
    error: str | None = None

    @property
    def converged(self) -> bool:
        """True when the solve returned and its iterates stopped moving."""
        return self.result is not None and self.result.converged


def sweep_results(
    epsilons: Sequence[float],
    V: SampledFunction,
    sector: str = "full",
    **config,
) -> list[SweepPoint]:
    """Run one fixed-point solve per epsilon, keeping failures as records."""
    eps = _epsilon_array(epsilons)
    points: list[SweepPoint] = []
    for e in eps:
        cfg = WaxmanConfig(epsilon=float(e), sector=sector, **config)
        try:
            points.append(SweepPoint(float(e), waxman_fixed_point(cfg, V)))
        except SolverError as exc:
            points.append(SweepPoint(float(e), None, str(exc)))
    return points


def curve_from_results(
    points: Iterable[SweepPoint], sector: str = "full"
) -> LambdaEpsilonCurve:
    """Assemble the curve from converged sweep points; failures become gaps.
    Points that make no curve (lambdas out of order) raise ``SolverError``."""
    _check_sector(sector)  # a bad sector is the caller's error, not the sweep's
    kept = [(p.epsilon, p.result.lam) for p in points if p.converged]
    if not kept:
        raise SolverError("no epsilon in the sweep produced a converged bound state")
    eps, lams = zip(*kept)
    try:
        return LambdaEpsilonCurve(np.array(eps), np.array(lams), sector)
    except ValueError as exc:
        raise SolverError(f"converged sweep points make no curve: {exc}") from exc


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson slopes at the samples, as scipy's PCHIP takes them on
    increasing data: inside, the weighted harmonic mean of the neighbouring
    secants; at each end, Moler's one-sided three-point rule, or 0 if not > 0."""
    h, m = np.diff(x), np.diff(y) / np.diff(x)
    if m.size == 1:
        return np.full(2, m[0])
    d = np.zeros_like(y)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    for i, j in ((0, 1), (-1, -2)):
        e = ((2 * h[i] + h[j]) * m[i] - h[i] * m[j]) / (h[i] + h[j])
        d[i] = e if e > 0 else 0.0
    return d


def invert_curve(curve: LambdaEpsilonCurve, lambda_target: float) -> float:
    """Binding energy at which the interpolated curve reaches ``lambda_target``.

    The curve's lambdas strictly increase, so one lookup finds the interval
    holding the target; inside it, the Illinois method solves a monotone
    piecewise-cubic interpolant (no overshoot between samples).
    """
    check_positive("lambda_target", lambda_target)
    eps, lam = curve.epsilons, curve.lambdas
    if not lam[0] <= lambda_target <= lam[-1]:
        raise NoBoundStateError(
            f"no bound state at lambda={lambda_target:g} in the {curve.sector} "
            f"sector (curve spans lambda in [{lam[0]:g}, {lam[-1]:g}])"
        )
    j = int(np.searchsorted(lam, lambda_target))  # lam[j - 1] < target <= lam[j]
    if lam[j] == lambda_target:
        return float(eps[j])
    knots = np.column_stack([eps, lam, _pchip_slopes(eps, lam)])
    (x0, y0, d0), (x1, y1, d1) = knots[j - 1 : j + 1].tolist()
    h, m = x1 - x0, (y1 - y0) / (x1 - x0)
    t = (d0 + d1 - 2 * m) / h
    c1, c0 = (m - d0) / h - t, t / h

    def cubic(e):  # summed in scipy's PPoly order: equal to it bit for bit
        s = e - x0
        return y0 + d0 * s + c1 * (s * s) + c0 * (s * s * s) - lambda_target

    return float(find_root(cubic, x0, x1, 1e-13))


def threshold_lambda(
    V: SampledFunction,
    sector: str,
    epsilon_tail: Sequence[float],
    **config,
) -> float:
    """Smallest coupling at which the sector first binds.

    Evaluates lambda(epsilon) along a tail of energies decreasing toward
    zero and extrapolates with the square-root law lambda = lambda* +
    c*sqrt(epsilon) that governs the odd-sector approach to threshold.
    ``SolverError`` names the first tail point that did not converge; it is
    raised, too, when the couplings do not fall toward the limit.
    """
    if sector != "odd":
        raise ValueError(
            "threshold extrapolation applies to the odd sector; a 1D attractive "
            "well binds an even state at any positive coupling"
        )
    tail = _epsilon_array(epsilon_tail, "epsilon_tail", "decreasing")
    if tail.size < 3:
        raise ValueError("epsilon_tail needs at least 3 points for the fit")

    points = sweep_results(tail[::-1], V, sector, **config)
    failed = next((p for p in points[::-1] if not p.converged), None)
    if failed is not None:
        raise SolverError(
            f"threshold tail point epsilon={failed.epsilon:g}: "
            f"{failed.error or 'did not converge'}"
        )
    lams = curve_from_results(points, sector).lambdas[::-1]  # in tail order
    k = min(_FIT_POINTS, tail.size)
    slope, intercept = np.polyfit(np.sqrt(tail[-k:]), lams[-k:], 1)
    return float(intercept)


def bound_state_residual(
    u: SampledFunction, V: SampledFunction, lam: float, epsilon: float
) -> float:
    """Sup-norm of (H + epsilon) u on interior nodes, H the grid Hamiltonian.

    H is the Dirichlet operator whose Ritz pairs ``lanczos`` scores, so both
    routes are judged by one stencil.  Interior nodes only: the iterate
    carries genuine (small but nonzero) values at the domain edge that the
    zero-extension closure of the end rows would misread as error.
    """
    r = hamiltonian_apply(Hamiltonian(V, lam), u).values[1:-1]
    r += epsilon * u.values[1:-1]
    return float(np.max(np.abs(r)))


SWEEP_CSV_HEADER = "epsilon,lambda,iterations,residual,converged"


def write_sweep_csv(points: Iterable[SweepPoint], stream: IO[str]) -> None:
    """Write one CSV row per sweep point, 17 significant digits per float."""
    stream.write(SWEEP_CSV_HEADER + "\n")
    for p in points:
        if p.result is None:
            stream.write(f"{p.epsilon:.17g},nan,0,nan,false\n")
            continue
        r = p.result
        stream.write(
            f"{r.epsilon:.17g},{r.lam:.17g},{r.iterations},"
            f"{r.residual:.17g},{'true' if r.converged else 'false'}\n"
        )

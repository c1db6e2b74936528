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
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import NoBoundStateError, SolverError
from .grid import Grid, SampledFunction, check_positive, check_same_grid, find_root
from .lanczos import Hamiltonian, hamiltonian_apply

SECTORS = ("full", "odd")

# Below this magnitude the normalization integral is treated as zero.
_DENOMINATOR_FLOOR = 1e-14
_GRID_MISMATCH = "potential and state must share a grid"
# Tail points (the ones nearest zero) in the threshold's square-root fit.
_FIT_POINTS = 4


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
    The weights exp(+-sqrt(eps) x) must fit in a float over the whole box;
    where they do not, the scan raises ``SolverError`` before computing any.
    It holds the weights and the two running integrals, allocated once; an
    apply needs no other scratch, and its output may overwrite its input.

    The odd sector, and the full sector on exactly even input (``even``),
    scan only the nodes x >= 0; ``mirror`` extends them by ``parity`` (-1, +1).
    """

    def __init__(self, grid: Grid, epsilon: float, sector: str, even: bool = False):
        self.grid = grid
        self.epsilon = epsilon
        self.sector = sector
        self.s = math.sqrt(epsilon)
        if self.s * grid.half_width > math.log(sys.float_info.max):
            raise SolverError(
                f"kernel weights exp(sqrt(eps) * half_width) overflow at "
                f"epsilon={epsilon:g}, half_width={grid.half_width:g}"
            )
        self.parity = -1.0 if sector == "odd" else 1.0 if even else 0.0
        self.start = grid.mid_index if self.parity else 0
        x = grid.points[self.start :]
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
        np.multiply(self.grow, f, out=right)
        np.add(right[1:], right[:-1], out=left[1:])
        left[1:] *= self._half_h
        # Integral of decay*f from the right edge, in ``out``: f is read no more.
        np.multiply(self.decay, f, out=right)
        np.add(right[1:], right[:-1], out=out[:-1])
        out[-1] = 0.0
        out[:-1] *= self._half_h
        np.add.accumulate(out[-2::-1], out=out[-2::-1])
        # Integral of grow*f from the left edge.  On even input its part over
        # x < 0 is the right integral from 0, summed in the same order; the odd
        # sector integrates the image kernel, for odd input the plain kernel.
        if self.parity > 0:
            left[0] = out[0]
            np.add.accumulate(left, out=left)
        else:
            left[0] = 0.0
            np.add.accumulate(left[1:], out=left[1:])
            if self.parity:
                left -= out[0]
        left *= self.decay
        out *= self.grow
        out += left
        out /= self._two_s
        return out

    def step(self, f: np.ndarray, idx: int, out: np.ndarray) -> float:
        """Kernel image of ``f`` in ``out`` (may be f), over its value at grid node idx.

        Returns the divisor.  A divisor below 1e-14 of the image's scale
        (taken as at least 1) means the map vanishes at the reference node:
        no admissible coupling exists at this energy, or u has no component
        along the sector's dominant mode.  Only ``out`` is written.
        """
        self.apply(f, out=out)
        k = idx - self.start
        denom = out[k] if k >= 0 else self.parity * out[-k]
        scale = max(np.maximum.reduce(out), -np.minimum.reduce(out), 1.0)
        if abs(denom) < _DENOMINATOR_FLOOR * scale:
            raise NoBoundStateError(
                f"no admissible coupling at epsilon={self.epsilon:g} "
                f"({self.sector} sector): kernel integral {denom:.3e} at "
                f"x_ref={self.grid.points[idx]:g}"
            )
        out /= denom
        return denom

    def mirror(self, out: np.ndarray) -> np.ndarray:
        """Fill the nodes x < 0 of whole-grid ``out`` from x >= 0 by the parity."""
        if self.start:
            np.multiply(out[: self.start : -1], self.parity, out=out[: self.start])
        return out


@contextmanager
def _scan(grid: Grid, epsilon: float, sector: str, even=False) -> Iterator[_KernelScan]:
    """A kernel scan whose float overflow raises ``SolverError``, not a warning."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield _KernelScan(grid, epsilon, sector, even)
    except FloatingPointError as exc:
        raise SolverError(
            f"kernel scan overflow at epsilon={epsilon:g} ({sector} sector): {exc}"
        ) from exc


def _ref_index(grid: Grid, x_ref: float, sector: str) -> int:
    """Grid index of ``x_ref``; the odd sector's states vanish at the origin."""
    idx = grid.node_index(x_ref)
    if sector == "odd" and idx == grid.mid_index:
        raise ValueError("odd sector requires x_ref != 0 (the state vanishes there)")
    return idx


def apply_kernel(
    kernel: GreensKernel, V: SampledFunction, u: SampledFunction
) -> SampledFunction:
    """Quadrature of the kernel integral of V*u at every grid node."""
    grid = check_same_grid(V.grid, u.grid, _GRID_MISMATCH)
    with _scan(grid, kernel.epsilon, kernel.sector) as scan:
        w = np.multiply(V.values, u.values)
        scan.apply(w[scan.start :], out=w[scan.start :])
        return SampledFunction(grid, scan.mirror(w))


def waxman_step(
    kernel: GreensKernel, V: SampledFunction, u_n: SampledFunction, x_ref: float
) -> SampledFunction:
    """One normalized iteration of the integral map; output is 1 at x_ref."""
    grid = check_same_grid(V.grid, u_n.grid, _GRID_MISMATCH)
    idx = _ref_index(grid, x_ref, kernel.sector)
    with _scan(grid, kernel.epsilon, kernel.sector) as scan:
        w = np.multiply(V.values, u_n.values)
        scan.step(w[scan.start :], idx, w[scan.start :])
        return SampledFunction(grid, scan.mirror(w))


@dataclass
class WaxmanConfig:
    """Parameters of one fixed-point solve at fixed binding energy."""

    epsilon: float
    x_ref: float | None = None
    tol: float = 1e-10
    max_iter: int = 500
    sector: str = "full"

    def __post_init__(self):
        GreensKernel(self.epsilon, self.sector)  # validates epsilon and sector
        check_positive("tol", self.tol)
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class WaxmanResult:
    """Converged state candidate with its coupling and iteration diagnostics."""

    u: SampledFunction
    lam: float
    epsilon: float
    iterations: int
    residual: float
    converged: bool


def default_x_ref(grid: Grid, sector: str) -> float:
    """Reference node: the origin, or (odd sector) the node nearest x = 1."""
    if sector == "full":
        return 0.0
    target = min(1.0, 0.5 * grid.half_width)
    idx = grid.mid_index + max(1, int(round(target / grid.spacing)))
    idx = min(idx, grid.n_points - 2)
    return float(grid.points[idx])


def waxman_fixed_point(cfg: WaxmanConfig, V: SampledFunction) -> WaxmanResult:
    """Iterate the normalized map until successive iterates stop moving.

    Non-convergence within ``max_iter`` is reported through the ``converged``
    flag, not raised; the final iterate and coupling are still returned.
    """
    grid = V.grid
    x_ref = cfg.x_ref if cfg.x_ref is not None else default_x_ref(grid, cfg.sector)
    idx = _ref_index(grid, x_ref, cfg.sector)
    # On an exactly even well every full-sector iterate is exactly even, so
    # both sectors iterate on the nodes x >= 0 and unfold u once at the end.
    even = cfg.sector == "full" and np.array_equal(V.values, V.values[::-1])
    residual, converged, iterations = math.inf, False, 0
    with _scan(grid, cfg.epsilon, cfg.sector, even) as scan:
        # Ones (full sector) or x (odd sector): nonzero at every admissible x_ref.
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
    """Sampled coupling-versus-energy relation, strictly increasing in epsilon."""

    epsilons: np.ndarray
    lambdas: np.ndarray
    sector: str = "full"

    def __post_init__(self):
        eps = _epsilon_array(self.epsilons)
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.shape != eps.shape or not np.all(np.isfinite(lam) & (lam > 0)):
            raise ValueError("curve needs one positive, finite lambda per epsilon")
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
    """Assemble the curve from converged sweep points; failures become gaps."""
    kept = [(p.epsilon, p.result.lam) for p in points if p.converged]
    if not kept:
        raise SolverError("no epsilon in the sweep produced a converged bound state")
    eps, lams = zip(*kept)
    return LambdaEpsilonCurve(np.array(eps), np.array(lams), sector)


def sweep_epsilon(
    epsilons: Sequence[float],
    V: SampledFunction,
    sector: str = "full",
    **config,
) -> LambdaEpsilonCurve:
    """Sweep the binding energy and collect the coupling curve."""
    return curve_from_results(sweep_results(epsilons, V, sector, **config), sector)


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson monotone slopes at the samples, as scipy's PCHIP takes them.

    Inside, the weighted harmonic mean of the neighbouring secants (0 unless
    they share a sign); at each end, Moler's one-sided three-point rule.
    """
    h, m = np.diff(x), np.diff(y) / np.diff(x)
    if m.size == 1:
        return np.full(2, m[0])
    d = np.zeros_like(y)
    ok = np.sign(m[:-1]) * np.sign(m[1:]) > 0
    w1, w2 = (2 * h[1:] + h[:-1])[ok], (h[1:] + 2 * h[:-1])[ok]
    d[1:-1][ok] = 1.0 / ((w1 / m[:-1][ok] + w2 / m[1:][ok]) / (w1 + w2))
    for i, j in ((0, 1), (-1, -2)):
        e = ((2 * h[i] + h[j]) * m[i] - h[i] * m[j]) / (h[i] + h[j])
        flip = np.sign(e) != np.sign(m[i])
        clamp = np.sign(m[i]) != np.sign(m[j]) and abs(e) > 3.0 * abs(m[i])
        d[i] = 0.0 if flip else 3.0 * m[i] if clamp else e
    return d


def invert_curve(curve: LambdaEpsilonCurve, lambda_target: float) -> float:
    """Binding energy at which the interpolated curve reaches ``lambda_target``.

    Uses a monotone piecewise-cubic interpolant (no overshoot between
    samples) and the Illinois method inside the bracketing interval.
    """
    check_positive("lambda_target", lambda_target)
    eps = curve.epsilons
    lam = curve.lambdas
    exact = np.nonzero(lam == lambda_target)[0]
    if exact.size:
        return float(eps[exact[0]])
    if lambda_target < lam.min() or lambda_target > lam.max():
        raise NoBoundStateError(
            f"no bound state at lambda={lambda_target:g} in the {curve.sector} "
            f"sector (curve spans lambda in [{lam.min():g}, {lam.max():g}])"
        )
    knots = np.column_stack([eps, lam, _pchip_slopes(eps, lam)])
    resid = lam - lambda_target
    for j in range(len(eps) - 1):
        if resid[j] * resid[j + 1] < 0:
            (x0, y0, d0), (x1, y1, d1) = knots[j : j + 2].tolist()
            h, m = x1 - x0, (y1 - y0) / (x1 - x0)
            t = (d0 + d1 - 2 * m) / h
            c1, c0 = (m - d0) / h - t, t / h

            def cubic(e):  # summed in scipy's PPoly order: equal to it bit for bit
                s = e - x0
                return y0 + d0 * s + c1 * (s * s) + c0 * (s * s * s) - lambda_target

            return float(find_root(cubic, x0, x1, 1e-13))
    raise NoBoundStateError(
        f"no bracketing interval for lambda={lambda_target:g} "
        f"in the {curve.sector} sector"
    )


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
    ``SolverError`` names the first tail point that did not converge.
    """
    if sector != "odd":
        raise ValueError(
            "threshold extrapolation applies to the odd sector; a 1D attractive "
            "well binds an even state at any positive coupling"
        )
    tail = _epsilon_array(epsilon_tail, "epsilon_tail", "decreasing")
    if tail.size < 3:
        raise ValueError("epsilon_tail needs at least 3 points for the fit")

    points = sweep_results(tail[::-1], V, sector, **config)[::-1]
    failed = next((p for p in points if not p.converged), None)
    if failed is not None:
        raise SolverError(
            f"threshold tail point epsilon={failed.epsilon:g}: "
            f"{failed.error or 'did not converge'}"
        )
    lams = np.array([p.result.lam for p in points])
    if np.any(np.diff(lams) >= 0):
        raise SolverError(
            "threshold tail not settling: lambda values are not strictly "
            "decreasing toward the limit"
        )
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

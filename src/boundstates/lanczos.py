"""Grid Hamiltonian, Lanczos iteration, and the spurious-pair gauge.

Discretizing the continuum on a finite grid replaces the scattering
spectrum by a dense band of box states at positive energy.  Krylov
iteration converges on that band as eagerly as on the bound states, so
approximate eigenpairs must be screened: for a unit vector psi and Ritz
value e, delta = |e^2 - <psi|H^2|psi>| equals ||(H - e) psi||^2, which
tends to zero only for pairs converging to true eigenvectors.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .grid import Grid, SampledFunction, check_integer, check_positive, check_same_grid

# Classification thresholds: delta below TAU_ZERO and falling reads as a
# genuine bound pair, delta above TAU_SPUR and not falling as spurious;
# MATCH_GATE is the largest eigenvalue step that still threads a track.
TAU_ZERO = 0.05
TAU_SPUR = 0.5
MATCH_GATE = 0.1

# Ritz vectors scored per pass of the stencil over a block of rows.
_BLOCK_ROWS = 16
# A new Lanczos direction shorter than this ends the run: the Krylov space
# is invariant.
_BETA_TOL = 1e-12
# A Ritz history with at least this many grid values across its run (n * m)
# forms each block's Ritz vectors with one gemm; below it, with one gemv per
# vector, whose bits the pinned traces hold.
_GEMM_SIZE = 150_000


@dataclass(frozen=True)
class Hamiltonian:
    """Second-difference Dirichlet operator -D^2 - lam*V on a shared grid."""

    V: SampledFunction
    lam: float
    lam_v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_positive("coupling lam", self.lam)
        # An overflowing product reads as inf and fails the guard below.
        with np.errstate(over="ignore"):
            object.__setattr__(self, "lam_v", self.lam * self.V.values)
        # Past this bound on ||H||, <psi|H^2 psi> of a unit state can overflow.
        h, n = self.grid.spacing, self.grid.n_points
        norm_bound = 4.0 / (h * h) + float(np.max(np.abs(self.lam_v)))
        if not norm_bound < math.sqrt(sys.float_info.max * h / n):
            raise ValueError(
                f"coupling lam={self.lam!r} is too large: the operator norm "
                f"bound {norm_bound:.3g} would overflow the delta gauge"
            )

    @property
    def grid(self) -> Grid:
        return self.V.grid


def _dot(h: float, f: np.ndarray, g: np.ndarray) -> float:
    # Uniform-weight discrete product.  The Dirichlet operator below is
    # exactly self-adjoint under it; trapezoid end-weights would break that
    # at the boundary rows.
    return float(h * np.dot(f, g))


def _apply_values(
    H: Hamiltonian, v: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    """Write H v into ``out`` along the last axis: one state or a block of rows.

    ``scratch`` has v's shape and may be ``v`` itself, which the stencil has
    read in full before ``scratch`` is written.  Every element sees the same
    operations in the same order whatever the block, so rows keep their
    bits.  ``out`` must be C-contiguous and must not overlap ``v``.
    """
    h2 = H.grid.spacing * H.grid.spacing
    # The interior formula runs over the flattened block: one pass instead of
    # one per row.  It also fills each row's end points from the rows beside
    # it, and the Dirichlet rows below overwrite those.
    flat_v, inner = v.reshape(-1), out.reshape(-1)[1:-1]
    np.multiply(flat_v[1:-1], 2.0, out=inner)
    inner -= flat_v[:-2]
    inner -= flat_v[2:]
    inner /= h2
    out[..., 0] = (2.0 * v[..., 0] - v[..., 1]) / h2
    out[..., -1] = (2.0 * v[..., -1] - v[..., -2]) / h2
    np.multiply(H.lam_v, v, out=scratch)
    out -= scratch


def hamiltonian_apply(H: Hamiltonian, u: SampledFunction) -> SampledFunction:
    """Apply the operator: central second difference (zero outside) - lam*V*u."""
    grid = check_same_grid(H.grid, u.grid, "state must live on the Hamiltonian's grid")
    out = np.empty_like(u.values)
    _apply_values(H, u.values, out, np.empty_like(out))
    return SampledFunction(grid, out)


def start_vector(grid: Grid) -> SampledFunction:
    """Normalized Gaussian start vector (2/pi)^(1/4) exp(-x^2)."""
    vals = (2.0 / math.pi) ** 0.25 * np.exp(-grid.points**2)
    vals /= math.sqrt(_dot(grid.spacing, vals, vals))
    return SampledFunction(grid, vals)


@dataclass
class LanczosRun:
    """Tridiagonal coefficients and the orthonormal basis that produced them.

    ``Q`` holds the basis on ``grid`` as C-contiguous rows, one per alpha.
    """

    alphas: list[float]
    betas: list[float]
    Q: np.ndarray
    grid: Grid

    @property
    def m(self) -> int:
        return len(self.alphas)

    @property
    def basis(self) -> list[SampledFunction]:
        """The rows of ``Q`` as sampled functions, each a view of its row."""
        return [SampledFunction(self.grid, q) for q in self.Q]


def _krylov(apply, Q: np.ndarray, h: float) -> tuple[list[float], list[float]]:
    """Three-term recursion with full reorthogonalization at every step.

    Fills the rows of ``Q`` from its unit row 0, calling ``apply(v, out)``
    once per step for the symmetric operator's image of ``v``; inner products
    are ``h`` times the plain dot.  Stops early when the new direction's norm
    falls below ``_BETA_TOL`` (invariant subspace reached), so only the first
    len(alphas) rows are filled, and len(betas) == len(alphas) - 1.
    """
    alphas: list[float] = []
    betas: list[float] = []
    w = np.empty_like(Q[0])
    for k in range(len(Q)):
        apply(Q[k], w)
        alphas.append(_dot(h, Q[k], w))
        if k == len(Q) - 1:
            break
        r = w - alphas[-1] * Q[k]
        if k > 0:
            r -= betas[-1] * Q[k - 1]
        # Two Gram-Schmidt passes keep the orthogonality defect at roundoff.
        for _ in range(2):
            r -= (h * (Q[: k + 1] @ r)) @ Q[: k + 1]
        beta = math.sqrt(_dot(h, r, r))
        if beta < _BETA_TOL:
            break
        betas.append(beta)
        Q[k + 1] = r / beta
    return alphas, betas


def lanczos_run(H: Hamiltonian, phi1: SampledFunction, m: int) -> LanczosRun:
    """Lanczos on ``H`` from ``phi1``: at most ``m`` steps of ``_krylov``."""
    check_integer("iteration count m", m, 1)
    grid = H.grid
    check_same_grid(grid, phi1.grid, "start vector must live on the Hamiltonian's grid")
    if abs(math.sqrt(_dot(grid.spacing, phi1.values, phi1.values)) - 1.0) > 1e-8:
        raise ValueError("start vector must have unit norm")

    Q = np.empty((min(m, grid.n_points), grid.n_points))
    Q[0] = phi1.values
    scratch = np.empty(grid.n_points)
    alphas, betas = _krylov(
        lambda v, out: _apply_values(H, v, out, scratch), Q, grid.spacing
    )
    return LanczosRun(alphas=alphas, betas=betas, Q=Q[: len(alphas)], grid=grid)


def tridiagonal_eigen(
    alphas: Sequence[float], betas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending values and unit eigenvector columns, bit-identical to scipy's."""
    d = np.asarray(alphas, dtype=float)
    e = np.asarray(betas, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("diagonal must be a nonempty 1D sequence")
    if e.shape != (d.size - 1,):
        raise ValueError("off-diagonal length must be len(alphas) - 1")
    # LAPACK syevd reduces a tridiagonal matrix by the identity, then runs the
    # same stedc as the stevd behind eigh_tridiagonal.
    return np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


@dataclass
class RitzPair:
    """Ritz value with its spuriousness score.

    The Ritz vector is formed only to score it with the delta gauge and is
    not kept: the classification and the trace read the value and delta.
    """

    value: float
    delta: float


def delta_check(H: Hamiltonian, state: SampledFunction, value: float) -> float:
    """Residual-norm-squared gauge |e^2 - <psi|H^2|psi>| for a unit state."""
    hhpsi = hamiltonian_apply(H, hamiltonian_apply(H, state))
    return abs(value * value - _dot(H.grid.spacing, state.values, hhpsi.values))


def ritz_history(run: LanczosRun, H: Hamiltonian) -> list[list[RitzPair]]:
    """Scored Ritz values after each iteration 1..m of an existing run.

    Truncating the recursion reproduces exactly what a shorter run would
    have computed, so the history can be sliced out of one full run.  It
    holds values and deltas only, so its size does not grow with the grid;
    the Ritz vectors pass through one block of ``_BLOCK_ROWS`` rows.  A
    history of at least ``_GEMM_SIZE`` grid values forms a block's vectors
    with one gemm, a smaller one with one gemv per vector, as a lone vector
    is formed.  The two differ in the last bits of delta, so a row equals a
    shorter run's row bit for bit only when both runs lie on the same side
    of the gate.
    """
    check_same_grid(H.grid, run.grid, "run must live on the Hamiltonian's grid")
    # The run's basis rows and one block each of psi, H psi and H^2 psi serve
    # every prefix scored.  Block rows are 1 x n, so the norms and the delta
    # products are a stack of one ddot per Ritz vector, as for a lone vector.
    h, n, m, Q = H.grid.spacing, H.grid.n_points, run.m, run.Q
    gemm = n * m >= _GEMM_SIZE
    rows = min(_BLOCK_ROWS, m)
    psi, hpsi, hhpsi = np.empty((3, rows, 1, n))
    history = []
    for k in range(1, m + 1):
        values, vectors = tridiagonal_eigen(run.alphas[:k], run.betas[: k - 1])
        # C-contiguous rows: a strided view of the columns moves the last
        # bits of delta.
        Z = np.ascontiguousarray(vectors.T)
        pairs = []
        for start in range(0, k, rows):
            v, z = values[start : start + rows], Z[start : start + rows]
            p, hp, hhp = psi[: v.size], hpsi[: v.size], hhpsi[: v.size]
            if gemm:
                np.matmul(z, Q[:k], out=p[:, 0])
            else:
                np.matmul(z[:, None, :], Q[:k], out=p)
            p /= np.sqrt(h * (p @ p.transpose(0, 2, 1)))
            # H psi is the second apply's input and its scratch: it is not
            # read again.
            _apply_values(H, p, hp, hhp)
            _apply_values(H, hp, hhp, hp)
            deltas = np.abs(v * v - h * (p @ hhp.transpose(0, 2, 1)).ravel())
            pairs += map(RitzPair, v.tolist(), deltas.tolist())
        history.append(pairs)
    return history


def _label(deltas: Sequence[float]) -> str:
    if len(deltas) >= 3:
        a, b, c = deltas[-3:]
        slack = 1e-12  # tolerate roundoff jitter in fully converged deltas
        if c < TAU_ZERO and a + slack >= b and b + slack >= c:
            return "genuine"
        if min(a, b, c) > TAU_SPUR:
            return "spurious"
    return "undecided"


def _label_history(history: Sequence[Sequence[RitzPair]]) -> list[list[str]]:
    """Labels of every iteration's pairs, by the rules of ``classify_pairs``.

    Threading is causal: row ``li`` is what ``classify_pairs(history[:li + 1])``
    returns, and the first two rows are all undecided.  Only the previous
    row's tracks can continue; each is keyed by the (row, index) that opened
    it, so equal distances go to the older track.
    """
    tracks: dict[tuple[int, int], tuple[float, list[float]]] = {}
    labels = []
    for li, pairs in enumerate(history):
        # Only pairs within twice the gate of a track value can pass the
        # exact test below, so a bisection over the sorted values finds them.
        values = [p.value for p in pairs]
        order = sorted(range(len(values)), key=values.__getitem__)
        ranked = [values[pi] for pi in order]
        reach = 2 * MATCH_GATE
        candidates = sorted(
            (dist, pi, tag)
            for tag, (value, _) in tracks.items()
            for pi in order[
                bisect_left(ranked, value - reach) : bisect_right(ranked, value + reach)
            ]
            if (dist := abs(values[pi] - value)) <= MATCH_GATE
        )
        continued: dict[int, tuple[tuple[int, int], list[float]]] = {}
        for _, pi, tag in candidates:
            if pi not in continued and tag in tracks:
                continued[pi] = (tag, tracks.pop(tag)[1])
        tracks = {}
        for pi, p in enumerate(pairs):
            tag, deltas = continued.get(pi, ((li, pi), []))
            deltas.append(p.delta)
            tracks[tag] = (p.value, deltas)
        labels.append([_label(deltas) for _, deltas in tracks.values()])
    return labels


def classify_pairs(history: Sequence[Sequence[RitzPair]]) -> list[tuple[RitzPair, str]]:
    """Label the final iteration's pairs as genuine, spurious, or undecided.

    Pairs are threaded across iterations greedily by eigenvalue proximity
    (within ``MATCH_GATE``); unmatched pairs open new tracks.  A track whose
    delta sequence is falling and ends below ``TAU_ZERO`` is genuine; one
    bounded away from zero (above ``TAU_SPUR`` throughout the last three
    iterations) is spurious; anything else stays undecided.  Demanding that
    the sequence stay large, rather than grow, matters here: in a growing
    Krylov space the unconverged band pairs' deltas creep downward even
    though they never approach zero.  A history shorter than three
    iterations leaves every pair undecided.
    """
    if not history:
        raise ValueError("classification needs at least one iteration of history")
    return list(zip(history[-1], _label_history(history)[-1]))


TRACE_CSV_HEADER = "iteration,ritz_index,value,delta,label"


def write_trace_csv(history: Sequence[Sequence[RitzPair]], stream: IO[str]) -> None:
    """Per-iteration Ritz trace; labels use the history available so far."""
    stream.write(TRACE_CSV_HEADER + "\n")
    for li, (pairs, labels) in enumerate(zip(history, _label_history(history)), 1):
        for ri, (pair, label) in enumerate(zip(pairs, labels)):
            stream.write(
                f"{li},{ri},{pair.value:.17g},{pair.delta:.17g},{label}\n"
            )

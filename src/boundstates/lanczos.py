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
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .grid import Grid, SampledFunction, check_same_grid

# Classification thresholds: delta below TAU_ZERO and falling reads as a
# genuine bound pair, delta above TAU_SPUR and not falling as spurious;
# MATCH_GATE is the largest eigenvalue step that still threads a track.
TAU_ZERO = 0.05
TAU_SPUR = 0.5
MATCH_GATE = 0.1


@dataclass(frozen=True)
class Hamiltonian:
    """Second-difference Dirichlet operator -D^2 - lam*V on a shared grid."""

    V: SampledFunction
    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"coupling lam must be positive, got {self.lam!r}")

    @property
    def grid(self) -> Grid:
        return self.V.grid


def _dot(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    # Uniform-weight discrete product.  The Dirichlet operator below is
    # exactly self-adjoint under it; trapezoid end-weights would break that
    # at the boundary rows.
    return float(grid.spacing * np.dot(f, g))


def _norm(grid: Grid, f: np.ndarray) -> float:
    return math.sqrt(_dot(grid, f, f))


def _apply_values(H: Hamiltonian, v: np.ndarray) -> np.ndarray:
    grid = H.grid
    h2 = grid.spacing * grid.spacing
    out = np.empty_like(v)
    out[1:-1] = (2.0 * v[1:-1] - v[:-2] - v[2:]) / h2
    out[0] = (2.0 * v[0] - v[1]) / h2
    out[-1] = (2.0 * v[-1] - v[-2]) / h2
    out -= H.lam * H.V.values * v
    return out


def hamiltonian_apply(H: Hamiltonian, u: SampledFunction) -> SampledFunction:
    """Apply the operator: central second difference (zero outside) - lam*V*u."""
    grid = check_same_grid(H.grid, u.grid, "state must live on the Hamiltonian's grid")
    return SampledFunction(grid, _apply_values(H, u.values))


def start_vector(grid: Grid) -> SampledFunction:
    """Normalized Gaussian start vector (2/pi)^(1/4) exp(-x^2)."""
    vals = (2.0 / math.pi) ** 0.25 * np.exp(-grid.points**2)
    vals /= _norm(grid, vals)
    return SampledFunction(grid, vals)


@dataclass
class LanczosRun:
    """Tridiagonal coefficients and the orthonormal basis that produced them."""

    alphas: list[float]
    betas: list[float]
    basis: list[SampledFunction]
    m: int


def lanczos_run(
    H: Hamiltonian, phi1: SampledFunction, m: int, beta_tol: float = 1e-12
) -> LanczosRun:
    """Three-term recursion with full reorthogonalization at every step.

    Stops early when the new direction's norm falls below ``beta_tol``
    (invariant subspace reached); the returned lists are truncated
    consistently, with len(betas) == len(alphas) - 1.
    """
    if m < 1:
        raise ValueError(f"iteration count m must be >= 1, got {m!r}")
    grid = H.grid
    check_same_grid(grid, phi1.grid, "start vector must live on the Hamiltonian's grid")
    if abs(_norm(grid, phi1.values) - 1.0) > 1e-8:
        raise ValueError("start vector must have unit norm")

    rows = min(m, grid.n_points)
    Q = np.empty((rows, grid.n_points))
    Q[0] = phi1.values
    alphas: list[float] = []
    betas: list[float] = []
    beta_prev = 0.0
    h = grid.spacing
    for k in range(rows):
        w = _apply_values(H, Q[k])
        alpha = _dot(grid, Q[k], w)
        alphas.append(alpha)
        if k == rows - 1:
            break
        r = w - alpha * Q[k]
        if k > 0:
            r -= beta_prev * Q[k - 1]
        # Two Gram-Schmidt passes keep the orthogonality defect at roundoff.
        for _ in range(2):
            r -= (h * (Q[: k + 1] @ r)) @ Q[: k + 1]
        beta = _norm(grid, r)
        if beta < beta_tol:
            break
        betas.append(beta)
        Q[k + 1] = r / beta
        beta_prev = beta

    m_eff = len(alphas)
    basis = [SampledFunction(grid, Q[i]) for i in range(m_eff)]
    return LanczosRun(alphas=alphas, betas=betas, basis=basis, m=m_eff)


def tridiagonal_eigen(
    alphas: Sequence[float], betas: Sequence[float]
) -> list[tuple[float, np.ndarray]]:
    """All eigenpairs, ascending, bit-identical to scipy's ``eigh_tridiagonal``."""
    d = np.asarray(alphas, dtype=float)
    e = np.asarray(betas, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("diagonal must be a nonempty 1D sequence")
    if e.shape != (d.size - 1,):
        raise ValueError("off-diagonal length must be len(alphas) - 1")
    # LAPACK syevd reduces a tridiagonal matrix by the identity, then runs the
    # same stedc as the stevd behind eigh_tridiagonal.
    vals, vecs = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    return [(float(vals[i]), vecs[:, i].copy()) for i in range(vals.size)]


@dataclass
class RitzPair:
    """Approximate eigenpair in grid space with its spuriousness score."""

    value: float
    vector: SampledFunction
    delta: float
    iteration: int


def _delta_value(H: Hamiltonian, psi: np.ndarray, value: float) -> float:
    hp = _apply_values(H, psi)
    hhp = _apply_values(H, hp)
    return abs(value * value - _dot(H.grid, psi, hhp))


def delta_check(pair: RitzPair, H: Hamiltonian) -> float:
    """Residual-norm-squared gauge |e^2 - <psi|H^2|psi>| for a unit pair."""
    return _delta_value(H, pair.vector.values, pair.value)


def _ritz_row(
    H: Hamiltonian, alphas: Sequence[float], betas: Sequence[float], Q: np.ndarray
) -> list[RitzPair]:
    grid = H.grid
    pairs = []
    for value, z in tridiagonal_eigen(alphas, betas):
        # One product per vector: a batched Z.T @ Q moves the last bits of delta.
        psi = z @ Q
        psi /= _norm(grid, psi)
        delta = _delta_value(H, psi, value)
        pairs.append(RitzPair(value, SampledFunction(grid, psi), delta, len(alphas)))
    return pairs


def ritz_pairs(run: LanczosRun, H: Hamiltonian) -> list[RitzPair]:
    """Assemble grid-space Ritz vectors and score each with the delta gauge."""
    Q = np.stack([b.values for b in run.basis])
    return _ritz_row(H, run.alphas, run.betas, Q)


def ritz_history(run: LanczosRun, H: Hamiltonian) -> list[list[RitzPair]]:
    """Ritz pairs after each iteration 1..m of an existing run.

    Truncating the recursion reproduces exactly what a shorter run would
    have computed, so the history can be sliced out of one full run.
    """
    Q = np.stack([b.values for b in run.basis])
    return [
        _ritz_row(H, run.alphas[:k], run.betas[: k - 1], Q[:k])
        for k in range(1, run.m + 1)
    ]


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
        candidates = sorted(
            (dist, pi, tag)
            for tag, (value, _) in tracks.items()
            for pi, p in enumerate(pairs)
            if (dist := abs(p.value - value)) <= MATCH_GATE
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
    though they never approach zero.
    """
    if len(history) < 3:
        raise ValueError("classification needs at least 3 iterations of history")
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

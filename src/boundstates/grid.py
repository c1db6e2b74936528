"""Uniform symmetric grids, sampled functions, root finding."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatchError


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [-half_width, +half_width] with an odd point count.

    The odd count guarantees a node exactly at x = 0, which serves both as
    the full sector's normalization point and as the axis for parity splitting.
    """

    half_width: float
    n_points: int
    spacing: float
    points: np.ndarray

    @property
    def mid_index(self) -> int:
        """Index of the node at x = 0."""
        return (self.n_points - 1) // 2


def check_same_grid(grid: Grid, other: Grid, message: str) -> Grid:
    """Return ``other`` if it is the same mesh as ``grid``; raise otherwise."""
    if grid is not other and (
        grid.n_points != other.n_points or grid.half_width != other.half_width
    ):
        raise GridMismatchError(message)
    return other


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is positive and finite."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_integer(name: str, value: int, minimum: int, odd: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer >= minimum, odd if asked.

    numpy integers pass; a ``bool`` or a float does not, whatever its value.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < minimum or (odd and value % 2 == 0):
        kind = "an odd integer" if odd else "an integer"
        raise ValueError(f"{name} must be {kind} >= {minimum}, got {value!r}")


def make_grid(half_width: float, n_points: int) -> Grid:
    """Build a symmetric uniform grid with ``n_points`` nodes on [-L, L].

    ``n_points`` must be an odd integer so that x = 0 is a node.
    """
    check_positive("half_width", half_width)
    check_integer("n_points", n_points, 3, odd=True)
    n_points = int(n_points)
    spacing = 2.0 * half_width / (n_points - 1)
    mid = (n_points - 1) // 2
    # (k - mid) * spacing keeps the mesh exactly antisymmetric in floating point.
    points = (np.arange(n_points) - mid) * spacing
    points.setflags(write=False)
    return Grid(
        half_width=float(half_width),
        n_points=n_points,
        spacing=spacing,
        points=points,
    )


@dataclass
class SampledFunction:
    """Real values sampled on a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"expected {self.grid.n_points} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled values must be finite")
        self.values = values


def find_root(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """Root of ``f`` between a and b by the Illinois method (Dowell & Jarratt 1971).

    Regula falsi that halves the stored value of the end it keeps, so no end
    sticks.  Returns an end where ``f`` is 0, else the last iterate once the
    bracket is ``xtol`` wide; ``ValueError`` unless f(a), f(b) differ in sign.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise ValueError(f"f({a!r}) and f({b!r}) must differ in sign")
    while abs(b - a) > xtol:  # b is the latest iterate, a the other end
        c = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < c < max(a, b):
            c = 0.5 * (a + b)  # rounding put the secant point on an end
            if c in (a, b):
                break
        fc = f(c)
        if fc == 0.0:
            return c
        a, fa = (a, 0.5 * fa) if (fc < 0.0) == (fb < 0.0) else (b, fb)
        b, fb = c, fc
    return b

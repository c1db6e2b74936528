"""Catalog of attractive well shapes V(x) >= 0 and their samplers.

The attraction is carried by an explicit minus sign and coupling strength
in the eigenvalue problem, so all shapes here are nonnegative and decay
(or vanish) away from the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid, SampledFunction, check_positive

KINDS = ("gaussian", "poschl_teller", "square_well", "table")


@dataclass(frozen=True)
class PotentialSpec:
    """One attractive well shape.

    kind      one of ``gaussian``, ``poschl_teller``, ``square_well``, ``table``
    a         half-width of the square well (square_well only)
    values    explicit samples (table only); must match the target grid length
    """

    kind: str
    a: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "square_well":
            if self.a is None:
                raise ValueError("square_well requires a half-width a")
            check_positive("square_well half-width a", self.a)
        elif self.a is not None:
            raise ValueError(f"{self.kind} takes no half-width parameter")
        if self.kind == "table":
            if self.values is None:
                raise ValueError("table requires explicit values")
            vals = np.asarray(self.values, dtype=float)
            if not np.all(np.isfinite(vals)) or np.any(vals < 0):
                raise ValueError("table values must be finite and nonnegative")
        elif self.values is not None:
            raise ValueError(f"{self.kind} takes no explicit values")

    @classmethod
    def gaussian(cls) -> "PotentialSpec":
        return cls("gaussian")

    @classmethod
    def poschl_teller(cls) -> "PotentialSpec":
        return cls("poschl_teller")

    @classmethod
    def square_well(cls, a: float) -> "PotentialSpec":
        return cls("square_well", a=float(a))

    @classmethod
    def table(cls, values) -> "PotentialSpec":
        return cls("table", values=tuple(float(v) for v in values))


def _shape(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    """V at the points ``x`` for every kind but ``table``, which has no formula."""
    # Far out in a wide box x * x or cosh(x) ** 2 overflows to inf, where V is 0.
    with np.errstate(over="ignore"):
        if spec.kind == "gaussian":
            return np.exp(-0.5 * x * x)
        if spec.kind == "poschl_teller":
            return 1.0 / np.cosh(x) ** 2
    # Square well, a closed interval: the tiny slack keeps a node that lands
    # exactly on the edge inside the well regardless of rounding in the mesh.
    return np.where(np.abs(x) <= spec.a + 1e-12 * max(1.0, spec.a), 1.0, 0.0)


def sample_potential(spec: PotentialSpec, grid: Grid) -> SampledFunction:
    """Pointwise samples of the potential on ``grid``."""
    if spec.kind != "table":
        return SampledFunction(grid, _shape(spec, grid.points))
    vals = np.asarray(spec.values, dtype=float)
    if vals.shape != (grid.n_points,):
        raise ValueError(
            f"table has {vals.shape[0]} values but grid has {grid.n_points} points"
        )
    return SampledFunction(grid, vals)


def potential_pieces(
    spec: PotentialSpec, half_width: float
) -> list[tuple[float, float, Callable[[np.ndarray], np.ndarray]]]:
    """Smooth pieces of V on [0, half_width] for piecewise integration.

    Splitting at jump locations lets a fixed-step integrator keep its full
    order; within each piece the returned vectorized evaluator is smooth on
    the closure.  Raises ``ValueError`` for a table, which has no values off
    its grid.
    """
    if spec.kind == "table":
        raise ValueError("table potentials have no off-grid evaluator")
    if spec.kind == "square_well" and spec.a < half_width:
        return [
            (0.0, spec.a, np.ones_like),
            (spec.a, half_width, np.zeros_like),
        ]
    return [(0.0, half_width, lambda x: _shape(spec, x))]

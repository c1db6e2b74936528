"""Potential shapes: sampling, parity, decay, and validation."""

import math

import numpy as np
import pytest

from boundstates import (
    PotentialSpec,
    make_grid,
    potential_pieces,
    sample_potential,
)


class TestShapes:
    def test_gaussian_peak(self, fine_grid):
        V = sample_potential(PotentialSpec.gaussian(), fine_grid)
        assert V.values[fine_grid.mid_index] == 1.0

    def test_gaussian_half_maximum(self):
        # half maximum sits at sqrt(2 ln 2), i.e. full width 2 sqrt(2 ln 2)
        [(_, _, f)] = potential_pieces(PotentialSpec.gaussian(), 12.0)
        assert f(math.sqrt(2.0 * math.log(2.0))) == pytest.approx(0.5, abs=1e-15)

    def test_poschl_teller_peak(self, fine_grid):
        V = sample_potential(PotentialSpec.poschl_teller(), fine_grid)
        assert V.values[fine_grid.mid_index] == 1.0

    def test_square_well_closed_edge(self):
        g = make_grid(12.0, 2401)
        V = sample_potential(PotentialSpec.square_well(1.0), g)
        for x, value in ((1.0, 1.0), (-1.0, 1.0), (1.01, 0.0)):
            assert V.values[g.mid_index + round(x / g.spacing)] == value

    @pytest.mark.parametrize("half_width", [400.0, 1e155])
    @pytest.mark.parametrize("kind", ["gaussian", "poschl_teller"])
    def test_wide_box_samples_without_overflow(self, kind, half_width):
        # cosh(x) ** 2 overflows past |x| ~ 355.5 and x * x past ~ 1.3e154:
        # V is 0 there, with no warning (pytest makes it an error), and
        # every sample whose formula stays finite keeps its bits.
        g = make_grid(half_width, 8001)
        x = g.points
        V = sample_potential(PotentialSpec(kind), g).values
        far = np.abs(x) > (355.5 if kind == "poschl_teller" else 1.3e154)
        assert np.all(V[far] == 0.0)
        near = x[~far]
        if kind == "gaussian":
            formula = np.exp(-0.5 * near * near)
        else:
            formula = 1.0 / np.cosh(near) ** 2
        assert V[~far].tobytes() == formula.tobytes()

    def test_table_roundtrip(self):
        g = make_grid(1.0, 5)
        V = sample_potential(PotentialSpec.table([0.0, 1.0, 2.0, 1.0, 0.0]), g)
        np.testing.assert_array_equal(V.values, [0.0, 1.0, 2.0, 1.0, 0.0])

    def test_table_length_mismatch(self):
        g = make_grid(1.0, 5)
        with pytest.raises(ValueError):
            sample_potential(PotentialSpec.table([1.0, 2.0, 3.0]), g)


class TestInvariants:
    @pytest.mark.parametrize(
        "spec",
        [PotentialSpec.gaussian(), PotentialSpec.poschl_teller(), PotentialSpec.square_well(1.0)],
    )
    def test_even_and_nonnegative(self, spec, fine_grid):
        V = sample_potential(spec, fine_grid)
        np.testing.assert_array_equal(V.values, V.values[::-1])
        assert np.all(V.values >= 0.0)

    @pytest.mark.parametrize(
        "spec", [PotentialSpec.gaussian(), PotentialSpec.poschl_teller()]
    )
    def test_decay_at_boundary(self, spec, fine_grid):
        V = sample_potential(spec, fine_grid)
        assert V.values[0] < 1e-8
        assert V.values[-1] < 1e-8


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PotentialSpec("lennard_jones")

    def test_square_well_needs_positive_width(self):
        with pytest.raises(ValueError):
            PotentialSpec.square_well(0.0)

    def test_table_rejects_negative(self):
        with pytest.raises(ValueError):
            PotentialSpec.table([1.0, -0.5, 1.0])

    def test_table_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PotentialSpec.table([1.0, float("inf")])

    def test_stray_parameters_rejected(self):
        with pytest.raises(ValueError):
            PotentialSpec("gaussian", a=1.0)

    def test_table_has_no_evaluator(self):
        with pytest.raises(ValueError):
            potential_pieces(PotentialSpec.table([1.0, 1.0, 1.0]), 12.0)


class TestPieces:
    def test_square_well_splits_at_edge(self):
        pieces = potential_pieces(PotentialSpec.square_well(1.0), 12.0)
        assert [(lo, hi) for lo, hi, _ in pieces] == [(0.0, 1.0), (1.0, 12.0)]
        assert pieces[0][2](0.5) == 1.0
        assert pieces[1][2](2.0) == 0.0

    def test_smooth_potentials_are_one_piece(self):
        pieces = potential_pieces(PotentialSpec.gaussian(), 12.0)
        assert len(pieces) == 1

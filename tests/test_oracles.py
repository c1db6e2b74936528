"""Shooting integrator and closed-form levels: the independent ground truth."""

import math

import pytest

from boundstates import (
    NoBoundStateError,
    PotentialSpec,
    ShootingConfig,
    analytic_level,
    shoot_mismatch,
    shooting_eigenvalue,
)
from _threshold import (
    even_ground_level,
    gaussian_ground_level,
    odd_threshold,
    sech2_well,
    square_well,
    square_well_ground_level,
)

# Ground levels from the adaptive-ODE oracle in tests/_threshold.py, which
# shares no code with boundstates (checked against sech^2 levels below).
SQUARE_WELL_EPS_LAM1 = square_well_ground_level(1.0)
SQUARE_WELL_EPS_LAM3 = square_well_ground_level(3.0)
GAUSSIAN_EPS_LAM1 = gaussian_ground_level(1.0)
PI2_OVER_4 = math.pi**2 / 4.0

REPORTED_GROUND_EPS = 0.479203


class TestShootMismatch:
    def test_vanishes_at_known_level(self):
        # Outward integration seeds the growing mode at roundoff, amplified
        # by exp(2 sqrt(eps) L), so the mismatch at an exact level is only
        # resolvable on a moderate domain (the eigenvalue itself root-finds on
        # the defect numerator and does not suffer from this).
        cfg = ShootingConfig(lam=2.0, parity="even", half_width=8.0, step=1e-3)
        m = shoot_mismatch(cfg, PotentialSpec.poschl_teller(), 1.0)
        assert abs(m) < 1e-6

    def test_definite_sign_away_from_levels(self):
        cfg = ShootingConfig(lam=2.0, parity="even")
        for eps in (1.5, 1.7, 1.9):
            assert shoot_mismatch(cfg, PotentialSpec.poschl_teller(), eps) > 0.5

    def test_scale_invariance(self):
        cfg = ShootingConfig(lam=1.0, parity="odd")
        base = shoot_mismatch(cfg, PotentialSpec.gaussian(), 0.3)
        doubled = shoot_mismatch(
            cfg, PotentialSpec.gaussian(), 0.3, initial_scale=2.0
        )
        assert doubled == pytest.approx(base, abs=1e-12)

    def test_rescaling_guard_leaves_mismatch_unchanged(self):
        # The overflow guard is the power-of-two renormalization of every
        # propagator product; a huge initial scale must not change the ratio.
        cfg = ShootingConfig(lam=1.0, parity="even")
        base = shoot_mismatch(cfg, PotentialSpec.gaussian(), 0.3)
        scaled = shoot_mismatch(
            cfg, PotentialSpec.gaussian(), 0.3, initial_scale=1e90
        )
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_rejects_nonpositive_epsilon(self):
        cfg = ShootingConfig(lam=1.0, parity="even")
        with pytest.raises(ValueError):
            shoot_mismatch(cfg, PotentialSpec.gaussian(), 0.0)


class TestShootingEigenvalue:
    def test_poschl_teller_exact(self):
        cfg = ShootingConfig(lam=2.0, parity="even")
        eps = shooting_eigenvalue(cfg, PotentialSpec.poschl_teller())
        assert eps == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_ground(self):
        cfg = ShootingConfig(lam=1.0, parity="even")
        eps = shooting_eigenvalue(cfg, PotentialSpec.gaussian())
        # close to the reported number, and pinned to its converged digits
        assert eps == pytest.approx(REPORTED_GROUND_EPS, abs=2e-3)
        assert eps == pytest.approx(GAUSSIAN_EPS_LAM1, abs=1e-6)

    def test_step_halving_stability(self):
        base = shooting_eigenvalue(
            ShootingConfig(lam=1.0, parity="even", step=2e-3),
            PotentialSpec.gaussian(),
        )
        halved = shooting_eigenvalue(
            ShootingConfig(lam=1.0, parity="even", step=1e-3),
            PotentialSpec.gaussian(),
        )
        assert abs(base - halved) < 1e-8

    def test_threshold_coupling_binds_nothing(self):
        # At the exact odd threshold the well binds only at epsilon -> 0+,
        # so any bracket bounded away from zero contains no level.
        cfg = ShootingConfig(lam=PI2_OVER_4, parity="odd", bracket=(1e-2, 2.0))
        with pytest.raises(NoBoundStateError):
            shooting_eigenvalue(cfg, PotentialSpec.square_well(1.0))

    def test_wide_box_matches_default_box(self, recwarn):
        # A box five times wider (30000 steps) must give the half_width=12
        # level to 1e-9, silently.
        wide = shooting_eigenvalue(
            ShootingConfig(lam=1.0, parity="even", half_width=60.0),
            PotentialSpec.gaussian(),
        )
        default = shooting_eigenvalue(
            ShootingConfig(lam=1.0, parity="even", half_width=12.0),
            PotentialSpec.gaussian(),
        )
        assert wide == pytest.approx(default, abs=1e-9)
        assert len(recwarn) == 0

    def test_deep_wide_well_needs_no_overflow(self, recwarn):
        # lam=200 sech^2 on half_width=60: the outward solution grows by about
        # exp(sqrt(186) * 60) = exp(819), past the float range, so this level
        # is only reachable through the renormalized products.
        spec = PotentialSpec.poschl_teller()
        cfg = ShootingConfig(lam=200.0, parity="even", half_width=60.0)
        assert shooting_eigenvalue(cfg, spec) == pytest.approx(
            analytic_level(spec, 200.0, 0), abs=1e-6
        )
        assert len(recwarn) == 0

    def test_callable_potential_needs_bracket(self):
        cfg = ShootingConfig(lam=2.0, parity="even")
        with pytest.raises(ValueError):
            shooting_eigenvalue(cfg, lambda x: 1.0 / math.cosh(x) ** 2)


class TestAnalyticLevel:
    def test_poschl_teller_levels(self):
        assert analytic_level(PotentialSpec.poschl_teller(), 2.0, 0) == 1.0
        assert analytic_level(PotentialSpec.poschl_teller(), 6.0, 0) == 4.0
        assert analytic_level(PotentialSpec.poschl_teller(), 6.0, 1) == 1.0

    def test_square_well_levels(self):
        sq = PotentialSpec.square_well(1.0)
        assert analytic_level(sq, 1.0, 0) == pytest.approx(
            SQUARE_WELL_EPS_LAM1, abs=1e-9
        )
        assert analytic_level(sq, 3.0, 0) == pytest.approx(
            SQUARE_WELL_EPS_LAM3, abs=1e-9
        )

    def test_missing_levels_rejected(self):
        with pytest.raises(NoBoundStateError):
            analytic_level(PotentialSpec.poschl_teller(), 2.0, 1)
        with pytest.raises(NoBoundStateError):
            analytic_level(PotentialSpec.square_well(1.0), 1.0, 1)
        with pytest.raises(NoBoundStateError):
            analytic_level(PotentialSpec.square_well(1.0), PI2_OVER_4, 1)

    def test_no_closed_form_for_gaussian(self):
        with pytest.raises(ValueError):
            analytic_level(PotentialSpec.gaussian(), 1.0, 0)


class TestSelfConsistency:
    """Shooting and closed forms must agree without shared machinery."""

    @pytest.mark.parametrize(
        "spec,lam,parity,index",
        [
            (PotentialSpec.poschl_teller(), 2.0, "even", 0),
            (PotentialSpec.poschl_teller(), 6.0, "even", 0),
            (PotentialSpec.poschl_teller(), 6.0, "odd", 1),
            (PotentialSpec.square_well(1.0), 1.0, "even", 0),
            (PotentialSpec.square_well(1.0), 3.0, "even", 0),
        ],
    )
    def test_agreement(self, spec, lam, parity, index):
        cfg = ShootingConfig(lam=lam, parity=parity)
        assert shooting_eigenvalue(cfg, spec) == pytest.approx(
            analytic_level(spec, lam, index), abs=1e-6
        )


class TestGroundLevelOracle:
    """tests/_threshold.py against exact sech^2 ground levels before its
    square-well and Gaussian levels are trusted as references."""

    @pytest.mark.parametrize("lam,eps", [(2.0, 1.0), (6.0, 4.0)])
    def test_sech2(self, lam, eps):
        # lam sech^2 x with lam = s(s+1) has its ground level at s^2
        assert even_ground_level(sech2_well, lam) == pytest.approx(eps, abs=1e-10)


class TestZeroEnergyThresholdOracle:
    """tests/_threshold.py against the exact odd thresholds it must reproduce
    before it is trusted as the reference for the Gaussian well."""

    def test_square_well(self):
        lam = odd_threshold(square_well(1.0), jumps=(1.0,))
        assert lam == pytest.approx(PI2_OVER_4, abs=1e-10)

    def test_sech2(self):
        # lam sech^2 x binds its first odd level once lam = s(s+1) > 2
        assert odd_threshold(sech2_well) == pytest.approx(2.0, abs=1e-8)

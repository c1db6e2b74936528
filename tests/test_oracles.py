"""Shooting integrator and closed-form levels: the independent ground truth."""

import itertools
import math

import numpy as np
import pytest

from boundstates import shooting
from boundstates.shooting import PARITIES
from boundstates import (
    NoBoundStateError,
    PotentialSpec,
    ShootingConfig,
    SolverError,
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

# (a, lam, parity) of square wells whose two deepest levels of the parity
# both lie in one cell of a 50-energy scan of (1e-4, lam).
DEEP_SQUARE_WELLS = [
    (2.0, 400.0, "even"),
    (3.0, 200.0, "even"),
    (3.0, 400.0, "odd"),
    (4.0, 100.0, "even"),
    (4.0, 200.0, "odd"),
    (4.0, 400.0, "even"),
    (4.0, 400.0, "odd"),
    (6.0, 50.0, "even"),
    (6.0, 100.0, "odd"),
    (6.0, 200.0, "even"),
    (6.0, 200.0, "odd"),
    (6.0, 400.0, "even"),
    (6.0, 400.0, "odd"),
]

# sech^2 couplings whose odd-level bisection meets a count of 0: N(1e-4) = 2
# and N(lam / 2) = 0, so the top of the bracket comes down.  Shooting then
# matches the closed form to 3.5e-11, 4.7e-11 and 8.2e-11.
SECH2_ODD_EMPTY_MIDPOINT = (13.0, 15.0, 19.5)


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

    def test_gaussian_ground_refine_is_superlinear(self, monkeypatch):
        # One node count, N(1e-4) = 1, certifies that the whole bracket
        # (1e-4, 1) holds the ground level alone; the Illinois method then
        # shoots both ends and 11 iterates, where a silent fallback to
        # bisection would take about 36 shots.  The level may move from the
        # one Brent's method gave (0.4773899773796127) by well under the
        # 1e-6 the printed table resolves.
        shots, counts = [], []
        terminal_state, node_count = shooting._terminal_state, shooting._node_count

        def counted_shot(*args):
            shots.append(args[-1])
            assert len(shots) <= 13, "the solve took more than 13 shots"
            return terminal_state(*args)

        def counted_count(*args):
            counts.append(args[-1])
            return node_count(*args)

        monkeypatch.setattr(shooting, "_terminal_state", counted_shot)
        monkeypatch.setattr(shooting, "_node_count", counted_count)
        cfg = ShootingConfig(lam=1.0, parity="even")
        eps = shooting_eigenvalue(cfg, PotentialSpec.gaussian())
        assert eps == pytest.approx(0.4773899773796127, abs=1e-10)
        assert counts == [1e-4]

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
        # so the bracket (1e-4, lam), bounded away from zero, holds no level.
        cfg = ShootingConfig(lam=PI2_OVER_4, parity="odd")
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

    def test_step_count_is_capped(self):
        # 5e8 steps would hold about 116 GB of samples and propagators; the
        # config refuses them before anything is allocated.
        for half_width, step in ((1e6, 2e-3), (1e308, 1e-10), (2.0**20 + 1, 1.0)):
            with pytest.raises(ValueError, match="RK4 steps"):
                ShootingConfig(1.0, "even", half_width=half_width, step=step)
        ShootingConfig(1.0, "even", half_width=2.0**20, step=1.0)

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

    def test_unresolved_well_raises(self):
        # h sqrt(lam max V) = 2 at lam = 1e6: RK4 would miss the level by 8e3
        # and could step over a node.  At lam = 1e308 the step matrices would
        # overflow.
        spec = PotentialSpec.poschl_teller()
        for lam in (1e6, 1e308):
            with pytest.raises(SolverError, match="cannot resolve the well"):
                shooting_eigenvalue(ShootingConfig(lam=lam, parity="even"), spec)

    def test_resolved_deep_well_matches_closed_form(self):
        # h sqrt(lam max V) = 0.63 at lam = 1e5, inside the resolution bound
        spec = PotentialSpec.poschl_teller()
        cfg = ShootingConfig(lam=1e5, parity="even")
        assert shooting_eigenvalue(cfg, spec) == pytest.approx(
            analytic_level(spec, 1e5, 0), rel=1e-6
        )

    @pytest.mark.parametrize(
        "spec",
        [
            PotentialSpec.gaussian(),
            PotentialSpec.poschl_teller(),
            PotentialSpec.square_well(1.0),
            PotentialSpec.square_well(20.0),  # wider than the box
        ],
        ids=lambda spec: f"{spec.kind}-{spec.a}",
    )
    def test_samples_peak_at_one_at_the_origin(self, spec):
        # The bracket's top, lam * max V, comes from the samples; every kind
        # peaks at exactly 1 at x = 0, which the samples include.
        cfg = ShootingConfig(lam=3.0, parity="even")
        _, v = shooting._sample(cfg, spec)
        assert v[0, 0] == 1.0
        assert float(v.max()) == 1.0

    def test_bare_callable_potential_rejected(self):
        cfg = ShootingConfig(lam=2.0, parity="even")
        with pytest.raises(TypeError):
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

    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("lam", [10.0**-k for k in range(6, 17)])
    def test_square_well_weak_coupling(self, lam, a):
        # Simon's weak-coupling expansion (Ann. Phys. 97, 279, 1976):
        # sqrt(eps) a = g (1 - 2g/3) + O(g^3) with g = lam a^2.  Here
        # lam - (theta / a)^2 would cancel to a few digits or none.
        expected = (lam * a) ** 2 * (1.0 - 2.0 * lam * a * a / 3.0) ** 2
        level = analytic_level(PotentialSpec.square_well(a), lam, 0)
        assert level == pytest.approx(expected, rel=1e-9, abs=0.0)

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
            # Deep square wells, whose deepest levels of one parity lie
            # closer together than lam / 50.
            *(
                (PotentialSpec.square_well(a), lam, parity, PARITIES.index(parity))
                for a, lam, parity in DEEP_SQUARE_WELLS
            ),
            *(
                (PotentialSpec.poschl_teller(), lam, "odd", 1)
                for lam in SECH2_ODD_EMPTY_MIDPOINT
            ),
        ],
    )
    def test_agreement(self, spec, lam, parity, index, monkeypatch):
        counts = []
        node_count = shooting._node_count

        def recorded(*args):
            counts.append(node_count(*args))
            return counts[-1]

        monkeypatch.setattr(shooting, "_node_count", recorded)
        empty_midpoint = (
            spec.kind == "poschl_teller" and lam in SECH2_ODD_EMPTY_MIDPOINT
        )
        cfg = ShootingConfig(lam=lam, parity=parity)
        assert shooting_eigenvalue(cfg, spec) == pytest.approx(
            analytic_level(spec, lam, index), abs=1e-10 if empty_midpoint else 1e-6
        )
        # Only those bisections run the count-zero branch (hi = mid).
        assert (0 in counts) == empty_midpoint


def _levels_deeper_than(spec, lam, parity, eps):
    """Levels of the parity with binding energy above eps, by closed form."""
    count = 0
    for index in itertools.count(PARITIES.index(parity), 2):
        try:
            level = analytic_level(spec, lam, index)
        except NoBoundStateError:
            return count
        count += level > eps


class TestNodeCount:
    """The Sturm count certifies every level index of the parity."""

    @pytest.mark.parametrize("parity", PARITIES)
    @pytest.mark.parametrize(
        "spec,lam",
        [
            *((PotentialSpec.poschl_teller(), lam) for lam in (2.0, 12.0, 30.0, 200.0)),
            *((PotentialSpec.square_well(1.0), lam) for lam in (4.0, 20.0, 40.0)),
        ],
        ids=lambda p: p.kind if isinstance(p, PotentialSpec) else None,
    )
    def test_count_matches_closed_form(self, spec, lam, parity):
        cfg = ShootingConfig(lam=lam, parity=parity)
        samples = shooting._sample(cfg, spec)
        for eps in np.linspace(1e-3, 0.999 * lam, 20):
            assert shooting._node_count(cfg, samples, eps) == _levels_deeper_than(
                spec, lam, parity, eps
            ), f"N({eps:g})"

    @pytest.mark.parametrize("parity", PARITIES)
    def test_count_steps_at_the_level_when_its_new_node_is_past_the_box(self, parity):
        # In a box of half-width 4 the node a level adds as eps falls through
        # it first appears beyond L, where only the decay-defect term counts it.
        spec = PotentialSpec.poschl_teller()
        cfg = ShootingConfig(lam=6.0, parity=parity, half_width=4.0)
        level = shooting_eigenvalue(cfg, spec)
        samples = shooting._sample(cfg, spec)
        counts = [shooting._node_count(cfg, samples, level + d) for d in (-1e-6, 1e-6)]
        assert counts == [1, 0]


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

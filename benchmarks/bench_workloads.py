"""Seeded operation generator for the benchmark workloads.

Only plain parameters leave this module; the program under test receives
the generated inputs and nothing about the seed.  Every round of a
workload has the same composition (the strata below), so the number of
operations per round and the share that fails at a given commit do not
depend on the seed; the seed only picks the parameters inside each
stratum.  Round ``index`` of seed ``seed`` is always the same list.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("repro-cold", "grid-warm", "oracle-warm")

# op_tail_s: the nearest-rank percentile that keeps at least ten samples
# beyond it at the number of timed operations (20 cold runs leave nothing
# above the median).
TAIL = {"repro-cold": 50, "grid-warm": 95, "oracle-warm": 68}
MIN_COLD_RUNS = 20
# A warm run makes passes over this many rounds (228 and 32 operations).
# The number of passes follows from --seconds and the nominal length of a
# pass, not from the measured speed, so a slow spell does not also change
# how many samples each operation gets; only a pass that would end the run
# after OVERRUN times --seconds is skipped, to bound the run time.
ROUNDS_PER_PASS = {"grid-warm": 3, "oracle-warm": 4}
PASS_SECONDS = {"grid-warm": 10.0, "oracle-warm": 14.0}
MIN_PASSES = 2
OVERRUN = 1.5


def passes(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))

STANDARD_BOX = 12.0
FIXED_POINT_SIZES = (2401, 50001, 200001)
LANCZOS_SIZES = (161, 321, 641, 1201, 2401)
# At half_width=60 the kernel's exp(+sqrt(eps) x) overflows for eps above
# (709.78 / 60)^2 ~ 140.  The spacing matches the standard 2401-point box.
WIDE_BOX = 60.0
WIDE_BOX_POINTS = 12001
WIDE_BOX_EPSILONS = (150.0, 200.0)
WIDE_BOX_PER_ROUND = 2

# Binding-energy strata, log-uniform inside each bin.
SECH2_BINS = ((1e-3, 1e-2), (1e-2, 0.1), (0.1, 1.0), (1.0, 10.0), (10.0, 50.0), (50.0, 200.0))
# The largest operations set the tail and most of the time, so their sizes
# are pinned to narrow strata: the n = 200001 solves (sector, eps bin) ...
SECH2_LARGE_GRID = (
    ("full", (150.0, 200.0)),
    ("full", (150.0, 200.0)),
    ("full", (1e-3, 1e-2)),
    ("odd", (1.0, 10.0)),
)
# The Gaussian check is the repo's residual gate, 10 h^2, which holds for
# eps up to about 2 and for n up to 50001 (the second difference divides
# roundoff by h^2 beyond that).
GAUSS_BINS = ((1e-3, 1e-2), (1e-2, 0.1), (0.1, 2.0))
# ... and the Lanczos runs (m bin, grid sizes); the top stratum also sets
# peak memory, through the largest Ritz history.
LANCZOS_STRATA = (
    ((18, 24), LANCZOS_SIZES),
    ((32, 40), LANCZOS_SIZES),
    ((50, 60), (641, 1201)),
    ((96, 100), (2401,)),
)

SWEEP_POINTS = 16
THRESHOLD_TAIL_POINTS = 10

# A square-well solve costs about 70% of a sech^2 one; at one in four, the
# median and the tail both fall among sech^2 solves, not between the two.
SECH2_COUPLING_BINS = ((3.0, 6.0), (6.0, 12.0), (12.0, 20.0))
SQUARE_COUPLING_BINS = ((4.0, 12.0), (20.0, 40.0))
SQUARE_HALF_WIDTH = 1.0


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _fixed_point(rng, potential, n, sector, bin_, half_width=STANDARD_BOX) -> dict:
    return {
        "kind": "fixed_point",
        "potential": potential,
        "half_width": half_width,
        "n": n,
        "sector": sector,
        "epsilon": _log_uniform(rng, *bin_),
    }


def grid_round(seed: int, index: int) -> list[dict]:
    """Operations of round ``index`` of ``grid-warm`` (76 operations)."""
    rng = random.Random(f"grid-warm:{seed}:{index}")
    ops = []
    for sector, bin_ in SECH2_LARGE_GRID:
        ops.append(_fixed_point(rng, "poschl_teller", 200001, sector, bin_))
    for sector in ("full", "odd"):
        for bin_ in SECH2_BINS:
            ops.append(_fixed_point(rng, "poschl_teller", 2401, sector, bin_))
            ops.append(_fixed_point(rng, "poschl_teller", 2401, sector, bin_))
            ops.append(_fixed_point(rng, "poschl_teller", 50001, sector, bin_))
        for bin_ in GAUSS_BINS:
            ops.append(_fixed_point(rng, "gaussian", 2401, sector, bin_))
            ops.append(_fixed_point(rng, "gaussian", 2401, sector, bin_))
            ops.append(_fixed_point(rng, "gaussian", 50001, sector, bin_))
    for _ in range(WIDE_BOX_PER_ROUND):
        ops.append(
            _fixed_point(
                rng, "poschl_teller", WIDE_BOX_POINTS, "full", WIDE_BOX_EPSILONS, WIDE_BOX
            )
        )
    for _ in range(4):
        lo = _log_uniform(rng, 0.01, 20.0)
        step = 10.0 ** (1.0 / (SWEEP_POINTS - 1))
        targets = []
        for _ in range(2):
            e = _log_uniform(rng, 1.3 * lo, 7.7 * lo)
            targets.append(e + math.sqrt(e))
        ops.append(
            {
                "kind": "sweep_invert",
                "potential": "poschl_teller",
                "half_width": STANDARD_BOX,
                "n": 2401,
                "epsilons": [lo * step**k for k in range(SWEEP_POINTS)],
                "targets": targets,
            }
        )
    for n in (2401, 2401, 2401, 50001):
        start = _log_uniform(rng, 0.005, 0.015)
        ops.append(
            {
                "kind": "threshold",
                "potential": "poschl_teller",
                "half_width": STANDARD_BOX,
                "n": n,
                "tail": [start * 0.5**k for k in range(THRESHOLD_TAIL_POINTS)],
            }
        )
    for potential in ("gaussian", "poschl_teller"):
        for (lo, hi), sizes in LANCZOS_STRATA:
            ops.append(
                {
                    "kind": "lanczos",
                    "potential": potential,
                    "n": rng.choice(sizes),
                    "m": rng.randint(lo, hi),
                }
            )
    rng.shuffle(ops)
    return ops


def oracle_round(seed: int, index: int) -> list[dict]:
    """Operations of round ``index`` of ``oracle-warm`` (8 shooting solves).

    Every coupling binds both parities; above lambda = 6 (sech^2) or 10
    (square well) the even parity has two levels, so the solver must pick
    the deepest bracket.  The square-well bin alternates between rounds.
    """
    rng = random.Random(f"oracle-warm:{seed}:{index}")
    couplings = [("poschl_teller", rng.uniform(lo, hi)) for lo, hi in SECH2_COUPLING_BINS]
    lo, hi = SQUARE_COUPLING_BINS[index % len(SQUARE_COUPLING_BINS)]
    couplings.append(("square_well", rng.uniform(lo, hi)))
    ops = [
        {
            "kind": "oracle",
            "potential": potential,
            "a": SQUARE_HALF_WIDTH if potential == "square_well" else None,
            "lam": lam,
            "parity": parity,
        }
        for potential, lam in couplings
        for parity in ("even", "odd")
    ]
    rng.shuffle(ops)
    return ops


def repro_round(seed: int, index: int) -> list[dict]:
    """One ``reproduce-paper`` run; its inputs are the CLI's own constants."""
    return [{"kind": "reproduce_paper"}]


ROUNDS = {"repro-cold": repro_round, "grid-warm": grid_round, "oracle-warm": oracle_round}


def warmup_ops(workload: str, seed: int) -> list[dict]:
    """One operation of each kind, from a round never timed."""
    seen = {}
    for op in ROUNDS[workload](seed, -1):
        seen.setdefault(op["kind"], op)
    return list(seen.values())

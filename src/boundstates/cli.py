"""Command-line interface: experiment configs, solver orchestration, reports.

Exit codes: 0 on success, 1 on usage/config errors, 2 on numerical failure
(non-convergence or "no bound state"), so scripts can tell a physically
meaningful negative result from a crash.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Sequence

import numpy as np

from . import lanczos as lz
from . import waxman as wx
from .errors import ConfigError, NoBoundStateError, SolverError
from .grid import Grid, SampledFunction, make_grid
from .potentials import KINDS, PotentialSpec, sample_potential
from .shooting import PARITIES, ShootingConfig, analytic_level, shooting_eigenvalue


def _float_list(raw: str) -> tuple[float, ...]:
    """Parse a comma- or space-separated list of floats."""
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


@dataclass(frozen=True)
class _Key:
    """One config key: how a file value or flag is parsed, and its default.

    ``flag`` is the command-line spelling; keys without one are set only in
    config files.
    """

    name: str
    parse: Callable[[str], object]
    default: object = None
    choices: tuple[str, ...] | None = None
    flag: str | None = None


# Table order is the order of the header every report starts with.
_KEYS = (
    _Key("potential", str, choices=KINDS, flag="--potential"),
    _Key("well_half_width", float, flag="--well-half-width"),
    _Key("table_values", _float_list),
    _Key("half_width", float, 12.0, flag="--half-width"),
    _Key("n_points", int, 2401, flag="--n-points"),
    _Key("solver", str, choices=("waxman", "lanczos", "oracle")),
    _Key("epsilon", float, flag="--epsilon"),
    _Key("epsilons", _float_list, flag="--epsilons"),
    _Key("epsilon_tail", _float_list, flag="--epsilon-tail"),
    _Key("sector", str, "full", choices=wx.SECTORS, flag="--sector"),
    _Key("x_ref", float, flag="--x-ref"),
    _Key("tol", float, 1e-10, flag="--tol"),
    _Key("max_iter", int, 500, flag="--max-iter"),
    _Key("lambda", float, 1.0, flag="--lambda"),
    _Key("m", int, 18, flag="-m"),
    _Key("parity", str, "even", choices=PARITIES, flag="--parity"),
    _Key("method", str, "shooting", choices=("shooting", "analytic"), flag="--method"),
    _Key("output", str, flag="--output"),
)
_BY_NAME = {key.name: key for key in _KEYS}
_REQUIRED_KEYS = ("potential",)


class ExperimentConfig:
    """Flat experiment description, by config key.

    ``values`` holds the keys as set, which must include every required key;
    ``get`` falls back to the command's default, then to the key's own default.
    """

    def __init__(self, values: dict, defaults: dict | None = None):
        missing = [name for name in _REQUIRED_KEYS if name not in values]
        if missing:
            raise ConfigError(f"missing required keys: {', '.join(missing)}")
        self.values = dict(values)
        self.defaults = {key.name: key.default for key in _KEYS} | dict(defaults or {})

    def get(self, name: str):
        return self.values.get(name, self.defaults[name])


def _parse_value(key: _Key, raw: str, line_no: int):
    try:
        value = key.parse(raw)
    except ValueError as exc:
        raise ConfigError(
            f"line {line_no}: malformed value for '{key.name}': {raw!r} ({exc})"
        )
    if key.choices is not None and value not in key.choices:
        raise ConfigError(
            f"line {line_no}: invalid value for '{key.name}': {value!r} "
            f"(expected one of {', '.join(key.choices)})"
        )
    return value


def _parse_values(text: str) -> dict:
    values = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
        name, _, raw = line.partition("=")
        name = name.strip()
        if name not in _BY_NAME:
            raise ConfigError(f"line {line_no}: unknown key '{name}'")
        if name in values:
            raise ConfigError(f"line {line_no}: duplicate key '{name}'")
        values[name] = _parse_value(_BY_NAME[name], raw.strip(), line_no)
    return values


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key=value lines ('#' starts a comment) into a config.

    Unknown keys and malformed values are rejected with the offending line
    number, then missing required keys.
    """
    return ExperimentConfig(_parse_values(text))


def _print_header(cfg: ExperimentConfig, stream: IO[str]) -> None:
    # The resolved configuration (defaults included) prefixes every report,
    # so any output can be reproduced from its own header.
    for key in _KEYS:
        value = cfg.get(key.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            rendered = ",".join(f"{v:.17g}" for v in value)
        elif isinstance(value, float):
            rendered = f"{value:.17g}"
        else:
            rendered = str(value)
        stream.write(f"# {key.name}={rendered}\n")


def _build_spec(cfg: ExperimentConfig) -> PotentialSpec:
    kind = cfg.get("potential")
    if kind == "square_well":
        if cfg.get("well_half_width") is None:
            raise ConfigError("square_well requires well_half_width")
        return PotentialSpec.square_well(cfg.get("well_half_width"))
    if kind == "table":
        if cfg.get("table_values") is None:
            raise ConfigError("table potential requires table_values")
        return PotentialSpec.table(cfg.get("table_values"))
    return PotentialSpec(kind)


def _build_potential(cfg: ExperimentConfig) -> tuple[Grid, SampledFunction]:
    grid = make_grid(cfg.get("half_width"), cfg.get("n_points"))
    return grid, sample_potential(_build_spec(cfg), grid)


def _waxman_overrides(cfg: ExperimentConfig) -> dict:
    return {name: cfg.get(name) for name in ("x_ref", "tol", "max_iter")}


def _require(cfg: ExperimentConfig, name: str):
    value = cfg.get(name)
    if value is None:
        raise ConfigError(f"missing required key for this command: {name}")
    return value


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve_waxman(cfg: ExperimentConfig, stream: IO[str]) -> int:
    _, V = _build_potential(cfg)
    epsilon = _require(cfg, "epsilon")
    solve = wx.WaxmanConfig(
        epsilon=epsilon, sector=cfg.get("sector"), **_waxman_overrides(cfg)
    )
    result = wx.waxman_fixed_point(solve, V)
    _print_header(cfg, stream)
    stream.write(f"epsilon={result.epsilon:.17g}\n")
    stream.write(f"lambda={result.lam:.17g}\n")
    stream.write(f"iterations={result.iterations}\n")
    stream.write(f"residual={result.residual:.17g}\n")
    stream.write(f"converged={'true' if result.converged else 'false'}\n")
    if not result.converged:
        print(
            f"error: fixed point did not converge within {solve.max_iter} iterations",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_sweep(cfg: ExperimentConfig, stream: IO[str]) -> int:
    _, V = _build_potential(cfg)
    epsilons = _require(cfg, "epsilons")
    output = _require(cfg, "output")
    points = wx.sweep_results(
        epsilons, V, sector=cfg.get("sector"), **_waxman_overrides(cfg)
    )
    with open(output, "w", newline="") as fh:
        wx.write_sweep_csv(points, fh)
    _print_header(cfg, stream)
    n_ok = sum(1 for p in points if p.result is not None and p.result.converged)
    stream.write(f"wrote {len(points)} sweep points to {output}\n")
    stream.write(f"converged {n_ok} of {len(points)}\n")
    if n_ok == 0:
        print("error: no sweep point converged", file=sys.stderr)
        return 2
    return 0


def _cmd_invert(cfg: ExperimentConfig, stream: IO[str]) -> int:
    _, V = _build_potential(cfg)
    epsilons = _require(cfg, "epsilons")
    lam_target = _require(cfg, "lambda")
    curve = wx.sweep_epsilon(
        epsilons, V, sector=cfg.get("sector"), **_waxman_overrides(cfg)
    )
    epsilon = wx.invert_curve(curve, lam_target)
    _print_header(cfg, stream)
    stream.write(f"lambda={lam_target:.17g}\n")
    stream.write(f"epsilon={epsilon:.17g}\n")
    stream.write(f"energy={-epsilon:.17g}\n")
    return 0


def _cmd_threshold(cfg: ExperimentConfig, stream: IO[str]) -> int:
    _, V = _build_potential(cfg)
    lam_star = wx.threshold_lambda(
        V, cfg.get("sector"), cfg.get("epsilon_tail"), **_waxman_overrides(cfg)
    )
    _print_header(cfg, stream)
    stream.write(f"threshold_lambda={lam_star:.17g}\n")
    return 0


def _cmd_solve_lanczos(cfg: ExperimentConfig, stream: IO[str]) -> int:
    grid, V = _build_potential(cfg)
    H = lz.Hamiltonian(V, cfg.get("lambda"))
    phi1 = lz.start_vector(grid)
    run = lz.lanczos_run(H, phi1, cfg.get("m"))
    history = lz.ritz_history(run, H)
    labelled = lz.classify_pairs(history) if run.m >= 3 else [
        (p, "undecided") for p in history[-1]
    ]
    output = cfg.get("output")
    if output is not None:
        with open(output, "w", newline="") as fh:
            lz.write_trace_csv(history, fh)
    _print_header(cfg, stream)
    if output is not None:
        stream.write(f"wrote iteration trace to {output}\n")
    stream.write("index value delta label\n")
    for i, (pair, label) in enumerate(labelled):
        stream.write(f"{i} {pair.value:.17g} {pair.delta:.17g} {label}\n")
    return 0


def _cmd_oracle(cfg: ExperimentConfig, stream: IO[str]) -> int:
    spec = _build_spec(cfg)
    lam = cfg.get("lambda")
    parity = cfg.get("parity")
    if cfg.get("method") == "analytic":
        index = 0 if parity == "even" else 1
        epsilon = analytic_level(spec, lam, index)
    else:
        shoot = ShootingConfig(
            lam=lam, parity=parity, half_width=cfg.get("half_width")
        )
        epsilon = shooting_eigenvalue(shoot, spec)
    _print_header(cfg, stream)
    stream.write(f"epsilon={epsilon:.17g}\n")
    stream.write(f"energy={-epsilon:.17g}\n")
    return 0


# ---------------------------------------------------------------------------
# one-shot reproduction harness

# Published reference values this package sets out to reproduce, with the
# tolerances the acceptance suite runs at.
REFERENCE_GROUND_ENERGY = -0.479203
REFERENCE_LANCZOS_GROUND = -0.475917
REFERENCE_EXCITED_THRESHOLD = 1.35348

TOL_GROUND = 2e-3
TOL_ORACLE_AGREEMENT = 5e-4
TOL_THRESHOLD = 5e-3
TOL_LANCZOS_GROUND = 5e-3
DELTA_RATIO_MIN = 10.0

FULL_SWEEP_EPSILONS = tuple(np.linspace(0.1, 1.0, 37))
ODD_SWEEP_EPSILONS = (1e-4, 1e-3, 1e-2) + tuple(np.linspace(0.05, 1.0, 20))
THRESHOLD_TAIL = tuple(0.01 * 0.5**k for k in range(10))
RESIDUAL_SWEEP_EPSILONS = tuple(np.linspace(0.1, 1.0, 20))

# The Krylov comparison runs on a coarser mesh than the quadrature solvers:
# the published run iterated in a small smooth function space, and a grid
# stands in for that regime only while the operator's spectral radius stays
# moderate.  On the fine default mesh, rounding noise amplified by the
# 4/h^2 top of the spectrum captures the recursion within a few steps.
LANCZOS_N_POINTS = 161


@dataclass
class ReportRow:
    name: str
    computed: str
    reference: str
    tolerance: str
    passed: bool


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _numeric_row(name: str, computed: float, reference: float, tol: float) -> ReportRow:
    """Row that passes when ``computed`` is within ``tol`` of ``reference``."""
    passed = abs(computed - reference) <= tol
    return ReportRow(name, _fmt(computed), _fmt(reference), f"{tol:g}", passed)


def run_reproduce_paper(
    output_dir: str | Path = ".", stream: IO[str] = sys.stdout
) -> bool:
    """Full comparison harness; returns True when every row passes.

    Runs the even- and odd-sector coupling sweeps on the Gaussian well,
    curve inversion at unit coupling, the excited-state threshold
    extrapolation, the 18-step Lanczos run with its spuriousness
    classification, and the shooting cross-check, then prints a side-by-side
    table against the published reference numbers.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = make_grid(12.0, 2401)
    V = sample_potential(PotentialSpec.gaussian(), grid)
    rows: list[ReportRow] = []

    stream.write("# potential=gaussian half_width=12 n_points=2401 tol=1e-10\n")
    stream.write("# full sweep: 37 points on [0.1, 1.0]; odd sweep: 23 points\n")
    stream.write(f"# threshold tail: {len(THRESHOLD_TAIL)} points from 0.01 down\n")
    stream.write(
        f"# lanczos: m=18, lambda=1, gaussian start vector, "
        f"n_points={LANCZOS_N_POINTS}\n"
    )

    # Even-parity ground state: sweep, export, invert at unit coupling.
    full_points = wx.sweep_results(FULL_SWEEP_EPSILONS, V, sector="full")
    with open(out / "waxman_sweep_full.csv", "w", newline="") as fh:
        wx.write_sweep_csv(full_points, fh)
    full_curve = wx.curve_from_results(full_points, "full")
    eps_waxman = wx.invert_curve(full_curve, 1.0)
    rows.append(
        _numeric_row(
            "waxman_ground_energy", -eps_waxman, REFERENCE_GROUND_ENERGY, TOL_GROUND
        )
    )

    # Independent shooting value, compared against the inverted curve.
    shoot = ShootingConfig(lam=1.0, parity="even")
    eps_shoot = shooting_eigenvalue(shoot, PotentialSpec.gaussian())
    rows.append(
        _numeric_row(
            "shooting_vs_waxman", -eps_shoot, -eps_waxman, TOL_ORACLE_AGREEMENT
        )
    )

    # Odd sector: the curve must stay above unit coupling, so inversion at
    # lambda = 1 reports no solution.
    odd_points = wx.sweep_results(ODD_SWEEP_EPSILONS, V, sector="odd")
    with open(out / "waxman_sweep_odd.csv", "w", newline="") as fh:
        wx.write_sweep_csv(odd_points, fh)
    odd_curve = wx.curve_from_results(odd_points, "odd")
    min_lambda = float(odd_curve.lambdas.min())
    rows.append(
        ReportRow(
            "odd_sector_min_lambda",
            _fmt(min_lambda),
            "> 1",
            "-",
            min_lambda > 1.0,
        )
    )
    try:
        wx.invert_curve(odd_curve, 1.0)
        odd_outcome = "solution found"
    except NoBoundStateError:
        odd_outcome = "no solution"
    rows.append(
        ReportRow(
            "odd_sector_lambda1",
            odd_outcome,
            "no solution",
            "-",
            odd_outcome == "no solution",
        )
    )

    # Excited-state threshold coupling by square-root extrapolation.
    lam_star = wx.threshold_lambda(V, "odd", THRESHOLD_TAIL)
    rows.append(
        _numeric_row(
            "excited_threshold", lam_star, REFERENCE_EXCITED_THRESHOLD, TOL_THRESHOLD
        )
    )

    # Every converged sweep point must satisfy the grid eigenvalue equation.
    residual_points = wx.sweep_results(RESIDUAL_SWEEP_EPSILONS, V, sector="full")
    residual_bound = 10.0 * grid.spacing**2
    max_residual = max(
        wx.bound_state_residual(p.result.u, V, p.result.lam, p.result.epsilon)
        for p in residual_points
        if p.result is not None and p.result.converged
    )
    rows.append(
        ReportRow(
            "waxman_residual_max",
            f"{max_residual:.2e}",
            f"<= {residual_bound:.2e}",
            "-",
            max_residual <= residual_bound,
        )
    )

    # Lanczos: 18 iterations, Ritz trace, spuriousness classification.
    lz_grid = make_grid(12.0, LANCZOS_N_POINTS)
    H = lz.Hamiltonian(sample_potential(PotentialSpec.gaussian(), lz_grid), 1.0)
    run = lz.lanczos_run(H, lz.start_vector(lz_grid), 18)
    history = lz.ritz_history(run, H)
    with open(out / "lanczos_trace.csv", "w", newline="") as fh:
        lz.write_trace_csv(history, fh)
    labelled = lz.classify_pairs(history)
    lowest_pair, lowest_label = min(labelled, key=lambda pl: pl[0].value)
    rows.append(
        _numeric_row(
            "lanczos_ground_energy",
            lowest_pair.value,
            REFERENCE_LANCZOS_GROUND,
            TOL_LANCZOS_GROUND,
        )
    )
    spurious_pos = [
        p for p, label in labelled if label == "spurious" and p.value > 0
    ]
    ratio = (
        min(p.delta for p in spurious_pos) / lowest_pair.delta
        if spurious_pos and lowest_pair.delta > 0
        else math.inf if spurious_pos else 0.0
    )
    detection_ok = (
        lowest_label == "genuine"
        and bool(spurious_pos)
        and ratio >= DELTA_RATIO_MIN
    )
    rows.append(
        ReportRow(
            "lanczos_spurious_detection",
            f"ground={lowest_label}, positive spurious={len(spurious_pos)}, "
            f"delta ratio={ratio:.3g}",
            f"genuine ground + spurious pair, ratio >= {DELTA_RATIO_MIN:g}",
            "-",
            detection_ok,
        )
    )

    width = max(len(r.name) for r in rows)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        stream.write(
            f"{r.name:<{width}}  computed={r.computed}  reference={r.reference}  "
            f"tol={r.tolerance}  {status}\n"
        )
    all_passed = all(r.passed for r in rows)
    stream.write(f"{'ALL PASS' if all_passed else 'FAILURES PRESENT'}\n")
    return all_passed


# ---------------------------------------------------------------------------
# argument parsing


@dataclass(frozen=True)
class _Command:
    """A config-driven subcommand: the solver it names and its own defaults."""

    solver: str
    run: Callable[[ExperimentConfig, IO[str]], int]
    defaults: dict = field(default_factory=dict)


_COMMANDS = {
    "solve-waxman": _Command("waxman", _cmd_solve_waxman),
    "sweep": _Command("waxman", _cmd_sweep),
    "invert": _Command("waxman", _cmd_invert),
    "threshold": _Command(
        "waxman", _cmd_threshold, {"sector": "odd", "epsilon_tail": THRESHOLD_TAIL}
    ),
    "solve-lanczos": _Command("lanczos", _cmd_solve_lanczos),
    "oracle": _Command("oracle", _cmd_oracle),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _merge_config(args: argparse.Namespace, command: _Command) -> ExperimentConfig:
    values = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        values = _parse_values(text)
    for key in _KEYS:
        value = getattr(args, key.name, None)
        if value is not None:
            values[key.name] = value
    values["solver"] = command.solver
    return ExperimentConfig(values, command.defaults)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(prog="boundstates", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="path to a key=value config file")
        for key in _KEYS:
            if key.flag is not None:
                sub.add_argument(
                    key.flag,
                    dest=key.name,
                    type=key.parse,
                    choices=key.choices,
                    help="comma-separated list" if key.parse is _float_list else None,
                )
    repro = subs.add_parser("reproduce-paper")
    repro.add_argument("--output-dir", default=".", dest="output_dir")

    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce-paper":
            return 0 if run_reproduce_paper(args.output_dir, sys.stdout) else 2
        command = _COMMANDS[args.command]
        return command.run(_merge_config(args, command), sys.stdout)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:  # NoBoundStateError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

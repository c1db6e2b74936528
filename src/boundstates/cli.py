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
from .grid import SampledFunction, make_grid
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
    config files.  ``required_by`` names the potential kind that needs the key.
    """

    name: str
    parse: Callable[[str], object]
    default: object = None
    choices: tuple[str, ...] | None = None
    flag: str | None = None
    required_by: str | None = None


# Table order is the order of the header every report starts with.
_KEYS = (
    _Key("potential", str, choices=KINDS, flag="--potential"),
    _Key("well_half_width", float, flag="--well-half-width", required_by="square_well"),
    _Key("table_values", _float_list, required_by="table"),
    _Key("half_width", float, 12.0, flag="--half-width"),
    _Key("n_points", int, 2401, flag="--n-points"),
    _Key("solver", str, choices=("waxman", "lanczos", "oracle")),
    _Key("epsilon", float, flag="--epsilon"),
    _Key("epsilons", _float_list, flag="--epsilons"),
    _Key("epsilon_tail", _float_list, flag="--epsilon-tail"),
    _Key("sector", str, wx.WaxmanConfig.sector, choices=wx.SECTORS, flag="--sector"),
    _Key("x_ref", float, flag="--x-ref"),
    _Key("tol", float, wx.WaxmanConfig.tol, flag="--tol"),
    _Key("max_iter", int, wx.WaxmanConfig.max_iter, flag="--max-iter"),
    _Key("lambda", float, 1.0, flag="--lambda"),
    _Key("m", int, 18, flag="-m"),
    _Key("parity", str, "even", choices=PARITIES, flag="--parity"),
    _Key("method", str, "shooting", choices=("shooting", "analytic"), flag="--method"),
    _Key("output", str, flag="--output"),
)
_BY_NAME = {key.name: key for key in _KEYS}


def _resolve(values: dict, defaults: dict, required: tuple[str, ...] = ()) -> dict:
    """Every key in table order, by precedence key default < command default < set.

    Raises ``ConfigError`` naming every unset key among ``potential``,
    ``required`` and the keys the chosen potential kind needs.
    """
    cfg = {key.name: key.default for key in _KEYS} | defaults | values
    kind = cfg["potential"]
    needed = [key.name for key in _KEYS if kind and key.required_by == kind]
    missing = [name for name in ("potential", *required, *needed) if cfg[name] is None]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return cfg


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
    """Flat key=value lines ('#' starts a comment), rejected with their line number."""
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


def _render(value) -> str:
    """A header or result value as printed; a bool is an int, so it goes first."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(f"{v:.17g}" for v in value)
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _report(cfg: dict, stream: IO[str], results: dict | None = None) -> None:
    # Every report starts with its resolved config (defaults included) as
    # "# key=value" lines, so it can be reproduced from its own header.
    for prefix, values in (("# ", cfg), ("", results or {})):
        for name, value in values.items():
            if value is not None:
                stream.write(f"{prefix}{name}={_render(value)}\n")


def _build_spec(cfg: dict) -> PotentialSpec:
    kind = cfg["potential"]
    if kind == "square_well":
        return PotentialSpec.square_well(cfg["well_half_width"])
    if kind == "table":
        return PotentialSpec.table(cfg["table_values"])
    return PotentialSpec(kind)


def _build_potential(cfg: dict) -> SampledFunction:
    grid = make_grid(cfg["half_width"], cfg["n_points"])
    return sample_potential(_build_spec(cfg), grid)


def _waxman_overrides(cfg: dict) -> dict:
    return {name: cfg[name] for name in ("x_ref", "tol", "max_iter")}


def _write_csv(path: str | Path, write: Callable, rows) -> None:
    with open(path, "w", newline="") as fh:
        write(rows, fh)


def _lanczos_trace(
    V: SampledFunction, lam: float, m: int, output: str | Path | None
) -> list[tuple[lz.RitzPair, str]]:
    """Lanczos from the Gaussian start vector: Ritz history, trace CSV, labels."""
    H = lz.Hamiltonian(V, lam)
    history = lz.ritz_history(lz.lanczos_run(H, lz.start_vector(V.grid), m), H)
    if output is not None:
        _write_csv(output, lz.write_trace_csv, history)
    return lz.classify_pairs(history)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve_waxman(cfg: dict, stream: IO[str]) -> None:
    V = _build_potential(cfg)
    solve = wx.WaxmanConfig(
        epsilon=cfg["epsilon"], sector=cfg["sector"], **_waxman_overrides(cfg)
    )
    r = wx.waxman_fixed_point(solve, V)
    _report(cfg, stream, {
        "epsilon": r.epsilon, "lambda": r.lam, "iterations": r.iterations,
        "residual": r.residual, "converged": r.converged,
    })
    if not r.converged:
        raise SolverError(
            f"fixed point did not converge within {solve.max_iter} iterations"
        )


def _cmd_sweep(cfg: dict, stream: IO[str]) -> None:
    V = _build_potential(cfg)
    output = cfg["output"]
    points = wx.sweep_results(
        cfg["epsilons"], V, sector=cfg["sector"], **_waxman_overrides(cfg)
    )
    _write_csv(output, wx.write_sweep_csv, points)
    _report(cfg, stream)
    for p in points:
        if p.error is not None:
            sys.stderr.write(f"warning: sweep point epsilon={p.epsilon:g}: {p.error}\n")
    n_ok = sum(p.converged for p in points)
    stream.write(f"wrote {len(points)} sweep points to {output}\n")
    stream.write(f"converged {n_ok} of {len(points)}\n")
    if n_ok == 0:
        raise SolverError("no sweep point converged")


def _cmd_invert(cfg: dict, stream: IO[str]) -> None:
    V = _build_potential(cfg)
    curve = wx.sweep_epsilon(
        cfg["epsilons"], V, sector=cfg["sector"], **_waxman_overrides(cfg)
    )
    epsilon = wx.invert_curve(curve, cfg["lambda"])
    _report(
        cfg, stream, {"lambda": cfg["lambda"], "epsilon": epsilon, "energy": -epsilon}
    )


def _cmd_threshold(cfg: dict, stream: IO[str]) -> None:
    V = _build_potential(cfg)
    lam_star = wx.threshold_lambda(
        V, cfg["sector"], cfg["epsilon_tail"], **_waxman_overrides(cfg)
    )
    _report(cfg, stream, {"threshold_lambda": lam_star})


def _cmd_solve_lanczos(cfg: dict, stream: IO[str]) -> None:
    output = cfg["output"]
    labelled = _lanczos_trace(_build_potential(cfg), cfg["lambda"], cfg["m"], output)
    _report(cfg, stream)
    if output is not None:
        stream.write(f"wrote iteration trace to {output}\n")
    stream.write("index value delta label\n")
    for i, (pair, label) in enumerate(labelled):
        stream.write(f"{i} {pair.value:.17g} {pair.delta:.17g} {label}\n")


def _cmd_oracle(cfg: dict, stream: IO[str]) -> None:
    spec = _build_spec(cfg)
    lam = cfg["lambda"]
    parity = cfg["parity"]
    if cfg["method"] == "analytic":
        epsilon = analytic_level(spec, lam, PARITIES.index(parity))
    else:
        shoot = ShootingConfig(lam=lam, parity=parity, half_width=cfg["half_width"])
        epsilon = shooting_eigenvalue(shoot, spec)
    _report(cfg, stream, {"epsilon": epsilon, "energy": -epsilon})


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
# Read only by the traced residual-stage replay in benchmarks/bench_ops.py.
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


def _numeric_row(name: str, computed: float, reference: float, tol: float) -> ReportRow:
    """Row that passes when ``computed`` is within ``tol`` of ``reference``."""
    passed = abs(computed - reference) <= tol
    return ReportRow(name, f"{computed:.6f}", f"{reference:.6f}", f"{tol:g}", passed)


def run_reproduce_paper(
    output_dir: str | Path = ".", stream: IO[str] = sys.stdout
) -> bool:
    """Full comparison harness; returns True when every row passes.

    Runs the even- and odd-sector coupling sweeps on the Gaussian well,
    curve inversion at unit coupling, the excited-state threshold
    extrapolation, the Lanczos run with its spuriousness
    classification, and the shooting cross-check, then prints a side-by-side
    table against the published reference numbers.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    gaussian = PotentialSpec.gaussian()
    half_width, n_points, lz_m, lz_lambda = (
        _BY_NAME[name].default for name in ("half_width", "n_points", "m", "lambda")
    )
    V = sample_potential(gaussian, make_grid(half_width, n_points))

    # Each number here is one the run uses; tol is the solves' default.
    full, odd, tail = FULL_SWEEP_EPSILONS, ODD_SWEEP_EPSILONS, THRESHOLD_TAIL
    stream.write(
        f"# potential=gaussian half_width={half_width:g} n_points={n_points} "
        f"tol={wx.WaxmanConfig.tol:g}\n"
        f"# full sweep: {len(full)} points on [{full[0]}, {full[-1]}]; "
        f"odd sweep: {len(odd)} points\n"
        f"# threshold tail: {len(tail)} points from {tail[0]:g} down\n"
        f"# lanczos: m={lz_m}, lambda={lz_lambda:g}, gaussian start vector, "
        f"n_points={LANCZOS_N_POINTS}\n"
    )

    # Even-parity ground state: sweep, export, invert at unit coupling.
    full_points = wx.sweep_results(FULL_SWEEP_EPSILONS, V, sector="full")
    _write_csv(out / "waxman_sweep_full.csv", wx.write_sweep_csv, full_points)
    eps_waxman = wx.invert_curve(wx.curve_from_results(full_points, "full"), 1.0)

    # Independent shooting value, compared against the inverted curve.
    shoot = ShootingConfig(lam=1.0, parity="even", half_width=half_width)
    eps_shoot = shooting_eigenvalue(shoot, gaussian)

    # Odd sector: the curve must stay above unit coupling, so inversion at
    # lambda = 1 reports no solution.
    odd_points = wx.sweep_results(ODD_SWEEP_EPSILONS, V, sector="odd")
    _write_csv(out / "waxman_sweep_odd.csv", wx.write_sweep_csv, odd_points)
    odd_curve = wx.curve_from_results(odd_points, "odd")
    min_lambda = float(odd_curve.lambdas.min())
    try:
        wx.invert_curve(odd_curve, 1.0)
        odd_outcome = "solution found"
    except NoBoundStateError:
        odd_outcome = "no solution"

    # Excited-state threshold coupling by square-root extrapolation.
    lam_star = wx.threshold_lambda(V, "odd", THRESHOLD_TAIL)

    # Every converged full-sweep state must satisfy the grid eigenvalue equation.
    residual_bound = 10.0 * V.grid.spacing**2
    max_residual = max(
        wx.bound_state_residual(p.result.u, V, p.result.lam, p.result.epsilon)
        for p in full_points if p.converged
    )

    # Lanczos: Ritz trace and spuriousness classification.
    lz_V = sample_potential(gaussian, make_grid(half_width, LANCZOS_N_POINTS))
    labelled = _lanczos_trace(lz_V, lz_lambda, lz_m, out / "lanczos_trace.csv")
    lowest_pair, lowest_label = min(labelled, key=lambda pl: pl[0].value)
    spurious_pos = [
        p for p, label in labelled if label == "spurious" and p.value > 0
    ]
    ratio = (  # 0 without a positive spurious pair, so that row then fails
        min(p.delta for p in spurious_pos) / lowest_pair.delta
        if spurious_pos and lowest_pair.delta > 0
        else math.inf if spurious_pos else 0.0
    )

    rows = [
        _numeric_row(
            "waxman_ground_energy", -eps_waxman, REFERENCE_GROUND_ENERGY, TOL_GROUND
        ),
        _numeric_row(
            "shooting_vs_waxman", -eps_shoot, -eps_waxman, TOL_ORACLE_AGREEMENT
        ),
        ReportRow(
            "odd_sector_min_lambda", f"{min_lambda:.6f}", "> 1", "-", min_lambda > 1.0
        ),
        ReportRow(
            "odd_sector_lambda1",
            odd_outcome,
            "no solution",
            "-",
            odd_outcome == "no solution",
        ),
        _numeric_row(
            "excited_threshold", lam_star, REFERENCE_EXCITED_THRESHOLD, TOL_THRESHOLD
        ),
        ReportRow(
            "waxman_residual_max",
            f"{max_residual:.2e}",
            f"<= {residual_bound:.2e}",
            "-",
            max_residual <= residual_bound,
        ),
        _numeric_row(
            "lanczos_ground_energy",
            lowest_pair.value,
            REFERENCE_LANCZOS_GROUND,
            TOL_LANCZOS_GROUND,
        ),
        ReportRow(
            "lanczos_spurious_detection",
            f"ground={lowest_label}, positive spurious={len(spurious_pos)}, "
            f"delta ratio={ratio:.3g}",
            f"genuine ground + spurious pair, ratio >= {DELTA_RATIO_MIN:g}",
            "-",
            lowest_label == "genuine" and ratio >= DELTA_RATIO_MIN,
        ),
    ]
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
    """A config-driven subcommand: its solver, required keys and own defaults."""

    solver: str
    run: Callable[[dict, IO[str]], None]
    required: tuple[str, ...] = ()
    defaults: dict = field(default_factory=dict)


_COMMANDS = {
    "solve-waxman": _Command("waxman", _cmd_solve_waxman, ("epsilon",)),
    "sweep": _Command("waxman", _cmd_sweep, ("epsilons", "output")),
    "invert": _Command("waxman", _cmd_invert, ("epsilons",)),
    "threshold": _Command(
        "waxman", _cmd_threshold, (), {"sector": "odd", "epsilon_tail": THRESHOLD_TAIL}
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


def _merge_config(args: argparse.Namespace, command: _Command) -> dict:
    values = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        values = _parse_values(text)
    if values.setdefault("solver", command.solver) != command.solver:
        raise ConfigError(f"solver={values['solver']} does not match this command")
    for key in _KEYS:
        value = getattr(args, key.name, None)
        if value is not None:
            values[key.name] = value
    return _resolve(values, command.defaults, command.required)


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
        command.run(_merge_config(args, command), sys.stdout)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:  # NoBoundStateError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

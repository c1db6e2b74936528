"""Operations of the warm workloads, their checks, and the traced extras.

Every call into the package goes through ``Tracer.call`` under the name
``<module>.<public function>``, so a traced run attributes time to the
module that did the work without patching the package.  Counts are taken
from the returned objects at the same call sites.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import boundstates
from boundstates import cli
from boundstates import lanczos as lz
from boundstates import shooting as sh
from boundstates import waxman as wx
from boundstates.errors import NoBoundStateError

import bench_checks as checks
from bench_checks import CheckFailed
from bench_workloads import STANDARD_BOX

SPECS = {
    "poschl_teller": boundstates.PotentialSpec.poschl_teller(),
    "gaussian": boundstates.PotentialSpec.gaussian(),
}
KERNEL_PROBE_SIZES = ((2401, 15), (50001, 7), (200001, 5))
CLI_STAGES = (
    "full_sweep",
    "odd_sweep",
    "threshold",
    "residual_sweep",
    "shooting",
    "lanczos",
    "csv",
)


@dataclass
class Outcome:
    duration: float
    error: str | None
    op_id: int | None


def lowest_eigenvalue(H) -> float:
    """Lowest eigenvalue of the grid Hamiltonian, straight from LAPACK."""
    from scipy.linalg import eigh_tridiagonal

    h = H.grid.spacing
    diag = 2.0 / (h * h) - H.lam * H.V.values
    off = np.full(H.grid.n_points - 1, -1.0 / (h * h))
    return float(
        eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))[0]
    )


class Runner:
    def __init__(self, inputs: dict, tracer, tmp: Path):
        self.potentials = inputs["potentials"]
        self.hamiltonians = inputs["hamiltonians"]
        self.tr = tracer
        self.tmp = tmp
        self.lowest: dict = {}
        self._replays = 0

    def prepare_checks(self) -> None:
        for key, (H, _) in self.hamiltonians.items():
            self.lowest[key] = lowest_eigenvalue(H)

    def potential(self, kind: str, half_width: float, n: int):
        key = (kind, half_width, n)
        if key not in self.potentials:
            grid = boundstates.make_grid(half_width, n)
            self.potentials[key] = boundstates.sample_potential(SPECS[kind], grid)
        return self.potentials[key]

    def execute(self, op: dict) -> Outcome:
        kind = op["kind"]
        with self.tr.operation(kind) as op_id:
            start = time.perf_counter()
            try:
                out = getattr(self, kind)(op)
                error = None
            except Exception as exc:  # a raised error is a failed operation
                out, error = None, f"{type(exc).__name__}: {exc}"
            duration = time.perf_counter() - start
        if error is None:
            try:
                getattr(self, "check_" + kind)(op, out)
            except CheckFailed as exc:
                error = f"check: {exc}"
        return Outcome(duration, error, op_id)

    # -- counts ------------------------------------------------------------

    def _record_solves(self, results) -> None:
        for r in results:
            self.tr.count("waxman.solves")
            if r is not None:
                self.tr.count("waxman.results")
                self.tr.count("waxman.iterations", r.iterations)
                self.tr.count("waxman.converged", int(r.converged))

    def _record_lanczos(self, run, history, labelled, n: int) -> None:
        pairs = sum(len(step) for step in history)
        self.tr.count("lanczos.steps", run.m)
        self.tr.count("lanczos.ritz_pairs", pairs)
        self.tr.count("lanczos.labelled", len(labelled))
        self.tr.count("lanczos.genuine", sum(label == "genuine" for _, label in labelled))
        self.tr.maximum("lanczos.history_bytes", 8 * n * pairs)

    # -- grid-warm ---------------------------------------------------------

    def fixed_point(self, op):
        V = self.potential(op["potential"], op["half_width"], op["n"])
        cfg = wx.WaxmanConfig(epsilon=op["epsilon"], sector=op["sector"])
        try:
            res = self.tr.call("waxman.waxman_fixed_point", wx.waxman_fixed_point, cfg, V)
        except Exception:
            self._record_solves([None])
            raise
        self._record_solves([res])
        return res

    def check_fixed_point(self, op, res) -> None:
        V = self.potential(op["potential"], op["half_width"], op["n"])
        h = V.grid.spacing
        if op["potential"] == "poschl_teller":
            checks.check_sech2(res, op["epsilon"], op["sector"], h)
        else:
            residual = wx.bound_state_residual(res.u, V, res.lam, res.epsilon)
            checks.check_gaussian(res, residual, h)

    def sweep_invert(self, op):
        V = self.potential(op["potential"], op["half_width"], op["n"])
        points = self.tr.call("waxman.sweep_results", wx.sweep_results, op["epsilons"], V, "full")
        self._record_solves([p.result for p in points])
        curve = self.tr.call("waxman.curve_from_results", wx.curve_from_results, points, "full")
        roots = [
            self.tr.call("waxman.invert_curve", wx.invert_curve, curve, lam)
            for lam in op["targets"]
        ]
        return points, roots

    def check_sweep_invert(self, op, out) -> None:
        points, roots = out
        if any(p.result is None or not p.result.converged for p in points):
            raise CheckFailed("a sweep point did not converge")
        V = self.potential(op["potential"], op["half_width"], op["n"])
        checks.check_invert(roots, op["targets"], V.grid.spacing)

    def threshold(self, op):
        V = self.potential(op["potential"], op["half_width"], op["n"])
        # threshold_lambda returns only when every tail solve converged.
        self.tr.count("waxman.solves", len(op["tail"]))
        lam_star = self.tr.call(
            "waxman.threshold_lambda", wx.threshold_lambda, V, "odd", op["tail"]
        )
        self.tr.count("waxman.converged", len(op["tail"]))
        return lam_star

    def check_threshold(self, op, lam_star) -> None:
        checks.check_threshold(lam_star)

    def lanczos(self, op):
        H, start = self.hamiltonians[op["potential"], op["n"]]
        run = self.tr.call("lanczos.lanczos_run", lz.lanczos_run, H, start, op["m"])
        history = self.tr.call("lanczos.ritz_history", lz.ritz_history, run, H)
        labelled = self.tr.call("lanczos.classify_pairs", lz.classify_pairs, history)
        self._record_lanczos(run, history, labelled, op["n"])
        return run, history, labelled

    def check_lanczos(self, op, out) -> None:
        run, history, labelled = out
        H, _ = self.hamiltonians[op["potential"], op["n"]]
        h = H.grid.spacing
        Q = np.stack([b.values for b in run.basis])
        defect = float(np.max(np.abs(h * (Q @ Q.T) - np.eye(len(Q)))))
        ritz_min = min(p.value for step in history for p in step)
        checks.check_lanczos(defect, ritz_min, self.lowest[op["potential"], op["n"]], h)
        if len(labelled) != len(history[-1]):
            raise CheckFailed("classification lost pairs")

    # -- oracle-warm -------------------------------------------------------

    @staticmethod
    def _oracle_spec(op):
        if op["potential"] == "square_well":
            return boundstates.PotentialSpec.square_well(op["a"])
        return SPECS[op["potential"]]

    def oracle(self, op):
        cfg = sh.ShootingConfig(lam=op["lam"], parity=op["parity"])
        return self.tr.call(
            "shooting.shooting_eigenvalue", sh.shooting_eigenvalue, cfg, self._oracle_spec(op)
        )

    def check_oracle(self, op, epsilon) -> None:
        # The deepest level of each parity: index 0 (even) or 1 (odd).
        index = 0 if op["parity"] == "even" else 1
        analytic = self.tr.call(
            "shooting.analytic_level", sh.analytic_level, self._oracle_spec(op), op["lam"], index
        )
        self.tr.maximum("shooting.max_abs_err", checks.check_oracle(epsilon, analytic))

    # -- reproduce-paper, replayed in-process ------------------------------

    def reproduce_paper(self, op):
        """The stages of ``reproduce-paper`` through the same public functions.

        Uses the CLI's own constants; each stage is a ``cli.stage.*`` span
        whose children are the module calls.  Returns the table rows it
        can recompute and the directory holding the three CSVs.
        """
        tr = self.tr
        outdir = self.tmp / f"replay-{self._replays}"
        self._replays += 1
        outdir.mkdir(parents=True)
        grid = boundstates.make_grid(12.0, 2401)
        V = boundstates.sample_potential(SPECS["gaussian"], grid)
        rows = {}
        with tr.span("cli.stage.full_sweep"):
            full = tr.call(
                "waxman.sweep_results", wx.sweep_results, cli.FULL_SWEEP_EPSILONS, V, "full"
            )
            full_curve = tr.call("waxman.curve_from_results", wx.curve_from_results, full, "full")
            eps_waxman = tr.call("waxman.invert_curve", wx.invert_curve, full_curve, 1.0)
        self._record_solves([p.result for p in full])
        rows["waxman_ground_energy"] = f"{-eps_waxman:.6f}"
        with tr.span("cli.stage.shooting"):
            cfg = sh.ShootingConfig(lam=1.0, parity="even")
            eps_shoot = tr.call(
                "shooting.shooting_eigenvalue", sh.shooting_eigenvalue, cfg, SPECS["gaussian"]
            )
        rows["shooting_vs_waxman"] = f"{-eps_shoot:.6f}"
        with tr.span("cli.stage.odd_sweep"):
            odd = tr.call(
                "waxman.sweep_results", wx.sweep_results, cli.ODD_SWEEP_EPSILONS, V, "odd"
            )
            odd_curve = tr.call("waxman.curve_from_results", wx.curve_from_results, odd, "odd")
            try:
                tr.call("waxman.invert_curve", wx.invert_curve, odd_curve, 1.0)
                rows["odd_sector_lambda1"] = "solution found"
            except NoBoundStateError:
                rows["odd_sector_lambda1"] = "no solution"
        self._record_solves([p.result for p in odd])
        rows["odd_sector_min_lambda"] = f"{float(odd_curve.lambdas.min()):.6f}"
        with tr.span("cli.stage.threshold"):
            tr.count("waxman.solves", len(cli.THRESHOLD_TAIL))
            lam_star = tr.call(
                "waxman.threshold_lambda", wx.threshold_lambda, V, "odd", cli.THRESHOLD_TAIL
            )
            tr.count("waxman.converged", len(cli.THRESHOLD_TAIL))
        rows["excited_threshold"] = f"{lam_star:.6f}"
        with tr.span("cli.stage.residual_sweep"):
            resid = tr.call(
                "waxman.sweep_results", wx.sweep_results, cli.RESIDUAL_SWEEP_EPSILONS, V, "full"
            )
            max_residual = max(
                tr.call(
                    "waxman.bound_state_residual", wx.bound_state_residual,
                    r.u, V, r.lam, r.epsilon,
                )
                for r in (p.result for p in resid)
                if r is not None and r.converged
            )
        self._record_solves([p.result for p in resid])
        rows["waxman_residual_max"] = f"{max_residual:.2e}"
        with tr.span("cli.stage.lanczos"):
            lz_grid = boundstates.make_grid(12.0, cli.LANCZOS_N_POINTS)
            H = lz.Hamiltonian(boundstates.sample_potential(SPECS["gaussian"], lz_grid), 1.0)
            run = tr.call("lanczos.lanczos_run", lz.lanczos_run, H, lz.start_vector(lz_grid), 18)
            history = tr.call("lanczos.ritz_history", lz.ritz_history, run, H)
            labelled = tr.call("lanczos.classify_pairs", lz.classify_pairs, history)
        self._record_lanczos(run, history, labelled, cli.LANCZOS_N_POINTS)
        rows["lanczos_ground_energy"] = f"{min(p.value for p, _ in labelled):.6f}"
        with tr.span("cli.stage.csv"):
            with open(outdir / "waxman_sweep_full.csv", "w", newline="") as fh:
                tr.call("waxman.write_sweep_csv", wx.write_sweep_csv, full, fh)
            with open(outdir / "waxman_sweep_odd.csv", "w", newline="") as fh:
                tr.call("waxman.write_sweep_csv", wx.write_sweep_csv, odd, fh)
            with open(outdir / "lanczos_trace.csv", "w", newline="") as fh:
                tr.call("lanczos.write_trace_csv", lz.write_trace_csv, history, fh)
        return rows, outdir

    def check_reproduce_paper(self, op, out) -> None:
        rows, outdir = out
        try:
            for name, computed in rows.items():
                expected = checks.EXPECTED_ROWS[name][0]
                if computed != expected:
                    raise CheckFailed(f"row {name}: got {computed}, expected {expected}")
            checks.check_csvs(outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    # -- traced runs -------------------------------------------------------

    def replay_and_probes(self) -> list[Outcome]:
        """Reference unit of every traced run: one replay, then unit costs.

        Every layer is called here whatever the workload, so each per-layer
        metric exists on every workload.  Returns the checked operations.
        """
        outcomes = [self.execute({"kind": "reproduce_paper"})]
        kernel = wx.GreensKernel(1.0)
        for n, repeats in KERNEL_PROBE_SIZES:
            V = self.potential("poschl_teller", STANDARD_BOX, n)
            for _ in range(repeats):
                self.tr.call(f"waxman.apply_kernel.n{n}", wx.apply_kernel, kernel, V, V)
            outcomes.append(self.execute({
                "kind": "fixed_point", "potential": "poschl_teller",
                "half_width": STANDARD_BOX, "n": n, "sector": "full", "epsilon": 1.0,
            }))
        cfg = sh.ShootingConfig(lam=1.0, parity="even")
        for _ in range(5):
            self.tr.call("shooting.shoot_mismatch", sh.shoot_mismatch, cfg, SPECS["gaussian"], 0.4)
        outcomes.append(self.execute(
            {"kind": "oracle", "potential": "poschl_teller", "a": None, "lam": 6.0, "parity": "odd"}
        ))
        return outcomes

    def layer_metrics(self, reference: dict, workload_ops: set) -> dict:
        """Per-layer metrics: medians over all traced spans, counts over the
        reference unit plus the first traced round, shares over the
        workload's traced operations."""
        tr = self.tr
        counts = tr.counts
        m = {}
        for stage in CLI_STAGES:
            m[f"cli.stage.{stage}_s"] = tr.median(f"cli.stage.{stage}")
        for n, _ in KERNEL_PROBE_SIZES:
            m[f"waxman.apply_kernel_s.n{n}"] = tr.median(f"waxman.apply_kernel.n{n}")
            # Compulsory traffic: read V and u, write the result (float64).
            m[f"waxman.apply_kernel_bytes.n{n}"] = 3 * 8 * n
        m["waxman.fixed_point_s"] = tr.median("waxman.waxman_fixed_point")
        m["waxman.solves"] = reference.get("waxman.solves", 0)
        m["waxman.iterations_per_solve"] = counts["waxman.iterations"] / counts["waxman.results"]
        m["waxman.converged_ratio"] = counts["waxman.converged"] / counts["waxman.solves"]
        m["waxman.sweep_s"] = tr.median("waxman.sweep_results")
        m["waxman.invert_s"] = tr.median("waxman.invert_curve")
        m["waxman.threshold_s"] = tr.median("waxman.threshold_lambda")
        m["lanczos.run_s"] = tr.median("lanczos.lanczos_run")
        m["lanczos.steps"] = reference.get("lanczos.steps", 0)
        m["lanczos.ritz_history_s"] = tr.median("lanczos.ritz_history")
        m["lanczos.ritz_pairs"] = reference.get("lanczos.ritz_pairs", 0)
        m["lanczos.classify_s"] = tr.median("lanczos.classify_pairs")
        m["lanczos.trace_csv_s"] = tr.median("lanczos.write_trace_csv")
        m["lanczos.genuine_ratio"] = counts["lanczos.genuine"] / counts["lanczos.labelled"]
        m["lanczos.history_bytes"] = tr.maxima["lanczos.history_bytes"]
        m["shooting.eigenvalue_s"] = tr.median("shooting.shooting_eigenvalue")
        m["shooting.shot_s"] = tr.median("shooting.shoot_mismatch")
        m["shooting.shots_per_solve"] = m["shooting.eigenvalue_s"] / m["shooting.shot_s"]
        m["shooting.analytic_s"] = tr.median("shooting.analytic_level")
        m["shooting.max_abs_err"] = tr.maxima["shooting.max_abs_err"]
        self_times = tr.self_times(workload_ops)
        op_time = sum(self_times.values())
        for layer in ("waxman", "lanczos", "shooting"):
            m[f"{layer}.op_share"] = self_times.get(layer, 0.0) / op_time
        return m


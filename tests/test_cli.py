"""Config parsing, subcommand behavior, and the exit-code contract."""

import hashlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boundstates
from boundstates import waxman
from boundstates.cli import _KEYS, _float_list, _render, main, run_reproduce_paper
from _threshold import gaussian_odd_threshold


def _run_config(command, text, tmp_path, capsys):
    """Exit code, ``# key=value`` header and stderr of ``command --config``."""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    code = main([command, "--config", str(cfgfile)])
    captured = capsys.readouterr()
    header = dict(
        line[2:].split("=", 1)
        for line in captured.out.splitlines()
        if line.startswith("# ")
    )
    return code, header, captured.err


class TestParseConfig:
    """Config files, read on the public route ``main([command, "--config", path])``."""

    def test_minimal_with_defaults(self, capsys, tmp_path):
        code, header, _ = _run_config(
            "solve-waxman",
            "potential=gaussian\nsolver=waxman\nepsilon=0.479203\n",
            tmp_path,
            capsys,
        )
        assert code == 0
        assert header.get("potential") == "gaussian"
        assert float(header.get("epsilon")) == 0.479203
        assert float(header.get("half_width")) == 12.0
        assert header.get("n_points") == "2401"
        assert float(header.get("tol")) == 1e-10
        assert header.get("sector") == "full"

    def test_comments_and_blank_lines(self, capsys, tmp_path):
        code, header, _ = _run_config(
            "oracle",
            "# experiment\n\npotential=gaussian  # the shape\nsolver=oracle\n",
            tmp_path,
            capsys,
        )
        assert code == 0
        assert header.get("potential") == "gaussian"
        assert header.get("solver") == "oracle"

    @staticmethod
    def _error(command, text, tmp_path, capsys):
        code, header, err = _run_config(command, text, tmp_path, capsys)
        assert code == 1
        assert header == {}
        assert err.startswith("error: ")
        return err

    def test_unknown_key_named_with_line(self, capsys, tmp_path):
        err = self._error(
            "solve-waxman",
            "potential=gaussian\nfrequency=3\nsolver=waxman\n",
            tmp_path,
            capsys,
        )
        assert re.search(r"line 2.*frequency", err)

    def test_unknown_potential_named(self, capsys, tmp_path):
        err = self._error(
            "solve-waxman", "potential=unknown_shape\nsolver=waxman\n", tmp_path, capsys
        )
        assert "unknown_shape" in err

    def test_malformed_value_has_line_number(self, capsys, tmp_path):
        err = self._error(
            "solve-waxman",
            "potential=gaussian\nepsilon=abc\nsolver=waxman\n",
            tmp_path,
            capsys,
        )
        assert re.search(r"line 2.*epsilon", err)

    def test_empty_file_lists_required_keys(self, capsys, tmp_path):
        assert "potential" in self._error("solve-waxman", "", tmp_path, capsys)

    def test_potential_parameter_is_required(self, capsys, tmp_path):
        # oracle requires no key of its own, so only the table's is missing.
        err = self._error("oracle", "potential=table\n", tmp_path, capsys)
        assert "missing required keys: table_values" in err

    def test_duplicate_key_rejected(self, capsys, tmp_path):
        err = self._error(
            "solve-waxman",
            "potential=gaussian\nsolver=waxman\nsolver=oracle\n",
            tmp_path,
            capsys,
        )
        assert re.search(r"line 3.*duplicate", err)

    def test_list_values(self, capsys, tmp_path):
        code, header, _ = _run_config(
            "sweep",
            "potential=gaussian\nsolver=waxman\nepsilons=0.1,0.2,0.3\n"
            f"output={tmp_path / 'sweep.csv'}\n",
            tmp_path,
            capsys,
        )
        assert code == 0
        eps = tuple(float(v) for v in header.get("epsilons").split(","))
        assert eps == (0.1, 0.2, 0.3)


@pytest.mark.parametrize(
    "value, text",
    [
        (True, "true"),
        (False, "false"),
        (2401, "2401"),
        (0.1, "0.10000000000000001"),
        (np.float64(1.0), "1"),
        ((0.1, 2.0), "0.10000000000000001,2"),
        ("odd", "odd"),
    ],
)
def test_render_states_each_value_one_way(value, text):
    # One rule for header and result values: a bool before the int it is,
    # every float (numpy's too) to 17 significant digits.
    assert _render(value) == text


class TestSubcommands:
    def test_oracle_analytic(self, capsys):
        code = main(
            [
                "oracle",
                "--potential",
                "poschl_teller",
                "--lambda",
                "2",
                "--parity",
                "even",
                "--method",
                "analytic",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "epsilon=1" in out
        assert "# potential=poschl_teller" in out

    def test_oracle_shooting(self, capsys):
        code = main(
            [
                "oracle",
                "--potential",
                "poschl_teller",
                "--lambda",
                "2",
                "--parity",
                "even",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        eps = float(next(l for l in out.splitlines() if l.startswith("epsilon=")).split("=")[1])
        assert eps == pytest.approx(1.0, abs=1e-6)

    def test_solve_waxman(self, capsys, tmp_path):
        cfgfile = tmp_path / "pt.cfg"
        cfgfile.write_text(
            "potential=poschl_teller\nsolver=waxman\nepsilon=1.0\nn_points=601\n"
        )
        code = main(["solve-waxman", "--config", str(cfgfile)])
        out = capsys.readouterr().out
        assert code == 0
        lam = float(next(l for l in out.splitlines() if l.startswith("lambda=")).split("=")[1])
        assert lam == pytest.approx(2.0, abs=2e-3)
        assert "converged=true" in out

    def test_config_without_solver_runs(self, capsys, tmp_path):
        # The subcommand names the solver, so a config file need not; the
        # header still prints it and feeds back through --config unchanged.
        cfgfile = tmp_path / "pt.cfg"
        cfgfile.write_text("potential=poschl_teller\nepsilon=1.0\nn_points=601\n")
        assert main(["solve-waxman", "--config", str(cfgfile)]) == 0
        out = capsys.readouterr().out
        assert "# solver=waxman\n" in out
        header = [line[2:] for line in out.splitlines() if line.startswith("# ")]
        cfgfile.write_text("\n".join(header) + "\n")
        assert main(["solve-waxman", "--config", str(cfgfile)]) == 0
        assert capsys.readouterr().out == out

    def test_flags_complete_a_config_file(self, capsys, tmp_path):
        # Required keys are checked after the flags are merged in, so a file
        # may leave the potential to the command line.
        cfgfile = tmp_path / "eps.cfg"
        cfgfile.write_text("epsilon=0.5\n")
        argv = ["--config", str(cfgfile), "--potential", "gaussian", "--n-points", "601"]
        assert main(["solve-waxman", *argv]) == 0
        out = capsys.readouterr().out
        assert "# potential=gaussian\n" in out
        assert "converged=true" in out

    def test_config_solver_must_match_the_command(self, capsys, tmp_path):
        # A file naming another solver is rejected, not silently overridden.
        cfgfile = tmp_path / "lz.cfg"
        cfgfile.write_text("potential=poschl_teller\nsolver=lanczos\nepsilon=1.0\n")
        assert main(["solve-waxman", "--config", str(cfgfile)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solver=lanczos does not match this command" in captured.err

    def test_solve_waxman_nonconvergence_exits_2(self, capsys, tmp_path):
        cfgfile = tmp_path / "slow.cfg"
        cfgfile.write_text(
            "potential=gaussian\nsolver=waxman\nepsilon=0.5\nmax_iter=2\nn_points=601\n"
        )
        assert main(["solve-waxman", "--config", str(cfgfile)]) == 2

    def test_sweep_writes_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text(
            "potential=gaussian\nsolver=waxman\nepsilons=0.3,0.5\nn_points=601\n"
            f"output={out_csv}\n"
        )
        assert main(["sweep", "--config", str(cfgfile)]) == 0
        text = out_csv.read_text()
        assert text.splitlines()[0] == "epsilon,lambda,iterations,residual,converged"
        assert len(text.splitlines()) == 3

    def test_sweep_is_deterministic(self, capsys, tmp_path):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out_csv = tmp_path / name
            cfgfile = tmp_path / f"{name}.cfg"
            cfgfile.write_text(
                "potential=gaussian\nsolver=waxman\nepsilons=0.3,0.5\nn_points=601\n"
                f"output={out_csv}\n"
            )
            assert main(["sweep", "--config", str(cfgfile)]) == 0
            outputs.append(out_csv.read_bytes())
        assert outputs[0] == outputs[1]

    def test_invert_no_solution_exits_2(self, capsys, tmp_path):
        cfgfile = tmp_path / "odd.cfg"
        cfgfile.write_text(
            "potential=gaussian\nsolver=waxman\nsector=odd\n"
            "epsilons=0.05,0.1,0.2,0.4\nn_points=601\n"
        )
        code = main(["invert", "--config", str(cfgfile), "--lambda", "1.0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no bound state at lambda=1" in err

    def test_invert_ground_state(self, capsys, tmp_path):
        cfgfile = tmp_path / "full.cfg"
        cfgfile.write_text(
            "potential=poschl_teller\nsolver=waxman\n"
            "epsilons=0.6,0.8,1.0,1.2,1.4\nn_points=1201\n"
        )
        code = main(["invert", "--config", str(cfgfile), "--lambda", "2.0"])
        out = capsys.readouterr().out
        assert code == 0
        eps = float(next(l for l in out.splitlines() if l.startswith("epsilon=")).split("=")[1])
        assert eps == pytest.approx(1.0, abs=2e-3)

    def test_threshold_command(self, capsys):
        code = main(
            [
                "threshold",
                "--potential",
                "gaussian",
                "--sector",
                "odd",
                "--n-points",
                "1201",
                "--epsilon-tail",
                "0.01,0.005,0.0025,0.00125,0.000625",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lam_star = float(
            next(l for l in out.splitlines() if l.startswith("threshold_lambda=")).split("=")[1]
        )
        assert lam_star == pytest.approx(gaussian_odd_threshold(), abs=5e-3)

    def test_solve_lanczos(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "solve-lanczos",
                "--potential",
                "gaussian",
                "--n-points",
                "161",
                "-m",
                "18",
                "--lambda",
                "1",
                "--output",
                str(trace),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "genuine" in out
        assert trace.read_text().splitlines()[0] == "iteration,ritz_index,value,delta,label"


def _epsilon(out: str) -> float:
    return float(next(l for l in out.splitlines() if l.startswith("epsilon=")).split("=")[1])


def _run_child(*argv):
    """Exit code, stdout and stderr of ``boundstates *argv`` in a fresh
    interpreter that turns every warning into an error."""
    env = dict(os.environ)
    src = str(Path(boundstates.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "boundstates", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestOracleLevels:
    def test_deep_square_well_gives_the_ground_level(self, capsys):
        # The two deepest even levels (49.93 and 49.41) lie within lam / 50 of
        # each other; the node count keeps the solve on the deeper one.
        argv = ["oracle", "--potential", "square_well", "--well-half-width", "6"]
        assert main([*argv, "--lambda", "50"]) == 0
        assert _epsilon(capsys.readouterr().out) == pytest.approx(
            49.93458194912143, abs=1e-6
        )

    @pytest.mark.parametrize(
        "well",
        [["poschl_teller"], ["square_well", "--well-half-width", "1"]],
        ids=["poschl_teller", "square_well"],
    )
    def test_analytic_huge_coupling_is_finite(self, well):
        # s(s+1) = lam must not overflow, and the even square-well root next
        # to pi/2 must be found: every square well binds an even level.
        argv = ["oracle", "--method", "analytic", "--potential", *well]
        code, out, err = _run_child(*argv, "--lambda", "1e308")
        assert (code, err) == (0, "")
        eps = _epsilon(out)
        assert math.isfinite(eps)
        assert eps == pytest.approx(1e308, rel=1e-12)

    @pytest.mark.parametrize(
        "well",
        [["poschl_teller"], ["square_well", "--well-half-width", "1"]],
        ids=["poschl_teller", "square_well"],
    )
    def test_analytic_level_that_underflows_is_2(self, well):
        # Every square well binds an even level, and sech^2 binds one at any
        # lam; at lam = 1e-300 both lie below the smallest float.
        argv = ["oracle", "--method", "analytic", "--potential", *well]
        code, out, err = _run_child(*argv, "--lambda", "1e-300")
        assert (code, out) == (2, "")
        assert "underflows to 0" in err

    def test_shooting_coupling_below_the_bracket_is_2(self, capsys):
        # No level binds deeper than lam * max V = 5e-5 < 1e-4: no level.
        assert main(["oracle", "--potential", "gaussian", "--lambda", "5e-5"]) == 2
        assert "no even level" in capsys.readouterr().err

    def test_shooting_huge_coupling_is_2(self):
        # The step cannot resolve the well: a typed error before any overflow.
        code, out, err = _run_child("oracle", "--potential", "poschl_teller", "--lambda", "1e308")
        assert code == 2
        assert "cannot resolve the well" in err


class TestExitCodes:
    def test_usage_error_is_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--bogus-flag"])
        assert exc.value.code == 1

    def test_missing_potential_is_1(self, capsys):
        assert main(["solve-waxman", "--epsilon", "0.5"]) == 1

    def test_config_error_is_1(self, capsys, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("potential=gaussian\nsolver=waxman\nn_points=2400\n")
        assert main(["solve-waxman", "--config", str(cfgfile), "--epsilon", "0.5"]) == 1

    @pytest.mark.parametrize(
        "potential,key", [("square_well", "well_half_width"), ("table", "table_values")]
    )
    def test_missing_potential_parameter_is_1(self, potential, key, capsys):
        assert main(["oracle", "--potential", potential]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: missing required keys: {key}\n"

    @pytest.mark.parametrize(
        "argv, report, error",
        [
            (
                ["solve-waxman", "--epsilon", "0.5", "--max-iter", "2"],
                "epsilon=0.5\nlambda=1.03101462055128\niterations=2\n"
                "residual=0.048681179091208171\nconverged=false\n",
                "fixed point did not converge within 2 iterations",
            ),
            (
                ["sweep", "--epsilons", "0.3,0.5", "--max-iter", "1",
                 "--output", "s.csv"],
                "wrote 2 sweep points to s.csv\nconverged 0 of 2\n",
                "no sweep point converged",
            ),
        ],
    )
    def test_unconverged_run_reports_then_exits_2(
        self, argv, report, error, capsys, tmp_path, monkeypatch
    ):
        # The report is written in full before the solver error ends the run.
        monkeypatch.chdir(tmp_path)
        code = main([*argv, "--potential", "gaussian", "--n-points", "601"])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.out.splitlines(keepends=True)
        header = [line for line in lines if line.startswith("# ")]
        assert header[0] == "# potential=gaussian\n"
        assert "".join(lines[len(header) :]) == report
        assert captured.err == f"error: {error}\n"

    def test_kernel_overflow_is_2(self, capsys, recwarn):
        # exp(sqrt(200) * 60) = exp(848) is past the float range: a numerical
        # failure, reported before any exponential is computed.
        argv = ["--potential", "gaussian", "--half-width", "60", "--epsilon", "200"]
        assert main(["solve-waxman", *argv]) == 2
        assert "overflow" in capsys.readouterr().err
        assert len(recwarn) == 0

    def test_wide_box_potential_is_0_without_warning(self, capsys):
        # cosh(x) ** 2 overflows past |x| ~ 355.5, where the sech^2 well is 0;
        # pytest turns an overflow warning into an error, so this run fails
        # unless the sampler keeps it quiet.
        argv = ["--potential", "poschl_teller", "--half-width", "400"]
        assert main(["solve-waxman", *argv, "--epsilon", "0.5"]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("converged=true\n")
        assert captured.err == ""

    def test_sweep_with_a_failed_point_exits_0(self, capsys, tmp_path):
        # eps = 200 overflows the kernel weights on this box, so its row is a
        # failure record; one converged point is enough for the sweep.
        out_csv = tmp_path / "sweep.csv"
        argv = ["--potential", "gaussian", "--half-width", "60", "--n-points", "1201",
                "--epsilons", "100,200", "--output", str(out_csv)]
        assert main(["sweep", *argv]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("converged 1 of 2\n")
        assert out_csv.read_text().splitlines()[2] == "200,nan,0,nan,false"
        # The failed point names itself and its error on stderr, one line.
        [warning] = captured.err.splitlines()
        assert warning.startswith("warning: sweep point epsilon=200: ")
        assert "overflow" in warning

    def test_unreadable_config_file_is_1(self, capsys, tmp_path):
        argv = ["--config", str(tmp_path / "missing.cfg"), "--potential", "gaussian"]
        assert main(["solve-waxman", *argv, "--epsilon", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read config file: ")

    def test_config_line_without_equals_is_1(self, capsys, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("potential gaussian\n")
        assert main(["solve-waxman", "--config", str(cfgfile), "--epsilon", "0.5"]) == 1
        assert capsys.readouterr().err == (
            "error: line 1: expected key=value, got 'potential gaussian'\n"
        )

    def test_kernel_overflow_below_the_guard_is_2(self):
        # sqrt(3495) * 12 = 709.4 passes the weight guard, but the trapezoid
        # pair sums overflow: a typed error and no warning, even under -W error.
        argv = ["--potential", "square_well", "--well-half-width", "20",
                "--half-width", "12", "--n-points", "2401", "--epsilon", "3495"]
        code, out, err = _run_child("solve-waxman", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: kernel scan overflow at epsilon=3495")

    def test_missing_required_value_is_1(self, capsys):
        # sweep without an epsilon list is a usage problem, not numerical
        assert main(["sweep", "--potential", "gaussian", "--output", "x.csv"]) == 1

    def test_analytic_oracle_without_closed_form_is_1(self, capsys):
        code = main(["oracle", "--potential", "gaussian", "--method", "analytic"])
        assert code == 1
        assert "no closed-form levels" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--method", "analytic"],
            ["oracle", "--method", "shooting"],
            ["solve-lanczos", "--n-points", "161"],
            ["invert", "--epsilons", "0.6,1.0,1.4", "--n-points", "601"],
        ],
        ids=["analytic", "shooting", "lanczos", "invert"],
    )
    def test_oracle_bad_coupling_is_1(self, argv, capsys):
        # a nonpositive or infinite coupling is a usage error whichever route
        # is asked, reported before any arithmetic can warn
        for lam in ("-1", "inf"):
            code = main([*argv, "--potential", "poschl_teller", "--lambda", lam])
            assert code == 1
            assert "must be positive and finite" in capsys.readouterr().err

    def test_lanczos_huge_coupling_is_1(self, capsys):
        # A finite coupling so large that <psi|H^2 psi> could overflow is
        # rejected before the recursion runs
        argv = ["solve-lanczos", "--potential", "poschl_teller", "--n-points", "161"]
        assert main([*argv, "--lambda", "1e308"]) == 1
        assert "too large" in capsys.readouterr().err

    def test_analytic_oracle_missing_level_is_2(self, capsys):
        code = main(
            [
                "oracle",
                "--potential",
                "poschl_teller",
                "--lambda",
                "2",
                "--parity",
                "odd",
                "--method",
                "analytic",
            ]
        )
        assert code == 2
        assert "has no level 1" in capsys.readouterr().err


# A command that reads each float key, and where a list key takes the bad
# value: inf, -inf and nan must each be a usage error (exit 1) on every one.
GAUSSIAN_601 = "--potential gaussian --n-points 601"
NONFINITE_RUNS = [
    ("well_half_width", "oracle --potential square_well --method analytic", "{}"),
    ("table_values", "solve-waxman --potential table --n-points 3 --epsilon 1", "1,{},1"),
    ("half_width", "solve-waxman --potential gaussian --epsilon 0.5", "{}"),
    ("half_width", "solve-lanczos --potential gaussian --n-points 161", "{}"),
    ("half_width", "oracle --potential gaussian", "{}"),
    ("epsilon", f"solve-waxman {GAUSSIAN_601}", "{}"),
    ("epsilons", f"sweep {GAUSSIAN_601} --output {{tmp}}/s.csv", "0.1,{}"),
    ("epsilon_tail", f"threshold {GAUSSIAN_601}", "{},0.01,0.005"),
    ("x_ref", f"solve-waxman {GAUSSIAN_601} --epsilon 0.5", "{}"),
    ("tol", f"solve-waxman {GAUSSIAN_601} --epsilon 0.5", "{}"),
    ("lambda", "oracle --potential poschl_teller", "{}"),
]


def test_every_float_key_has_a_nonfinite_run():
    floats = {key.name for key in _KEYS if key.parse in (float, _float_list)}
    assert {name for name, _, _ in NONFINITE_RUNS} == floats


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "name,command,form",
    NONFINITE_RUNS,
    ids=[f"{name}-{command.split()[0]}" for name, command, _ in NONFINITE_RUNS],
)
def test_nonfinite_value_is_1(name, command, form, bad, capsys, tmp_path):
    # In process, so that a warning on the way is an error of the test too.
    argv = command.format(tmp=tmp_path).split()
    value = form.format(bad)
    flag = next(key.flag for key in _KEYS if key.name == name)
    if flag is None:  # a config-file key
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{name}={value}\n")
        argv += ["--config", str(cfgfile)]
    else:
        argv.append(f"{flag}={value}")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# One cheap successful run per subcommand; "{tmp}" is the test's directory.
HEADER_RUNS = {
    "solve-waxman": "--potential poschl_teller --epsilon 1.0 --n-points 601",
    "sweep": "--potential gaussian --epsilons 0.3,0.5 --n-points 601 "
    "--output {tmp}/sweep.csv",
    "invert": "--potential poschl_teller --epsilons 0.6,0.8,1.0,1.2,1.4 "
    "--n-points 1201 --lambda 2",
    "threshold": "--potential gaussian --n-points 601",
    "solve-lanczos": "--potential gaussian --n-points 161 --output {tmp}/trace.csv",
    "oracle": "--potential poschl_teller --lambda 2 --method analytic",
}


@pytest.mark.parametrize("command", list(HEADER_RUNS))
def test_header_reproduces_the_run(command, capsys, tmp_path):
    # Every report starts with its resolved config; fed back as a config
    # file, that header must reproduce the report byte for byte.
    argv = HEADER_RUNS[command].format(tmp=tmp_path).split()
    code = main([command, *argv])
    out = capsys.readouterr().out
    assert code == 0
    header = [line[2:] for line in out.splitlines() if line.startswith("# ")]
    cfgfile = tmp_path / "header.cfg"
    cfgfile.write_text("\n".join(header) + "\n")
    assert main([command, "--config", str(cfgfile)]) == code
    assert capsys.readouterr().out == out


CONFIG_FLAGS = {
    "-h",
    "--help",
    "--config",
    "--potential",
    "--well-half-width",
    "--half-width",
    "--n-points",
    "--epsilon",
    "--epsilons",
    "--epsilon-tail",
    "--sector",
    "--x-ref",
    "--tol",
    "--max-iter",
    "--lambda",
    "-m",
    "--parity",
    "--method",
    "--output",
}
FLAGS = {name: CONFIG_FLAGS for name in HEADER_RUNS}
FLAGS["reproduce-paper"] = {"-h", "--help", "--output-dir"}


@pytest.mark.parametrize("command", list(FLAGS))
def test_flag_set_is_pinned(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    options = capsys.readouterr().out.split("options:", 1)[1]
    assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", options)) == FLAGS[command]


PUBLIC_NAMES = {
    "ConfigError",
    "GridMismatchError",
    "NoBoundStateError",
    "SolverError",
    "Grid",
    "SampledFunction",
    "make_grid",
    "PotentialSpec",
    "sample_potential",
    "potential_pieces",
    "GreensKernel",
    "WaxmanConfig",
    "LambdaEpsilonCurve",
    "apply_kernel",
    "waxman_step",
    "waxman_fixed_point",
    "default_x_ref",
    "sweep_results",
    "sweep_epsilon",
    "curve_from_results",
    "invert_curve",
    "threshold_lambda",
    "bound_state_residual",
    "write_sweep_csv",
    "Hamiltonian",
    "RitzPair",
    "hamiltonian_apply",
    "start_vector",
    "lanczos_run",
    "tridiagonal_eigen",
    "ritz_history",
    "delta_check",
    "classify_pairs",
    "write_trace_csv",
    "ShootingConfig",
    "shoot_mismatch",
    "shooting_eigenvalue",
    "analytic_level",
}


def test_public_names_are_pinned():
    assert len(boundstates.__all__) == len(PUBLIC_NAMES)
    assert set(boundstates.__all__) == PUBLIC_NAMES
    assert all(hasattr(boundstates, name) for name in PUBLIC_NAMES)


def test_subcommand_set_is_pinned(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    choices = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1)
    assert choices.split(",") == [*HEADER_RUNS, "reproduce-paper"]


REPRODUCE_PAPER_STDOUT = """\
# potential=gaussian half_width=12 n_points=2401 tol=1e-10
# full sweep: 37 points on [0.1, 1.0]; odd sweep: 23 points
# threshold tail: 10 points from 0.01 down
# lanczos: m=18, lambda=1, gaussian start vector, n_points=161
waxman_ground_energy        computed=-0.477394  reference=-0.479203  tol=0.002  PASS
shooting_vs_waxman          computed=-0.477390  reference=-0.477394  tol=0.0005  PASS
odd_sector_min_lambda       computed=1.363355  reference=> 1  tol=-  PASS
odd_sector_lambda1          computed=no solution  reference=no solution  tol=-  PASS
excited_threshold           computed=1.341933  reference=1.353480  tol=0.005  FAIL
waxman_residual_max         computed=2.08e-05  reference=<= 1.00e-03  tol=-  PASS
lanczos_ground_energy       computed=-0.476961  reference=-0.475917  tol=0.005  PASS
lanczos_spurious_detection  computed=ground=genuine, positive spurious=1, \
delta ratio=169  reference=genuine ground + spurious pair, ratio >= 10  tol=-  PASS
FAILURES PRESENT
"""
REPRODUCE_PAPER_CSV_SHA256 = {
    "lanczos_trace.csv": "e5cadc2f8c7035aded84df7944337cb78e4b6b441ae377b52e9b8babbcc209e8",
    "waxman_sweep_full.csv": "9a29ec911f0f5306f8059453a1dcb062f59f0044a06ca3cc533274543a16ee94",
    "waxman_sweep_odd.csv": "099c442b258d51dbaa2411523a2883281b7f8c0a0833d8c07c223ac7fd26f00f",
}


def test_reproduce_paper_output_is_pinned(tmp_path):
    # The whole report, header lines included, and the bytes of every CSV.
    stream = io.StringIO()
    assert run_reproduce_paper(tmp_path, stream) is False
    assert stream.getvalue() == REPRODUCE_PAPER_STDOUT
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in REPRODUCE_PAPER_CSV_SHA256
    }
    assert digests == REPRODUCE_PAPER_CSV_SHA256


def test_reproduce_paper_solves_each_energy_once(tmp_path, monkeypatch):
    # 37 full-sweep, 23 odd-sweep and 10 threshold-tail energies: the
    # residual row checks the full sweep's states instead of solving again.
    epsilons = []
    solve = waxman.waxman_fixed_point

    def counted(cfg, V):
        epsilons.append(cfg.epsilon)
        return solve(cfg, V)

    monkeypatch.setattr(waxman, "waxman_fixed_point", counted)
    run_reproduce_paper(tmp_path, io.StringIO())
    assert len(epsilons) == 70

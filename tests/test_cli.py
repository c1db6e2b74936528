"""Config parsing, subcommand behavior, and the exit-code contract."""

import re

import pytest

import boundstates
from boundstates import ConfigError
from boundstates.cli import main, parse_config
from _threshold import gaussian_odd_threshold


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config("potential=gaussian\nsolver=waxman\nepsilon=0.479203\n")
        assert cfg.get("potential") == "gaussian"
        assert cfg.get("epsilon") == 0.479203
        assert cfg.get("half_width") == 12.0
        assert cfg.get("n_points") == 2401
        assert cfg.get("tol") == 1e-10
        assert cfg.get("sector") == "full"

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# experiment\n\npotential=gaussian  # the shape\nsolver=oracle\n"
        )
        assert cfg.get("potential") == "gaussian"
        assert cfg.get("solver") == "oracle"

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*frequency"):
            parse_config("potential=gaussian\nfrequency=3\nsolver=waxman\n")

    def test_unknown_potential_named(self):
        with pytest.raises(ConfigError, match="unknown_shape"):
            parse_config("potential=unknown_shape\nsolver=waxman\n")

    def test_malformed_value_has_line_number(self):
        with pytest.raises(ConfigError, match=r"line 2.*epsilon"):
            parse_config("potential=gaussian\nepsilon=abc\nsolver=waxman\n")

    def test_empty_file_lists_required_keys(self):
        with pytest.raises(ConfigError, match="potential"):
            parse_config("")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match=r"line 3.*duplicate"):
            parse_config("potential=gaussian\nsolver=waxman\nsolver=oracle\n")

    def test_list_values(self):
        cfg = parse_config(
            "potential=gaussian\nsolver=waxman\nepsilons=0.1,0.2,0.3\n"
        )
        assert cfg.get("epsilons") == (0.1, 0.2, 0.3)


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

    def test_kernel_overflow_is_2(self, capsys, recwarn):
        # exp(sqrt(200) * 60) = exp(848) is past the float range: a numerical
        # failure, reported before any exponential is computed.
        argv = ["--potential", "gaussian", "--half-width", "60", "--epsilon", "200"]
        assert main(["solve-waxman", *argv]) == 2
        assert "overflow" in capsys.readouterr().err
        assert len(recwarn) == 0

    def test_missing_required_value_is_1(self, capsys):
        # sweep without an epsilon list is a usage problem, not numerical
        assert main(["sweep", "--potential", "gaussian", "--output", "x.csv"]) == 1

    def test_analytic_oracle_without_closed_form_is_1(self, capsys):
        code = main(["oracle", "--potential", "gaussian", "--method", "analytic"])
        assert code == 1
        assert "no closed-form levels" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["analytic", "shooting"])
    def test_oracle_bad_coupling_is_1(self, method, capsys):
        # a nonpositive coupling is a usage error whichever route is asked
        code = main(
            [
                "oracle",
                "--potential",
                "poschl_teller",
                "--lambda",
                "-1",
                "--method",
                method,
            ]
        )
        assert code == 1
        assert "coupling lam must be positive" in capsys.readouterr().err

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
    "integrate",
    "inner_product",
    "PotentialSpec",
    "sample_potential",
    "potential_pieces",
    "peak_value",
    "GreensKernel",
    "WaxmanConfig",
    "LambdaEpsilonCurve",
    "kernel_value",
    "apply_kernel",
    "lambda_from",
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
    "ritz_pairs",
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

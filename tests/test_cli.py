"""Scenario-file round trips, error reporting, command exit codes."""

import dataclasses
import io
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icufunnel import SimConfig, simulate
from icufunnel.cli import (
    ScenarioFileError,
    bundled_scenario_path,
    load_scenario_file,
    main,
    scenario_file_text,
    trajectory_csv_text,
)
from icufunnel.model import SCENARIO_KEYS
from test_constants import A_CONST_OVERFLOW
from test_model import make_scenario


def write(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def plain_file(tmp_path, scenario):
    # scenario section only, no controller or sim settings
    return write(tmp_path, scenario_file_text(scenario))


class TestScenarioFile:
    def test_bundled_file_loads(self):
        path = bundled_scenario_path()
        assert path.exists()
        sf = load_scenario_file(path)
        assert sf.scenario.params.beta_A == 0.37
        assert sf.scenario.init.IA0 == 49.0
        assert sf.eps_plus == 10.0 and sf.eps_minus == 8.0
        assert sf.sim == {"horizon": 1000.0, "output_dt": 1.0, "rtol": 1e-8,
                          "atol": 1e-10, "event_time_tol": 1e-9}

    def test_round_trip_identity(self, tmp_path, scenario):
        text = scenario_file_text(scenario, eps_plus=10.0, eps_minus=8.0,
                                  sim=SimConfig())
        sf = load_scenario_file(write(tmp_path, text))
        assert sf.scenario == scenario
        assert sf.eps_plus == 10.0 and sf.eps_minus == 8.0
        assert sf.sim == {"horizon": 1000.0, "output_dt": 1.0, "rtol": 1e-8,
                          "atol": 1e-10, "event_time_tol": 1e-9}

    @pytest.mark.parametrize("half", [{"eps_plus": 5.0}, {"eps_minus": 1.0}],
                             ids=["eps_plus_only", "eps_minus_only"])
    def test_half_a_pair_is_refused(self, scenario, half):
        # the text could not carry it: a dropped half would break the round trip
        with pytest.raises(ValueError, match="needs both eps_plus and eps_minus"):
            scenario_file_text(scenario, **half)

    def test_serialization_is_exact(self, tmp_path, scenario):
        # repr round-trip keeps every float bit-identical
        odd = dataclasses.replace(
            scenario,
            init=dataclasses.replace(scenario.init, S0=89950.0000001))
        sf = load_scenario_file(write(tmp_path, scenario_file_text(odd)))
        assert sf.scenario.init.S0 == 89950.0000001

    def test_sim_config_overrides(self, tmp_path, scenario):
        text = scenario_file_text(scenario, sim=SimConfig(horizon=250.0))
        sf = load_scenario_file(write(tmp_path, text))
        cfg = sf.sim_config()
        assert cfg.horizon == 250.0
        assert sf.sim_config(horizon=10.0).horizon == 10.0
        assert sf.sim_config(open_loop_u=1).open_loop_u == 1


class TestFileErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioFileError, match="cannot read"):
            load_scenario_file(tmp_path / "absent.ini")

    def test_missing_scenario_section(self, tmp_path):
        path = write(tmp_path, "[controller]\neps_plus = 1.0\neps_minus = 0.5\n")
        with pytest.raises(ScenarioFileError, match="missing required section"):
            load_scenario_file(path)

    def test_missing_key_named(self, tmp_path, scenario):
        text = scenario_file_text(scenario).replace("beta_A = 0.37\n", "")
        with pytest.raises(ScenarioFileError, match="beta_A"):
            load_scenario_file(write(tmp_path, text))

    def test_unknown_key_named(self, tmp_path, scenario):
        text = scenario_file_text(scenario) + "seed = 3\n"
        with pytest.raises(ScenarioFileError, match="unknown key 'seed'"):
            load_scenario_file(write(tmp_path, text))

    def test_unknown_section_named(self, tmp_path, scenario):
        text = scenario_file_text(scenario) + "\n[plotting]\ndpi = 300\n"
        with pytest.raises(ScenarioFileError, match="plotting"):
            load_scenario_file(write(tmp_path, text))

    @pytest.mark.parametrize("default, moved", [
        ("beta_A = 0.9", "beta_A = 0.37\n"), ("horizon = 5", ""),
    ], ids=["scenario_key", "sim_key"])
    def test_default_section_is_an_unknown_section(
        self, tmp_path, scenario, default, moved, capsys,
    ):
        # configparser would copy [DEFAULT] keys into every section: a scenario
        # key would load from it, and a [sim] key would be blamed on [scenario]
        text = scenario_file_text(scenario).replace(moved, "")
        path = write(tmp_path, f"[DEFAULT]\n{default}\n\n{text}")
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == "error: unknown section [DEFAULT]\n"

    def test_non_numeric_value(self, tmp_path, scenario):
        text = scenario_file_text(scenario).replace("p = 0.02", "p = two")
        with pytest.raises(ScenarioFileError, match="invalid number for key 'p'"):
            load_scenario_file(write(tmp_path, text))

    def test_out_of_range_value(self, tmp_path, scenario):
        text = scenario_file_text(scenario).replace("p = 0.02", "p = 1.5")
        with pytest.raises(ScenarioFileError, match="invalid scenario"):
            load_scenario_file(write(tmp_path, text))

    def test_infinite_value_is_usage_error(self, tmp_path, scenario, capsys):
        text = scenario_file_text(scenario).replace("S0 = 89950.0", "S0 = inf")
        assert main(["check", write(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid scenario: S0 must be finite, got inf\n"

    @pytest.mark.parametrize("command", ["check", "feasible", "simulate"])
    def test_infinite_population_is_usage_error(self, tmp_path, scenario, command, capsys):
        # S0 and R0 are each finite, but their sum overflows to inf
        text = scenario_file_text(scenario, 10.0, 8.0)
        text = text.replace("S0 = 89950.0", "S0 = 1e308").replace("R0 = 10000.0", "R0 = 1e308")
        assert main([command, write(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid scenario: total initial population must be finite\n"

    @pytest.mark.parametrize("text, line", [
        ("[scenario]\nbeta_A 0.3\n", 2),  # no delimiter: configparser prints two lines
        ("beta_A = 0.3\n", 1),  # no section header: three lines
        ("[scenario]\n[scenario]\n", 2),  # duplicate section: one line already
    ], ids=["no_delimiter", "no_section_header", "duplicate_section"])
    def test_syntax_error_is_one_line(self, tmp_path, text, line, capsys):
        path = write(tmp_path, text)
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert repr(path) in captured.err
        assert re.search(rf"\bline:? +{line}\b", captured.err)

    def test_partial_controller_section(self, tmp_path, scenario):
        text = scenario_file_text(scenario) + "\n[controller]\neps_plus = 10.0\n"
        with pytest.raises(ScenarioFileError, match="eps_minus"):
            load_scenario_file(write(tmp_path, text))

    def test_invalid_sim_section(self, tmp_path, scenario):
        text = scenario_file_text(scenario) + "\n[sim]\nrtol = 0.0\n"
        with pytest.raises(ScenarioFileError, match="rtol must be > 0"):
            load_scenario_file(write(tmp_path, text))

    @pytest.mark.parametrize("command", ["check", "constants", "dwell", "feasible", "robust"])
    def test_invalid_sim_section_is_usage_error(self, tmp_path, scenario, command, capsys):
        text = scenario_file_text(scenario, 10.0, 8.0) + "\n[sim]\nrtol = 0.0\n"
        assert main([command, write(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rtol must be > 0, got 0.0\n"

    @pytest.mark.parametrize("sim, message", [
        ("horizon = inf", "horizon must be finite and > 0, got inf"),
        ("output_dt = 5e-324",
         "run too long: max(horizon, horizon / output_dt) is above MAX_STEPS = 1000000, "
         "got horizon 1000.0, output_dt 5e-324"),
    ], ids=["inf_horizon", "subnormal_output_dt"])
    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--eps-minus-list", "8"]],
                             ids=["simulate", "sweep"])
    def test_non_finite_sample_grid_is_usage_error(
        self, tmp_path, scenario, sim, message, command, capsys,
    ):
        text = scenario_file_text(scenario, 10.0, 8.0) + f"\n[sim]\n{sim}\n"
        assert main([command[0], write(tmp_path, text), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


BUNDLED = str(bundled_scenario_path())


class TestCheckCommand:
    def test_passing_scenario(self, capsys):
        assert main(["check", BUNDLED]) == 0
        out = capsys.readouterr().out
        assert "Sigma membership: PASS" in out
        assert "Sigma_rob membership: PASS" in out
        assert "A2.4" in out and "A6.2" in out

    def test_failing_scenario(self, tmp_path, scenario, capsys):
        sc = dataclasses.replace(
            scenario, params=dataclasses.replace(scenario.params, p=0.0))
        path = write(tmp_path, scenario_file_text(sc))
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "A1.1     FAIL" in out
        assert "Sigma membership: FAIL" in out

    def test_underivable_scenario(self, tmp_path, scenario, capsys):
        sc = dataclasses.replace(
            scenario, params=dataclasses.replace(scenario.params, rho=1.0))
        path = write(tmp_path, scenario_file_text(sc))
        assert main(["check", path]) == 1
        assert "derivation failed" in capsys.readouterr().err

    def test_bad_file_is_usage_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.ini")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "constants"])
    def test_a_const_overflow_is_one_line(self, tmp_path, command, capsys):
        path = write(tmp_path, scenario_file_text(make_scenario(**A_CONST_OVERFLOW)))
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "A_const" in captured.err


class TestConstantsCommand:
    def test_prints_every_constant(self, capsys):
        assert main(["constants", BUNDLED]) == 0
        out = capsys.readouterr().out
        assert "M1 = 0.001737185882352929" in out
        assert "zeta = 49.0" in out
        assert "A3_bound_computed = 0.4653002484762887" in out
        assert "A3_bound_reference" not in out  # an unsourced figure, no longer printed
        assert "A3_satisfied = True" in out


class TestDwellCommand:
    def test_bundled_pair(self, capsys):
        assert main(["dwell", BUNDLED]) == 0
        out = capsys.readouterr().out
        assert "down_bound = 14.469189829363254" in out
        assert "up_bound = 6.066746259691092" in out
        assert "(no information)" not in out

    def test_uninformative_up_bound_labelled(self, capsys):
        assert main(["dwell", BUNDLED, "--ia-at-switch", "49"]) == 0
        assert "(no information)" in capsys.readouterr().out

    def test_needs_a_pair(self, plain_file, capsys):
        assert main(["dwell", plain_file]) == 2
        assert "eps_plus" in capsys.readouterr().err

    @pytest.mark.parametrize("ia", ["nan", "inf"])
    def test_non_finite_ia_at_switch_is_usage_error(self, ia, capsys):
        assert main(["dwell", BUNDLED, "--ia-at-switch", ia]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: IA_at_switch must be finite and >= 0, got {ia}\n"

    def test_underflowing_off_threshold_is_usage_error(self, capsys):
        # eps_minus**2 underflows to 0, so the up bound would divide by zero
        assert main(["dwell", BUNDLED, "--eps-plus", "10", "--eps-minus", "1e-200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: up_bound undefined")
        assert captured.err.count("\n") == 1

    # (30, 20) used to print a negative down_bound, (50, 8) a math domain error
    @pytest.mark.parametrize("eps_plus, eps_minus, on",
                             [("30", "20", "14.0"), ("50", "8", "-6.0")])
    def test_unordered_pair_is_usage_error(self, eps_plus, eps_minus, on, capsys):
        assert main(["dwell", BUNDLED, "--eps-plus", eps_plus, "--eps-minus", eps_minus]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: threshold ordering violated: off threshold "
                                f"{float(eps_minus)!r} must be < on threshold {on}\n")


class TestFeasibleCommand:
    def test_constructs_admissible_pair(self, capsys):
        assert main(["feasible", BUNDLED]) == 0
        out = capsys.readouterr().out
        assert "eps_plus = 28.414513289689637" in out
        assert "in_CZ = True" in out

    def test_infeasible_exit(self, tmp_path, scenario, capsys):
        sc = dataclasses.replace(
            scenario, capacity=dataclasses.replace(scenario.capacity, n_icu=0.4))
        path = write(tmp_path, scenario_file_text(sc))
        assert main(["feasible", path]) == 1
        assert "infeasible: A3" in capsys.readouterr().err

    # 2**63 used to wrap np.arange to an empty grid and report infeasible
    @pytest.mark.parametrize("grid", [10**12, 2**63])
    def test_grid_above_the_cap_is_usage_error(self, tmp_path, interior_scenario, grid, capsys):
        path = write(tmp_path, scenario_file_text(interior_scenario))
        assert main(["feasible", path, "--grid", str(grid)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: grid must have at least one point and at most "
                                f"MAX_GRID = 1000000 points, got {grid}\n")


class TestSimulateCommand:
    def test_open_loop_flag_defaults_to_zero(self, plain_file, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        events_csv = tmp_path / "events.csv"
        report_txt = tmp_path / "report.txt"
        rc = main(["simulate", plain_file, "--open-loop", "--horizon", "40",
                   "--out", str(out_csv), "--events-out", str(events_csv),
                   "--report-out", str(report_txt)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "switch_count = 0" in stdout
        assert report_txt.read_text(encoding="utf-8") == stdout
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,S,I_A,I_S,R,D,psi,u"
        assert len(lines) == 42  # header + t = 0..40
        assert lines[1].startswith("0.0,89950.0,49.0,1.0,10000.0,0.0,1.0,0")
        assert events_csv.read_text(encoding="utf-8") == "t,u_new\n"

    def test_closed_loop_with_flags(self, plain_file, capsys):
        rc = main(["simulate", plain_file, "--eps-plus", "10",
                   "--eps-minus", "8", "--horizon", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "switch_count = 1" in out
        assert "icu_bound_satisfied = True" in out

    def test_u_column_is_the_input_at_each_row(self, run8, cp8):
        # one walk of the input path gives u_at's right-continuous value per
        # row; the second run starts on the on threshold, so switches at t = 0
        at_zero, _ = simulate(make_scenario(IS0=34.0), cp8, SimConfig(horizon=60.0))
        assert at_zero.events[0].t == 0.0
        for traj in (run8[0], at_zero):
            rows = trajectory_csv_text(traj).splitlines()[1:]
            us = [int(row.rsplit(",", 1)[1]) for row in rows]
            assert us == [traj.u_at(s.t) for s in traj.samples]
            by_t = dict(zip((s.t for s in traj.samples), rows))
            for ev in traj.events:  # every event instant is a row, holding the new input
                assert by_t[ev.t].endswith(f",{ev.u_new}")

    def test_closed_loop_needs_thresholds(self, plain_file, capsys):
        assert main(["simulate", plain_file]) == 2
        assert "eps_plus" in capsys.readouterr().err

    def test_open_loop_ignores_the_pair(self, tmp_path, capsys):
        # I_S peaks at 36.2, above the (10, 8) pair's on threshold 34 and
        # below phi_plus 44, so a report that read the pair would differ
        sc = make_scenario(psi_bar=0.37)
        outs = []
        for text in (scenario_file_text(sc), scenario_file_text(sc, 10.0, 8.0)):
            assert main(["simulate", write(tmp_path, text), "--open-loop", "1"]) == 0
            outs.append(capsys.readouterr().out)
        assert "pandemic_over = True" in outs[0]
        assert outs[1] == outs[0]

    def test_infinite_horizon_is_usage_error(self, plain_file, capsys):
        assert main(["simulate", plain_file, "--open-loop", "--horizon", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: horizon must be finite and > 0, got inf\n"

    def test_open_loop_value_checked(self, plain_file, capsys):
        # SimConfig alone checks the value
        assert main(["simulate", plain_file, "--open-loop", "2"]) == 2
        assert "open_loop_u must be 0, 1 or None, got 2" in capsys.readouterr().err

    def test_overflowing_start_is_one_line(self, tmp_path, scenario, capsys):
        # scipy's first-step norm overflows on IA0 = 1e300
        text = scenario_file_text(scenario).replace("IA0 = 49.0", "IA0 = 1e300")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", write(tmp_path, text), "--horizon", "30",
                         "--eps-plus", "10", "--eps-minus", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: floating-point error after t = 0.0: overflow")
        assert captured.err.count("\n") == 1

    def test_bad_start_is_verdict_exit(self, tmp_path, scenario, capsys):
        sc = dataclasses.replace(
            scenario, init=dataclasses.replace(scenario.init, psi0=0.9))
        path = write(tmp_path, scenario_file_text(sc, eps_plus=10.0,
                                                  eps_minus=8.0))
        assert main(["simulate", path, "--horizon", "10"]) == 1
        assert "psi0" in capsys.readouterr().err


class TestRobustCommand:
    def test_bundled_pair_rejected(self, capsys):
        # the file's own (8, 10) pair fails A5: a verdict, not a usage error
        assert main(["robust", BUNDLED, "--samples", "4"]) == 1
        assert "not admissible" in capsys.readouterr().err

    def test_interior_scenario_passes(self, tmp_path, interior_scenario, capsys):
        path = write(tmp_path, scenario_file_text(interior_scenario))
        rc = main(["robust", path,
                   "--eps-plus", "37.40076481990164",
                   "--eps-minus", "3.2996175900491793",
                   "--delta", "1e-6", "--samples", "16", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pass_fraction = 1.0" in out
        assert "certified_delta = 1e-06" in out

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_is_usage_error(self, tmp_path, interior_scenario, delta, capsys):
        path = write(tmp_path, scenario_file_text(interior_scenario))
        assert main(["robust", path, "--delta", delta, "--samples", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: delta must be finite and >= 0, got {delta}\n"

    @pytest.mark.parametrize("samples", [10**12, 2**63])
    def test_samples_above_the_cap_is_usage_error(
        self, tmp_path, interior_scenario, samples, capsys
    ):
        path = write(tmp_path, scenario_file_text(interior_scenario))
        assert main(["robust", path, "--samples", str(samples)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: samples must be 1 to MAX_SAMPLES = 100000, got {samples}\n")

    def test_fallback_pair_has_slack(self, tmp_path, interior_scenario, capsys):
        # no [controller] section and default flags: the probe anchors on
        # the find_max_slack_eps pair, which keeps every sample at 1e-3
        path = write(tmp_path, scenario_file_text(interior_scenario))
        assert main(["robust", path]) == 0
        out = capsys.readouterr().out
        assert "eps_plus = 37.91140136740129" in out
        assert "pass_fraction = 1.0" in out

    @pytest.mark.parametrize("flag", [["--eps-plus", "5"], ["--eps-minus", "1"]],
                             ids=["eps_plus_only", "eps_minus_only"])
    def test_half_a_pair_is_usage_error(self, tmp_path, interior_scenario, flag, capsys):
        # the fallback pair stands in only when neither half is given
        path = write(tmp_path, scenario_file_text(interior_scenario))
        assert main(["robust", path, "--samples", "8", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: robust needs eps_plus and eps_minus")
        assert captured.err.count("\n") == 1


class TestSweepCommand:
    @pytest.fixture()
    def sweep_file(self, tmp_path, scenario):
        text = scenario_file_text(scenario, sim=SimConfig(horizon=60.0))
        return write(tmp_path, text, name="sweep.ini")

    def test_csv_output(self, sweep_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["sweep", sweep_file, "--eps-plus", "10",
                   "--eps-minus-list", "8,50", "--out", str(out)])
        assert rc == 1  # one row errored
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("eps_minus,D_max,switch_count,pandemic_end,"
                            "input_cost,max_IS,error")
        assert lines[1].startswith("8.0,")
        assert "ordering" in lines[2]

    def test_all_rows_clean(self, sweep_file, capsys):
        rc = main(["sweep", sweep_file, "--eps-plus", "10",
                   "--eps-minus-list", "8"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("eps_minus,")

    def test_bad_list_is_usage_error(self, sweep_file, capsys):
        assert main(["sweep", sweep_file, "--eps-plus", "10",
                     "--eps-minus-list", "8,x"]) == 2
        # a list of empty items holds no value
        assert main(["sweep", sweep_file, "--eps-plus", "10",
                     "--eps-minus-list", ","]) == 2
        assert capsys.readouterr().err.endswith(
            "error: --eps-minus-list must contain at least one value\n")

    def test_needs_eps_plus(self, sweep_file, capsys):
        assert main(["sweep", sweep_file, "--eps-minus-list", "8"]) == 2
        assert "eps_plus" in capsys.readouterr().err


class TestDeterminism:
    def test_stdout_byte_identical(self, capsys):
        for argv in (["constants", BUNDLED], ["check", BUNDLED],
                     ["dwell", BUNDLED]):
            main(argv)
            first = capsys.readouterr().out
            main(argv)
            assert capsys.readouterr().out == first


# Full stdout of each command, byte for byte: a change to a field name, a
# line order or a number format shows up here.
GOLDEN = {
    "constants": """\
N = 100000.0
phi_plus = 44.0
S_min = 1.5164527184462828e-15
beta_tilde = 0.3712
A_const = 0.354
B_const = 0.0086
zeta = 49.0
K_psi_bar = 0.9823529411764705
M1 = 0.001737185882352929
M2 = 0.00024197065882352938
M3 = 0.4653002484762887
mu = 0.477
psi_floor = 0.3045294117647059
alpha_S_eff = 0.1
A3_bound_computed = 0.4653002484762887
A3_satisfied = True
""",
    "check": """\
A1.1     PASS  p > 0  [lhs=0.02, rhs=0.0]
A1.2     PASS  rho < 1  [lhs=0.15, rhs=1.0]
A1.3     PASS  0 < alpha_A <= alpha_S/(1-rho)  [lhs=0.1, rhs=0.1]
A1.4     PASS  gamma_K < (1-rho)/(rho*alpha_A)  [lhs=1.0, rhs=56.666666666666664]
A1.5     PASS  M1 > 0  [lhs=0.001737185882352929, rhs=0.0]
A2.1     PASS  S0 > 0  [lhs=89950.0, rhs=0.0]
A2.2     PASS  R0 > 0  [lhs=10000.0, rhs=0.0]
A2.3     PASS  IS0 > 0  [lhs=1.0, rhs=0.0]
A2.4     PASS  IA0 >= (1-p)/p * IS0  [lhs=49.0, rhs=49.0]
A3       PASS  phi_plus > max{M2/M1, M3}  [lhs=44.0, rhs=0.4653002484762887]
A6.1     PASS  (1/M2 - (1-rho)/alpha_S) * (p*N*M1 - p*R0*M1 - M2) > 1  [lhs=12890.51719748017, rhs=1.0]
A6.2     PASS  p*N*M1*(zeta+1) > beta_A*zeta + beta_S  [lhs=173.7185882352929, rhs=18.56]
Sigma membership: PASS
Sigma_rob membership: PASS
""",
    "feasible": """\
eps_plus = 28.414513289689637
eps_minus = 7.7927433551551815
phi_plus = 44.0
in_CZ = True
""",
    "dwell": """\
down_bound = 14.469189829363254
up_bound = 6.066746259691092
""",
    "simulate": """\
D_max = 11.38793606713242
total_infected_proxy = 5876.593394761425
input_cost = 14.777301047545077
switch_count = 1
min_observed_dwell = inf
pandemic_end = 0.0
max_IS = 42.4057488481473
icu_bound_satisfied = True
pandemic_over = False
""",
    "robust": """\
eps_plus = 37.91140136740129
eps_minus = 3.044299316299355
delta = 0.001
samples = 256
pass_fraction = 1.0
certified_delta = 0.001
""",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_full_stdout_pinned(self, command, tmp_path, interior_scenario, capsys):
        if command == "robust":
            argv = ["robust", write(tmp_path, scenario_file_text(interior_scenario))]
        elif command == "simulate":
            argv = ["simulate", BUNDLED, "--horizon", "30", "--eps-plus", "10", "--eps-minus", "8"]
        else:
            argv = [command, BUNDLED]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == GOLDEN[command]
        assert captured.err == ""


class TestNoTraceback:
    EDGE_VALUES = (0.0, -1.0, 5e-324, 1e300, math.inf, math.nan)
    SIM_EDGE_VALUES = (0.0, -1.0, 5e-324, 1e300, math.inf, math.nan)
    COMMANDS = (["check"], ["constants"], ["dwell"], ["feasible", "--grid", "200"],
                ["robust", "--samples", "8"], ["simulate", "--horizon", "30"],
                ["simulate", "--open-loop", "1", "--horizon", "30"],
                ["sweep", "--eps-plus", "10", "--eps-minus-list", "8,5"])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_command_ends_in_an_exit_code(
        self, scenario, interior_scenario, tmp_path_factory, data,
    ):
        # the city or the interior scenario with one to three coordinates at
        # edge values, maybe a missing or an unknown key, maybe a pair
        values = data.draw(st.sampled_from([scenario, interior_scenario])).values()
        values.update(data.draw(st.dictionaries(
            st.sampled_from(SCENARIO_KEYS), st.sampled_from(self.EDGE_VALUES),
            min_size=1, max_size=3)))
        missing = data.draw(st.none() | st.sampled_from(SCENARIO_KEYS))
        lines = ["[scenario]"] + [f"{k} = {v!r}" for k, v in values.items() if k != missing]
        if data.draw(st.booleans(), label="unknown key"):
            lines.append("seed = 3")
        if data.draw(st.booleans(), label="pair"):
            lines += ["[controller]", "eps_plus = 10.0", "eps_minus = 8.0"]
        # a short horizon keeps sweep quick; maybe a sample-grid setting at an edge value
        sim = {"horizon": 30.0, **data.draw(st.dictionaries(
            st.sampled_from(["horizon", "output_dt"]), st.sampled_from(self.SIM_EDGE_VALUES),
            max_size=2), label="sim")}
        lines += ["[sim]"] + [f"{k} = {v!r}" for k, v in sim.items()]
        path = tmp_path_factory.getbasetemp() / "edge_values.ini"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assert_every_command_ends_in_an_exit_code(path)

    @pytest.mark.parametrize("output_dt", (None, *SIM_EDGE_VALUES))
    @pytest.mark.parametrize("horizon", (None, *SIM_EDGE_VALUES))
    def test_every_sample_grid_ends_in_an_exit_code(self, scenario, tmp_path, horizon, output_dt):
        # each [sim] horizon and output_dt pair, drawn above too, but too rarely to rely on
        sim = {"horizon": 30.0 if horizon is None else horizon, "output_dt": output_dt}
        text = scenario_file_text(scenario, 10.0, 8.0) + "\n[sim]\n" + "".join(
            f"{k} = {v!r}\n" for k, v in sim.items() if v is not None)
        self.assert_every_command_ends_in_an_exit_code(write(tmp_path, text))

    @pytest.mark.parametrize("value", SIM_EDGE_VALUES)
    @pytest.mark.parametrize("name", ["event_time_tol", "atol", "rtol"])
    def test_every_tolerance_ends_in_an_exit_code(self, scenario, tmp_path, name, value):
        text = scenario_file_text(scenario, 10.0, 8.0) + (
            f"\n[sim]\nhorizon = 30.0\n{name} = {value!r}\n")
        self.assert_every_command_ends_in_an_exit_code(write(tmp_path, text))

    @pytest.mark.parametrize("command", [
        ["simulate", "--horizon", "5", "--out"],
        ["simulate", "--horizon", "5", "--events-out"],
        ["simulate", "--horizon", "5", "--report-out"],
        ["sweep", "--eps-minus-list", "8", "--out"],
    ], ids=["simulate_out", "simulate_events_out", "simulate_report_out", "sweep_out"])
    def test_output_path_not_written_is_usage_error(self, tmp_path, command, capsys):
        target = str(tmp_path / "missing" / "out.txt")
        assert main([command[0], str(bundled_scenario_path()), *command[1:], target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert target in err

    def assert_every_command_ends_in_an_exit_code(self, path):
        for command in self.COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([command[0], str(path), *command[1:]])
            assert code in (0, 1, 2), command
            assert [str(w.message) for w in caught] == [], command
            if code != 0 and not out.getvalue():
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), command

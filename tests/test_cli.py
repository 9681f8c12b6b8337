"""Scenario-file round trips, error reporting, command exit codes."""

import dataclasses

import pytest

from icufunnel import SimConfig
from icufunnel.cli import (
    ScenarioFileError,
    bundled_scenario_path,
    load_scenario_file,
    main,
    scenario_file_text,
)


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

    def test_non_numeric_value(self, tmp_path, scenario):
        text = scenario_file_text(scenario).replace("p = 0.02", "p = two")
        with pytest.raises(ScenarioFileError, match="invalid number for key 'p'"):
            load_scenario_file(write(tmp_path, text))

    def test_out_of_range_value(self, tmp_path, scenario):
        text = scenario_file_text(scenario).replace("p = 0.02", "p = 1.5")
        with pytest.raises(ScenarioFileError, match="invalid scenario"):
            load_scenario_file(write(tmp_path, text))

    def test_partial_controller_section(self, tmp_path, scenario):
        text = scenario_file_text(scenario) + "\n[controller]\neps_plus = 10.0\n"
        with pytest.raises(ScenarioFileError, match="eps_minus"):
            load_scenario_file(write(tmp_path, text))


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


class TestConstantsCommand:
    def test_prints_every_constant(self, capsys):
        assert main(["constants", BUNDLED]) == 0
        out = capsys.readouterr().out
        assert "M1 = 0.001737185882352929" in out
        assert "zeta = 49.0" in out
        assert "A3_bound_computed = 0.4653002484762887" in out
        assert "A3_bound_reference = 23.9" in out
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

    def test_closed_loop_needs_thresholds(self, plain_file, capsys):
        assert main(["simulate", plain_file]) == 2
        assert "eps_plus" in capsys.readouterr().err

    def test_open_loop_value_checked(self, plain_file, capsys):
        assert main(["simulate", plain_file, "--open-loop", "2"]) == 2
        assert "--open-loop" in capsys.readouterr().err

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

    def test_fallback_pair_has_slack(self, tmp_path, interior_scenario, capsys):
        # no [controller] section and default flags: the probe anchors on
        # the find_max_slack_eps pair, which keeps every sample at 1e-3
        path = write(tmp_path, scenario_file_text(interior_scenario))
        assert main(["robust", path]) == 0
        out = capsys.readouterr().out
        assert "eps_plus = 37.91140136740129" in out
        assert "pass_fraction = 1.0" in out


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

"""Tests of the benchmark's own machinery: inputs, output checks, tracer."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import icufunnel.cli as cli  # noqa: E402
import icufunnel.constants as constants  # noqa: E402
import icufunnel.simulator as simulator  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.run import E2E_UNITS, LAYER_UNITS, tail  # noqa: E402
from perfbench.tracer import HOOKS, LEAF, NOT_OBSERVED, Tracer, layer_metrics  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_digest_follows_the_seed(name):
    same = workloads.digest(workloads.generate(name, 7))
    assert same == workloads.digest(workloads.generate(name, 7))
    assert same != workloads.digest(workloads.generate(name, 8))


def test_closed_loop_inputs_keep_the_reference_pairs_and_cover_the_ranges():
    inputs = workloads.generate("closed_loop", 3)
    assert inputs[:2] == [{"eps_plus": 10.0, "eps_minus": 8.0},
                          {"eps_plus": 10.0, "eps_minus": 20.0}]
    sweep = inputs[2:]
    assert len(sweep) == workloads.SWEEP_POINTS
    # one point per stratum in each coordinate
    cells = list(range(workloads.SWEEP_POINTS))
    assert sorted(int((p["eps_plus"] - 6.0) / 8.0 * len(cells)) for p in sweep) == cells
    assert sorted(int((p["eps_minus"] - 4.0) / 24.0 * len(cells)) for p in sweep) == cells


@pytest.fixture(scope="module")
def short_case():
    # the city with the (10, 8) pair over 300 days: a few switches, quick
    case = workloads.sim_cases("closed_loop", [{"eps_plus": 10.0, "eps_minus": 8.0}])[0]
    case.cfg = dataclasses.replace(case.cfg, horizon=300.0)
    case.check_times = workloads._integer_day_times(case.cfg)
    case.reference = workloads.reference_run(case.scenario, 300.0, case.check_times, cp=case.cp)
    return case


def _outputs(case, traj, report):
    """What one operation returns, for a given (possibly doctored) trajectory."""
    validation = simulator.validate_trajectory(traj, case.scenario, case.dc, case.cp)
    texts = (cli.trajectory_csv_text(traj), cli.events_csv_text(traj), cli.run_report_text(report))
    return traj, report, validation, texts


def test_classifier_accepts_the_simulator_output(short_case):
    result = workloads.sim_op(short_case)
    outcome = workloads.check_sim(short_case, result)
    assert outcome.failures == []
    assert len(result[0].events) >= 2
    assert outcome.event_t_err < 1e-5 and outcome.state_err_rel < 1e-7


def test_classifier_catches_hand_made_bad_trajectories(short_case):
    traj, report = workloads.sim_op(short_case)[:2]
    N = short_case.scenario.population()

    # one integer-day state moved by 1e-3 N, population kept
    k = 50
    s = traj.samples[k]
    moved = dataclasses.replace(s, S=s.S - 1e-3 * N, R=s.R + 1e-3 * N)
    bad = dataclasses.replace(traj, samples=traj.samples[:k] + (moved,) + traj.samples[k + 1:])
    failures = workloads.check_sim(short_case, _outputs(short_case, bad, report)).failures
    assert any("integer-day state" in f for f in failures)

    # a lost switch
    bad = dataclasses.replace(traj, events=traj.events[:-1])
    failures = workloads.check_sim(short_case, _outputs(short_case, bad, report)).failures
    assert any("event count" in f for f in failures)

    # a switch 0.01 days late
    last = traj.events[-1]
    late = dataclasses.replace(last, t=last.t + 0.01)
    bad = dataclasses.replace(traj, events=traj.events[:-1] + (late,))
    failures = workloads.check_sim(short_case, _outputs(short_case, bad, report)).failures
    assert any("event time" in f for f in failures)

    # a negative compartment fails validation check a
    s = traj.samples[k]
    negative = dataclasses.replace(s, I_A=-1.0, S=s.S + s.I_A + 1.0)
    bad = dataclasses.replace(traj, samples=traj.samples[:k] + (negative,) + traj.samples[k + 1:])
    failures = workloads.check_sim(short_case, _outputs(short_case, bad, report)).failures
    assert "validation check a failed" in failures


def test_reference_sees_a_brief_excursion_over_the_on_threshold():
    # with this pair I_S peaks at 37.775 on day 571, 0.047 over the on
    # threshold for about four days; DOP853 without a step cap steps over it
    pair = {"eps_plus": 6.271871124458889, "eps_minus": 6.939017429853136}
    case = workloads.sim_cases("closed_loop", [pair])[0]
    assert len(case.reference.events) == 14
    assert case.reference.events[12][1] == 1 and abs(case.reference.events[12][0] - 569.2066) < 1e-3
    assert workloads.check_sim(case, workloads.sim_op(case)).failures == []


def test_tracer_reports_missing_hook_and_unobserved_layers(short_case):
    missing = "icufunnel.simulator.no_such_function"
    tracer = Tracer(hooks=HOOKS + ((missing, "model.rhs", LEAF),))
    assert tracer.missing == [missing]

    original = simulator.solve_ivp
    sc = short_case.scenario
    with tracer:
        assert simulator.solve_ivp is not original
        constants.derive_constants(sc)
    assert simulator.solve_ivp is original

    values = layer_metrics(tracer, n_ops=1, horizon_days=0.0)
    assert values["constants.derive_calls"] == 1
    assert values["model.rhs_evals"] == NOT_OBSERVED
    assert values["simulator.phases"] == NOT_OBSERVED
    assert values["simulator.useful_days_frac"] == NOT_OBSERVED


def test_tracer_counts_match_the_solver(short_case):
    tracer = Tracer()
    with tracer, tracer.op(0, "short"):
        traj, _ = simulator.simulate(short_case.scenario, short_case.cp, short_case.cfg)
    values = layer_metrics(tracer, n_ops=1, horizon_days=300.0)
    assert values["simulator.phases"] == len(traj.events) + 1
    assert values["model.rhs_evals"] > values["simulator.solver_steps"] > 0
    assert 0.0 < values["simulator.useful_days_frac"] < 1.0
    names = [span[3] for span in tracer.spans]
    assert names[0] == "op:short"
    assert names.count("icufunnel.simulator.solve_ivp") == len(traj.events) + 1


def test_tail_has_ten_samples_beyond():
    xs = [float(i) for i in range(40)]
    value, pct = tail(xs)
    assert sum(x > value for x in xs) == 10 and pct == 75.0
    assert tail([3.0, 1.0]) == (3.0, 100.0)


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)

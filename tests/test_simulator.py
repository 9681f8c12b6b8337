"""Hybrid integration: event location, run summaries, path validation.

Trajectory-level numbers (switch counts, peaks, terminal tolls) are pinned
as ranges around values recomputed with an independent prototype, loose
enough to survive solver version drift.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from icufunnel import (
    ChatteringError,
    ControllerParams,
    PreconditionError,
    SimConfig,
    State,
    SwitchEvent,
    Trajectory,
    derivatives,
    input_cost,
    simulate,
    validate_trajectory,
)
from icufunnel import simulator
from icufunnel.simulator import MAX_STEP_DAYS
from test_model import make_scenario


class TestSimConfig:
    @pytest.mark.parametrize("kw", [
        dict(horizon=0.0),
        dict(output_dt=0.0),
        dict(horizon=10.0, output_dt=11.0),
        dict(rtol=0.0),
        dict(atol=-1e-9),
        dict(event_time_tol=0.0),
        dict(open_loop_u=2),
        dict(horizon=math.nan),
        dict(output_dt=math.nan),
    ])
    def test_rejects_bad_settings(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**kw)

    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.horizon == 1000.0 and cfg.rtol == 1e-8
        assert cfg.open_loop_u is None


class TestClosedLoopReference:
    def test_switch_count_and_alternation(self, run8):
        traj, rep, _ = run8
        assert rep.switch_count == 16
        assert [ev.u_new for ev in traj.events] == [1, 0] * 8

    def test_summary_anchors(self, run8):
        _, rep, _ = run8
        assert rep.max_IS == pytest.approx(42.4057488481, abs=0.05)
        assert rep.D_max == pytest.approx(203.2429788283, abs=0.5)
        assert rep.input_cost == pytest.approx(410.9390241120, abs=1.0)
        assert rep.pandemic_end == pytest.approx(590.9093104206, abs=1.0)
        assert rep.min_observed_dwell == pytest.approx(10.1918625941, abs=0.1)
        assert rep.total_infected_proxy == pytest.approx(67750.97, abs=50.0)
        assert rep.icu_bound_satisfied
        assert rep.pandemic_over

    def test_first_event(self, run8):
        traj, _, _ = run8
        assert traj.u0 == 0
        assert traj.events[0].t == pytest.approx(15.222699, abs=0.01)
        assert traj.events[0].u_new == 1

    def test_events_land_on_thresholds(self, run8, cp8):
        traj, _, _ = run8
        by_t = {s.t: s for s in traj.samples}
        for ev in traj.events:
            s = by_t[ev.t]  # the event instant is always sampled
            thr = cp8.on_threshold() if ev.u_new == 1 else cp8.off_threshold()
            assert abs(s.I_S - thr) < 1e-6
            # located on the crossed side of the guard
            if ev.u_new == 1:
                assert s.I_S >= thr
            else:
                assert s.I_S <= thr

    def test_sampling_grid(self, run8):
        traj, _, _ = run8
        ts = [s.t for s in traj.samples]
        assert ts[0] == 0.0 and ts[-1] == 1000.0
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert sum(1 for t in ts if float(t).is_integer()) == 1001

    def test_input_path(self, run8):
        traj, _, _ = run8
        t1 = traj.events[0].t
        assert traj.u_at(0.0) == 0
        assert traj.u_at(t1 - 1e-9) == 0
        assert traj.u_at(t1) == 1  # right-continuous at the switch
        assert traj.u_at(1000.0) == traj.events[-1].u_new

    def test_input_path_matches_event_scan(self, run8):
        traj, _, _ = run8

        def scan(t):  # reference: the last event at or before t sets the input
            return ([traj.u0] + [ev.u_new for ev in traj.events if ev.t <= t])[-1]

        times = [s.t for s in traj.samples] + [ev.t for ev in traj.events]
        times += [math.nextafter(t, -math.inf) for t in times]
        assert [traj.u_at(t) for t in times] == [scan(t) for t in times]

    def test_wider_pair_summary(self, run20):
        _, rep, _ = run20
        assert rep.switch_count == 24
        assert rep.D_max == pytest.approx(214.1058209014, abs=0.5)
        assert rep.input_cost == pytest.approx(286.4429188074, abs=1.0)
        assert rep.pandemic_end == pytest.approx(395.9188564021, abs=1.0)
        assert rep.icu_bound_satisfied and rep.pandemic_over

    def test_same_on_threshold_same_peak(self, run8, run20):
        # both pairs share the on threshold; the global peak sits in the
        # first intervention phase, before either off threshold cuts it
        _, r8, _ = run8
        _, r20, _ = run20
        assert r20.max_IS == pytest.approx(r8.max_IS, rel=1e-9)


class TestOpenLoop:
    def test_uncontrolled_outbreak(self, run_open0):
        traj, rep, _ = run_open0
        assert rep.switch_count == 0 and traj.events == ()
        assert rep.max_IS == pytest.approx(611.890483, abs=2.0)
        assert not rep.icu_bound_satisfied
        assert rep.input_cost == 0.0
        assert not rep.pandemic_over
        assert math.isinf(rep.min_observed_dwell)
        assert rep.pandemic_end == 0.0

    def test_permanent_intervention(self, scenario):
        _, rep = simulate(scenario, None, SimConfig(open_loop_u=1))
        assert rep.input_cost == 1000.0
        assert rep.max_IS < 44.0
        assert rep.icu_bound_satisfied

    def test_bypasses_start_set(self):
        # open-loop runs accept starts the closed loop must reject
        sc = make_scenario(D0=5.0, psi0=0.9)
        traj, rep = simulate(sc, None, SimConfig(open_loop_u=0, horizon=5.0))
        assert rep.switch_count == 0
        assert traj.samples[0].psi == 0.9

    def test_rows_match_scalar_dense_output(self, run_open0, scenario):
        # one phase: the same solve_ivp call, its dense output evaluated one
        # time at a time; the array call may differ only in rounding
        traj, _, _ = run_open0
        cfg = SimConfig(open_loop_u=0)
        pm, N = scenario.params, scenario.population()
        sol = solve_ivp(
            lambda t, y: derivatives(y[0], y[1], y[2], y[4], y[5], 0, pm, N),
            (0.0, cfg.horizon), np.array(traj.samples[0].as_tuple()), method="RK45",
            dense_output=True, rtol=cfg.rtol, atol=cfg.atol, max_step=MAX_STEP_DAYS,
        )
        for s in traj.samples[1:]:
            assert s.as_tuple() == pytest.approx(tuple(sol.sol(s.t)), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("horizon,output_dt,expected", [
        (10.5, 1.0, [float(k) for k in range(11)] + [10.5]),
        # 3 * 0.1 rounds past 0.3: that multiple is dropped, not extrapolated
        (0.3, 0.1, [0.0, 0.1, 0.2, 0.3]),
    ], ids=["10.5_by_1", "0.3_by_0.1"])
    def test_fractional_horizon_grid(self, horizon, output_dt, expected):
        sc = make_scenario()
        cfg = SimConfig(open_loop_u=1, horizon=horizon, output_dt=output_dt)
        traj, _ = simulate(sc, None, cfg)
        assert [s.t for s in traj.samples] == expected


class TestPreconditions:
    def test_unordered_pair(self, scenario):
        cp = ControllerParams(eps_plus=10.0, eps_minus=40.0, phi_plus=44.0)
        with pytest.raises(PreconditionError, match="ordering"):
            simulate(scenario, cp, SimConfig())

    def test_start_above_on_threshold(self, cp8):
        with pytest.raises(PreconditionError, match="exceeds"):
            simulate(make_scenario(IS0=35.0), cp8, SimConfig())

    def test_initial_deaths(self, cp8):
        with pytest.raises(PreconditionError, match="D0"):
            simulate(make_scenario(D0=1.0), cp8, SimConfig())

    def test_initial_response_level(self, cp8):
        with pytest.raises(PreconditionError, match="psi0"):
            simulate(make_scenario(psi0=0.9), cp8, SimConfig())

    def test_no_controller_no_open_loop(self, scenario):
        with pytest.raises(ValueError, match="closed-loop"):
            simulate(scenario, None, SimConfig())


class TestEventEdgeCases:
    def test_start_on_threshold_fires_at_zero(self, cp8):
        sc = make_scenario(IS0=34.0)
        traj, rep = simulate(sc, cp8, SimConfig(horizon=60.0))
        assert traj.events[0] == SwitchEvent(t=0.0, u_new=1)
        assert traj.u_at(0.0) == 1
        assert traj.u0 == 0

    def test_switch_budget_trips(self, scenario, cp8, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_SWITCHES", 2)
        with pytest.raises(ChatteringError, match="switches"):
            simulate(scenario, cp8, SimConfig())


class TestInputCost:
    def _traj(self):
        def at(t):
            return State(S=1.0, I_A=0.0, I_S=0.0, R=0.0, D=0.0, psi=1.0, t=t)
        events = (SwitchEvent(2.0, 1), SwitchEvent(5.0, 0), SwitchEvent(7.0, 1))
        return Trajectory(samples=(at(0.0), at(10.0)), events=events, u0=0)

    def test_piecewise_exact(self):
        traj = self._traj()
        assert input_cost(traj, 10.0) == 6.0
        assert input_cost(traj, 6.0) == 3.0   # off during [5, 6]
        assert input_cost(traj, 8.0) == 4.0   # one day into the second phase
        assert input_cost(traj, 2.0) == 0.0
        assert input_cost(traj, 0.0) == 0.0
        assert traj.horizon == 10.0

    def test_out_of_range(self):
        traj = self._traj()
        with pytest.raises(ValueError):
            input_cost(traj, 11.0)
        with pytest.raises(ValueError):
            input_cost(traj, -1.0)


class TestValidation:
    def test_reference_run_clean(self, run8, scenario, dc, cp8):
        traj, _, _ = run8
        rep = validate_trajectory(traj, scenario, dc, cp8)
        assert rep.all_ok
        assert [c.name for c in rep.checks] == list("abcdefgh")
        assert not rep.check("c").skipped
        assert not rep.check("g").skipped
        assert not rep.check("h").skipped

    def test_open_loop_skips_controller_checks(self, run_open0, scenario, dc):
        traj, _, _ = run_open0
        rep = validate_trajectory(traj, scenario, dc, None)
        assert rep.all_ok
        assert rep.check("g").skipped and rep.check("h").skipped

    def test_violations_detected(self, scenario, dc):
        bad = State(S=-1.0, I_A=0.0, I_S=0.0, R=0.0, D=0.0, psi=1.0, t=0.0)
        traj = Trajectory(samples=(bad,), events=(), u0=0)
        rep = validate_trajectory(traj, scenario, dc, None)
        assert not rep.all_ok
        failed = {c.name for c in rep.checks if not c.passed}
        assert failed == {"a", "b", "d"}  # negative, drifted, below S floor
        assert rep.check("a").worst == (0.0, 1.0)

    def test_exact_violations_c_to_g(self, dc):
        # p = 1/2 makes check c's ratio exactly 1; the replaced constants
        # give round magnitudes, and tol_compartment = 1 sits on two samples
        sc = make_scenario(p=0.5)
        dcx = dataclasses.replace(dc, S_min=0.0, zeta=3.0, psi_floor=0.5, phi_plus=44.0)
        cp = ControllerParams(eps_plus=10.0, eps_minus=8.0, phi_plus=44.0)
        total = sc.population()

        def at(t, I_A, I_S, psi):
            return State(S=total - I_A - I_S, I_A=I_A, I_S=I_S, R=0.0, D=0.0, psi=psi, t=t)

        samples = (
            at(0.0, 5.0, 2.0, 1.0),      # clean
            at(1.0, 2.0, 10.0, 1.0),     # c: 10 - 2
            at(2.0, 40.0, 4.0, 0.25),    # e: 40 - 12, f: 0.5 - 0.25
            at(2.5, 100.0, 46.0, 1.5),   # f: 1.5 - 1, g: 46 - 44
            at(3.0, 150.0, 44.0, 1.0),   # e: 150 - 132, g: on the bound
            at(4.0, 1.0, 2.0, 1.0),      # c defect equals the tolerance
            at(5.0, 7.0, 2.0, 1.0),      # e defect equals the tolerance
        )
        traj = Trajectory(samples=samples, events=(), u0=0)
        rep = validate_trajectory(traj, sc, dcx, cp, tol_compartment=1.0)
        assert [c.name for c in rep.checks if not c.passed] == list("cefg")
        assert rep.check("c").violations == ((1.0, 8.0),)
        assert rep.check("e").violations == ((2.0, 28.0), (3.0, 18.0))
        assert rep.check("f").violations == ((2.0, 0.25), (2.5, 0.5))
        assert rep.check("g").violations == ((2.5, 2.0), (3.0, 0.0))
        assert rep.check("e").worst == (2.0, 28.0)
        assert all(type(x) is float for c in rep.checks for tv in c.violations for x in tv)
        assert not any(c.skipped for c in rep.checks)

    def test_dwell_check_with_tiny_off_threshold(self, scenario, dc):
        # eps_minus**2 underflows to zero, where the up-dwell bound divides
        # by zero; check h needs only the down bound and still reports
        cp = ControllerParams(eps_plus=10.0, eps_minus=1e-200, phi_plus=44.0)
        ok = State(S=89950.0, I_A=49.0, I_S=1.0, R=10000.0, D=0.0, psi=1.0, t=0.0)
        traj = Trajectory(samples=(ok, dataclasses.replace(ok, t=3.0)),
                          events=(SwitchEvent(1.0, 1), SwitchEvent(2.0, 0)), u0=0)
        rep = validate_trajectory(traj, scenario, dc, cp)
        down = math.log(34.0 / 1e-200) / dc.alpha_S_eff
        assert rep.check("h").violations == ((1.0, down - 1.0),)

    def test_masks_match_loop_reference(self, run8, scenario, dc, cp8):
        # zero tolerances and a lowered capacity make checks a-g fire on
        # the reference run; the masks must equal a per-sample loop exactly
        traj, _, _ = run8
        low = dataclasses.replace(dc, phi_plus=30.0)
        rep = validate_trajectory(traj, scenario, low, cp8, tol_compartment=0.0, tol_psi=0.0)
        pm, total = scenario.params, scenario.population()
        expected = {name: [] for name in "abcdefg"}
        for s in traj.samples:
            defects = {
                "a": -min(s.S, s.I_A, s.I_S, s.R, s.D),
                "b": abs(s.S + s.I_A + s.I_S + s.R + s.D - total),
                "c": (1.0 - pm.p) / pm.p * s.I_S - s.I_A,
                "d": low.S_min - s.S,
                "e": s.I_A - low.zeta * s.I_S,
                "f": max(low.psi_floor - s.psi, s.psi - 1.0),
            }
            for name, defect in defects.items():
                if defect > 0.0:
                    expected[name].append((s.t, defect))
            if s.I_S >= low.phi_plus:
                expected["g"].append((s.t, s.I_S - low.phi_plus))
        for name, violations in expected.items():
            assert rep.check(name).violations == tuple(violations), name
        assert all(expected[name] for name in "bceg")

    def test_tolerance_override(self, scenario, dc):
        bad = State(S=-1.0, I_A=0.0, I_S=0.0, R=0.0, D=0.0, psi=1.0, t=0.0)
        traj = Trajectory(samples=(bad,), events=(), u0=0)
        rep = validate_trajectory(traj, scenario, dc, None, tol_compartment=2.0)
        assert rep.check("a").passed  # inside the widened tolerance
        assert not rep.check("b").passed  # conservation is off by ~N

    def test_unknown_check_name(self, run_open0, scenario, dc):
        traj, _, _ = run_open0
        rep = validate_trajectory(traj, scenario, dc, None)
        with pytest.raises(KeyError):
            rep.check("z")

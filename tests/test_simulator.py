"""Hybrid integration: event location, run summaries, path validation.

Trajectory-level numbers (switch counts, peaks, terminal tolls) are pinned
as ranges around values recomputed with an independent prototype, loose
enough to survive solver version drift.
"""

import dataclasses
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45, solve_ivp

from icufunnel import (
    ControllerParams,
    IntegrationError,
    PreconditionError,
    Scenario,
    SimConfig,
    State,
    SwitchEvent,
    Trajectory,
    control_update,
    derivatives,
    derive_constants,
    input_cost,
    simulate,
    validate_trajectory,
)
from icufunnel import simulator
from icufunnel.controller import _bisect
from icufunnel.cli import events_csv_text, run_report_text, trajectory_csv_text
from icufunnel.model import _RANGES
from icufunnel.simulator import MAX_STEPS
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

    @pytest.mark.parametrize("kw, message", [
        (dict(horizon=math.inf), "horizon must be finite and > 0, got inf"),
        # horizon / output_dt overflows to inf, which passes MAX_STEPS too
        (dict(output_dt=5e-324), "run too long: max(horizon, horizon / output_dt) is above "
                                 "MAX_STEPS = 1000000, got horizon 1000.0, output_dt 5e-324"),
        (dict(horizon=math.inf, output_dt=math.inf), "horizon must be finite"),
    ], ids=["inf_horizon", "subnormal_output_dt", "inf_both"])
    def test_rejects_a_non_finite_sample_grid(self, kw, message):
        # the sample grid has horizon / output_dt rows, which must be a finite count
        with pytest.raises(ValueError, match=re.escape(message)):
            SimConfig(**kw)

    @pytest.mark.parametrize("kw", [
        dict(horizon=1e300),
        dict(horizon=2.0 * MAX_STEPS, output_dt=2.0 * MAX_STEPS),
        dict(horizon=1000.0, output_dt=1000.0 / (2.0 * MAX_STEPS)),
    ], ids=["huge_horizon", "huge_horizon_one_row", "tiny_output_dt"])
    def test_rejects_a_run_that_never_finishes(self, kw):
        # more than MAX_STEPS grid rows or days
        with pytest.raises(ValueError, match=re.escape(
                f"run too long: max(horizon, horizon / output_dt) is above "
                f"MAX_STEPS = {MAX_STEPS}, got horizon {kw['horizon']!r}")):
            SimConfig(**kw)

    @pytest.mark.parametrize("rtol", [1e-20, 5e-324])
    def test_rejects_rtol_below_the_solver_floor(self, rtol):
        # below 100 * eps scipy would raise rtol to the floor with a warning
        with pytest.raises(ValueError, match=re.escape(
                f"rtol must be >= 100 * machine epsilon = 2.220446049250313e-14, got {rtol!r}")):
            SimConfig(rtol=rtol)

    def test_accepts_rtol_at_the_solver_floor(self):
        SimConfig(rtol=2.220446049250313e-14)  # 100 * machine epsilon

    def test_accepts_a_run_at_the_step_cap(self):
        SimConfig(horizon=MAX_STEPS)
        SimConfig(horizon=1000.0, output_dt=1000.0 / MAX_STEPS)

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

    def test_pair_is_not_read(self, cp8):
        # with psi_bar 0.37, I_S peaks between the pair's on threshold (34)
        # and phi_plus (44): pandemic_over is judged against phi_plus
        sc = make_scenario(psi_bar=0.37)
        cfg = SimConfig(open_loop_u=1)
        _, with_pair = simulate(sc, cp8, cfg)
        _, without = simulate(sc, None, cfg)
        assert cp8.on_threshold() < without.max_IS < sc.capacity.phi_plus()
        assert without.pandemic_over
        assert with_pair == without

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
            dense_output=True, rtol=cfg.rtol, atol=cfg.atol,
        )
        loose = 0  # values off by more than 1e-15 of themselves
        for s in traj.samples[1:]:
            got, ref = np.array(s.as_tuple()), sol.sol(s.t)
            off = np.abs(got - ref) > 1e-15 * np.abs(ref)
            if not off.any():
                continue
            # Late in the run I_A and I_S fall far below atol and below the
            # interpolant's terms that sum to them, so there the rounding is
            # relative to those terms. The step is the one OdeSolution picks:
            # a time on a knot goes to the step ending there.
            assert not off[[0, 3, 4, 5]].any() and (np.abs(ref[off]) < 10 * cfg.atol).all()
            step = sol.sol.interpolants[max(np.searchsorted(sol.t, s.t) - 1, 0)]
            x = (s.t - step.t_old) / step.h
            terms = step.h * np.abs(step.Q) @ (x ** np.arange(1, 5)) + np.abs(step.y_old)
            assert (np.abs(got - ref)[off] <= 1e-15 * terms[off]).all()
            loose += int(off.sum())
        assert loose <= 463  # of the 6,000 values, all after day 400

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


@pytest.fixture
def solves(monkeypatch):
    """Every simulator.solve_ivp call of simulate, as (fun, t_span, y0, keywords, result)."""
    calls = []
    original = simulator.solve_ivp

    def spy(fun, t_span, y0, **kw):
        sol = original(fun, t_span, y0, **kw)
        calls.append((fun, t_span, np.array(y0), kw, sol))
        return sol

    monkeypatch.setattr(simulator, "solve_ivp", spy)
    return calls


class TestPhaseSolves:
    """Each phase is one solve that stops at the first step on which its guard fires."""

    def test_closed_loop_phase_ends_at_first_guard_knot(self, solves, scenario, cp8,
                                                        monkeypatch):
        switched = {}  # the start of each step: where _switch_time put its switch, or None
        switch_time = simulator._switch_time

        def spy(dense, *args):
            switched[float(dense.t_old)] = switch_time(dense, *args)
            return switched[float(dense.t_old)]

        monkeypatch.setattr(simulator, "_switch_time", spy)
        traj, _ = simulate(scenario, cp8, SimConfig())
        assert len(solves) == len(traj.events) + 1
        u = traj.u0
        for k, (_, t_span, _, _, sol) in enumerate(solves):
            fired = [switched[t] is not None for t in sol.t[:-1].tolist()]
            # a knot where the relay leaves mode u always fires its step
            assert all(f for v, f in zip(sol.y[2][1:], fired) if control_update(v, u, cp8) != u)
            if k < len(traj.events):
                ev = traj.events[k]
                # no earlier step fires; the last step's switch is the event
                assert fired.index(True) == len(fired) - 1
                assert ev.t == switched[sol.t[-2].item()]
                assert sol.t[-2] <= ev.t <= sol.t[-1]
                u = ev.u_new
            else:
                assert t_span == (traj.events[-1].t, 1000.0)
                assert not any(fired) and sol.t[-1] == 1000.0

    def test_phase_knots_are_a_prefix_of_a_solve_to_the_horizon(self, solves, scenario, cp8):
        simulate(scenario, cp8, SimConfig())
        for fun, t_span, y0, kw, sol in solves:
            assert t_span[1] == 1000.0
            plain_kw = {k: v for k, v in kw.items() if k != "guard"}
            plain = solve_ivp(fun, t_span, y0, method="RK45", **plain_kw)
            n = len(sol.t)
            assert np.array_equal(sol.t, plain.t[:n])
            assert np.array_equal(sol.y, plain.y[:, :n])

    def test_open_loop_is_one_solve_to_the_horizon(self, solves, scenario):
        simulate(scenario, None, SimConfig(open_loop_u=0))
        assert len(solves) == 1
        _, t_span, _, _, sol = solves[0]
        assert t_span == (0.0, 1000.0) and sol.t[-1] == 1000.0


# Sixteen (eps_plus, eps_minus) pairs for the city, one in each sixteenth of
# eps_plus in [6, 14] and of eps_minus in [4, 28].
_SWEEP_PAIRS = [
    (6.255910812350129, 5.701062545870747),
    (6.975231848162967, 13.604669479670694),
    (7.072079806359817, 20.805182861014224),
    (7.974324723568622, 4.393470010662774),
    (8.155915726005244, 12.625547008945079),
    (8.711663224486287, 19.42061313697906),
    (9.41385129691022, 27.227786461647455),
    (9.70459956818458, 11.471105799701856),
    (10.27479684383653, 18.94248579049568),
    (10.513779556621534, 26.0871849111603),
    (11.376756554337403, 9.311840283321152),
    (11.76907165660964, 16.415336806068055),
    (12.164865858249545, 23.74097801316269),
    (12.894214351714202, 8.454888119824199),
    (13.151597414645822, 15.274102878321818),
    (13.726748944740326, 22.173798418706156),
]

# The city with 1,000 times its ICU beds: phi_plus is 44,000, far above the
# open-loop peak, and an on threshold of 611.758 lies above every solver knot
# of the u = 0 run (the largest is 611.59) but below its interpolant's peak
# (611.925 near day 36.10), so the switch-on lies inside one step.
_INSIDE_ONE_STEP = dict(n_icu=40_000.0, on=611.758, eps_minus=1.0)


def _relay_run(n_icu, on, eps_minus):
    """The city with n_icu beds under the pair (on, eps_minus), at [sim] defaults."""
    sc = make_scenario(n_icu=n_icu)
    phi_plus = sc.capacity.phi_plus()
    cp = ControllerParams(eps_plus=phi_plus - on, eps_minus=eps_minus, phi_plus=phi_plus)
    return simulate(sc, cp, SimConfig())[0], cp


def _poly_step(t_old, h, y0, amp, sign, roots, n):
    """A hand-made _Step: only I_S moves, along y0 + h * P(x) for x in [0, 1].

    P(0) = 0, the slope of P is sign * prod(x - r / n for r in roots), and
    P is scaled so that |h * P| reaches amp * y0 at most on the n-point grid.
    A root may be complex when its conjugate is a root too.
    """
    dq = sign * np.atleast_1d(np.poly(np.asarray(roots) / n))[::-1]  # lowest power first
    a = np.zeros(4)
    a[:len(dq)] = dq / np.arange(1, len(dq) + 1)
    x = np.arange(n + 1) / n
    a *= amp * y0 / (h * np.abs(np.polyval(np.append(a[::-1], 0.0), x)).max())
    Q = np.zeros((6, 4))
    Q[2] = a
    return simulator._Step(t_old, h, np.array([0.0, 0.0, y0, 0.0, 0.0, 0.0]), Q)


def _armed(u, threshold):
    """Controller parameters whose threshold armed in mode u is about threshold."""
    if u == 0:
        return ControllerParams(eps_plus=1.0, eps_minus=1.0, phi_plus=threshold + 1.0)
    return ControllerParams(eps_plus=1.0, eps_minus=threshold, phi_plus=threshold + 2.0)


class TestInStepGuard:
    """The armed guard is tested on each step's whole interpolant, not only at its knots."""

    def test_switch_on_inside_one_step(self):
        traj, _ = _relay_run(**_INSIDE_ONE_STEP)
        assert traj.events[0].u_new == 1
        assert traj.events[0].t < 36.1

    @pytest.mark.parametrize("n_icu, on, eps_minus", [
        *((40.0, 44.0 - ep, em) for ep, em in _SWEEP_PAIRS),
        tuple(_INSIDE_ONE_STEP.values()),
    ], ids=[*(f"sweep{k}" for k in range(len(_SWEEP_PAIRS))), "inside_one_step"])
    def test_relay_rule_holds_inside_every_piece(self, n_icu, on, eps_minus):
        # relaxed below the on threshold, intervening above the off threshold,
        # at every sample strictly between two switches
        traj, cp = _relay_run(n_icu, on, eps_minus)
        t, I_S = traj.samples.t, traj.samples.y[2]
        for start, end, u in traj._phases():
            inside = I_S[(start < t) & (t < end)]
            if u == 0:
                assert (inside < cp.on_threshold()).all(), (start, end)
            else:
                assert (inside > cp.off_threshold()).all(), (start, end)

    def test_knot_step_that_crosses_twice_is_bracketed_at_its_first_crossing(self):
        # I_S peaks at x = 0.3 (41.98), dips to x = 0.6 (41.66) and ends at
        # the knot on 44: with the on threshold 41.8 it crosses near x = 0.2,
        # falls back below near x = 0.45 and crosses again near x = 0.7
        step = _poly_step(10.0, 5.0, 40.0, 0.1, -1.0, [3, 6, 20], 10)
        cp = ControllerParams(eps_plus=2.2, eps_minus=1.0, phi_plus=44.0)

        def fires(t):
            return control_update(float(simulator._dense_at(step, t)[2]), 0, cp) != 0

        assert fires(15.0) and not fires(12.5)
        assert simulator._extrema(step) == pytest.approx([11.5, 13.0], abs=1e-9)
        assert simulator._switch_time(step, 15.0, simulator._dense_at(step, 15.0), 0, cp,
                                      1e-9) < 11.5
        assert _bisect(10.0, 15.0, fires, 1e-9)[1] > 12.5  # the whole step: the later crossing

    def test_extrema_drop_a_complex_pair_inside_the_step(self):
        # the slope roots of the (10, 20) city run's step from t = 234.27...: a
        # complex pair 0.74 +- 60.6i, whose real part lies inside the step, and
        # -28.26; I_S is monotone there, so the step has no extremum
        step = _poly_step(234.2748777885634, 0.3783955781377415, 20.0, 0.01, -1.0,
                          [0.74 + 60.6j, 0.74 - 60.6j, -28.26], 1)
        a1, a2, a3, a4 = step.Q[2].tolist()
        roots = np.roots((4 * a4, 3 * a3, 2 * a2, a1))
        assert sum(r.imag != 0.0 and 0.0 < r.real < 1.0 for r in roots.tolist()) == 2
        assert simulator._extrema(step) == []

    @pytest.mark.parametrize("pair", ["cp8", "cp20"])
    def test_filters_only_skip_work_on_the_reference_runs(self, request, monkeypatch, scenario,
                                                          pair):
        # every step of the run, against the filter-free switch: the first
        # extremum where the relay leaves u, else the knot if it fires, then
        # the bisection from the step's start
        cp = request.getfixturevalue(pair)
        switch_time = simulator._switch_time
        calls = []

        def spy(*args):
            calls.append((args, switch_time(*args)))
            return calls[-1][1]

        monkeypatch.setattr(simulator, "_switch_time", spy)
        simulate(scenario, cp, SimConfig())
        assert len(calls) > 1000
        for (step, t_new, y_new, u, _, tol), t_sw in calls:
            def fires(t):
                return control_update(float(simulator._dense_at(step, t)[2]), u, cp) != u

            at_knot = control_update(y_new.item(2), u, cp) != u
            end = next((t for t in simulator._extrema(step) if fires(t)),
                       t_new if at_knot else None)
            t_old = float(step.t_old)
            assert t_sw == (None if end is None else _bisect(t_old, end, fires, tol)[1]), t_old

    # Monotone steps whose armed threshold is _dense_at's I_S at the first
    # bisection midpoint; there the Horner form of the same polynomial rounds
    # to the other side of it, so only the exact evaluation decides that midpoint.
    @pytest.mark.parametrize("t_old, h, y0, u", [(78.5, 3.0, 90.0, 0), (67.0, 7.0, 92.0, 1)],
                             ids=["rising_u0", "falling_u1"])
    def test_threshold_at_a_midpoint_is_decided_by_the_exact_value(self, t_old, h, y0, u):
        step = _poly_step(t_old, h, y0, 0.1, 1.0 if u == 0 else -1.0, [-5, 15, 30], 10)
        t_new = t_old + h
        mid = 0.5 * (t_old + t_new)  # _bisect's first midpoint
        level = float(simulator._dense_at(step, mid)[2])
        cp = (ControllerParams(eps_plus=4.0, eps_minus=1.0, phi_plus=level + 4.0) if u == 0
              else ControllerParams(eps_plus=1.0, eps_minus=level, phi_plus=200.0))
        assert (cp.on_threshold() if u == 0 else cp.off_threshold()) == level
        a1, a2, a3, a4 = step.Q[2].tolist()
        x = (mid - t_old) / h
        horner = y0 + h * (x * (a1 + x * (a2 + x * (a3 + x * a4))))
        assert (horner < level) if u == 0 else (horner > level)

        def fires(t):
            return control_update(float(simulator._dense_at(step, t)[2]), u, cp) != u

        dense_at = simulator._dense_at
        exact = []

        def spy(dense, t):
            exact.append(t)
            return dense_at(dense, t)

        with mock.patch.object(simulator, "_dense_at", spy):
            t_sw = simulator._switch_time(step, t_new, dense_at(step, t_new), u, cp, 1e-9)
        assert mid in exact
        assert t_sw == _bisect(t_old, t_new, fires, 1e-9)[1] == mid

    # Hand-made steps whose slope has its roots on the points of the test
    # grid (or outside [0, 1]), so the grid holds every extremum of I_S up
    # to rounding; the I_S terms are scaled to amp * y0 at most. The
    # threshold lies near the extremum the relay is armed for, or near the
    # value at one grid point.
    @settings(max_examples=300, deadline=None)
    # flat at the start (a double root at x = 0), where the grid reaches
    # the threshold only by rounding: the size bound must not clear it
    @example(t_old=9.0, h=23.220452752825675, y0=1.0, amp=0.5, sign=-1.0, roots=[0, 0, -32],
             u=1, level=None, offset=0.0)
    @given(t_old=st.floats(0.0, 1000.0), h=st.floats(1e-3, 50.0), y0=st.floats(1.0, 1e4),
           amp=st.floats(1e-6, 0.9), sign=st.sampled_from([-1.0, 1.0]),
           roots=st.lists(st.integers(-2000, 12000), max_size=3), u=st.sampled_from([0, 1]),
           level=st.one_of(st.none(), st.integers(0, 9_999)),
           offset=st.one_of(st.integers(-40, 40).map(lambda j: j * 2.0**-52),
                            st.floats(-0.05, 0.05)))
    def test_fires_exactly_when_the_interpolant_reaches_the_threshold(
            self, t_old, h, y0, amp, sign, roots, u, level, offset):
        n = 10_000
        step = _poly_step(t_old, h, y0, amp, sign, roots, n)
        ts = t_old + h * (np.arange(1, n + 1) / n)
        grid = simulator._dense_rows([step], np.array([t_old, t_old + h]), ts)[2]
        scale = y0 + h * np.abs(step.Q[2]).sum()
        anchor = (grid.max() if u == 0 else grid.min()) if level is None else grid[level]
        assume(anchor + offset * scale > 0.0)
        cp = _armed(u, anchor + offset * scale)

        def fires(t):
            return control_update(float(simulator._dense_at(step, t)[2]), u, cp) != u

        assume(not fires(t_old))  # in a run, a step starts where its guard does not fire
        threshold = cp.on_threshold() if u == 0 else cp.off_threshold()
        past = grid - threshold if u == 0 else threshold - grid  # > 0: the grid point reaches it
        margin = 8 * sys.float_info.epsilon * scale
        extrema = simulator._extrema
        solved = []

        def spy(*args):
            solved.append(extrema(*args))
            return solved[-1]

        at_knot = fires(ts[-1])
        with mock.patch.object(simulator, "_extrema", spy):
            t_sw = simulator._switch_time(step, ts[-1], simulator._dense_at(step, ts[-1]), u, cp,
                                          0.0)
        if past.max() > margin:
            assert t_sw is not None
        if t_sw is not None:
            assert past.max() >= -margin
        # the filters drop no step that may need the root solve
        if not at_knot and past.max() >= 0.0:
            assert solved
        slope = np.diff(grid)
        if at_knot and slope.max() > margin and slope.min() < -margin:
            assert solved
        # ... and only skip work: the same switch without them
        end = next((t for t in extrema(step) if fires(t)), ts[-1] if at_knot else None)
        assert t_sw == (None if end is None else _bisect(t_old, end, fires, 0.0)[1])
        if t_sw is not None:
            # the bracket holds one crossing: the bisection ends no later
            # than the first grid point clearly past the threshold
            assert t_old < t_sw <= ts[-1]
            assert fires(t_sw)
            if past.max() > margin:
                assert t_sw <= ts[np.argmax(past > margin)]


class TestOutputTypes:
    @pytest.mark.parametrize("run", ["run8", "run_open0", "inside_one_step"])
    def test_event_times_and_report_floats_are_python_floats(self, request, run):
        # a numpy scalar would print differently in the CSV and report texts
        if run == "inside_one_step":
            sc = make_scenario(n_icu=_INSIDE_ONE_STEP["n_icu"])
            phi_plus = sc.capacity.phi_plus()
            cp = ControllerParams(eps_plus=phi_plus - _INSIDE_ONE_STEP["on"],
                                  eps_minus=_INSIDE_ONE_STEP["eps_minus"], phi_plus=phi_plus)
            traj, rep = simulate(sc, cp, SimConfig())
        else:
            traj, rep, _ = request.getfixturevalue(run)
        floats = [getattr(rep, f.name) for f in dataclasses.fields(rep) if f.type == "float"]
        assert len(floats) == 6
        assert traj.events or run == "run_open0"
        assert all(type(x) is float for x in [*floats, *(ev.t for ev in traj.events)])


class TestDenseOutput:
    """Rows and event times are bit for bit those of scipy's own dense output.

    Each phase is solved again by plain RK45 with dense_output=True; its
    knots extend the phase's (TestPhaseSolves), so its OdeSolution holds the
    same step interpolants up to the phase's end.
    """

    @pytest.mark.parametrize("closed_loop", [True, False], ids=["city_cp8", "open_loop_dt0.1"])
    def test_rows_and_events_equal_ode_solution(self, solves, scenario, cp8, closed_loop):
        cfg = SimConfig() if closed_loop else SimConfig(open_loop_u=0, output_dt=0.1)
        cp = cp8 if closed_loop else None
        traj, _ = simulate(scenario, cp, cfg)
        event_ts = [ev.t for ev in traj.events]
        for fun, t_span, y0, kw, sol in solves:
            plain_kw = {k: v for k, v in kw.items() if k != "guard"}
            dense = solve_ivp(fun, t_span, y0, method="RK45", dense_output=True, **plain_kw).sol
            t_end = min((t for t in event_ts if t > t_span[0]), default=cfg.horizon)
            inside = [s for s in traj.samples if t_span[0] < s.t < t_end]
            if inside:
                got = np.array([s.as_tuple() for s in inside]).T
                assert (got == dense(np.array([s.t for s in inside]))).all()
            (closing,) = [s for s in traj.samples if s.t == t_end]
            assert closing.as_tuple() == tuple(dense(t_end).tolist())
            if t_end in event_ts:
                # the bisection simulate ran before, one scipy call per midpoint;
                # the scalar evaluator gives the same state at each
                u = traj.u_at(t_span[0])
                last_step = dense.interpolants[len(sol.t) - 2]
                a, b = float(sol.t[-2]), float(sol.t[-1])
                while b - a > cfg.event_time_tol:
                    m = 0.5 * (a + b)
                    y_m = dense(m)
                    assert simulator._dense_at(last_step, m).tolist() == y_m.tolist()
                    if control_update(y_m[2], u, cp) != u:
                        b = m
                    else:
                        a = m
                assert t_end == b
        assert len(solves) == len(traj.events) + 1


# Each coordinate of the dynamics and the start over its model._RANGES range,
# except two ends: rho stops at 0.9, since alpha_S / (1 - rho) grows without
# bound as rho nears 1 and RK45 crawls through the stiff system, and the
# compartments, which have no upper end, stop at 1e5.
_START_AND_RATES = st.fixed_dictionaries({
    k: st.floats(lo, 0.9 if k == "rho" else 1e5 if hi is None else hi)
    for k, (lo, hi) in _RANGES.items() if k not in ("n_icu", "xi")
})


# A random draw over model._RANGES whose 264th attempted step overshoots:
# its error norm, 1,883.5, passes (SAFETY / MIN_FACTOR)**5, about 1,845, so
# the MIN_FACTOR clamp cuts it.
_CLAMPED = dict(
    beta_A=0.770684798983071, beta_S=0.10898555213649419, alpha_A=0.9459307675537619,
    alpha_S=0.6745707526164916, p=0.06249576206556828, rho=0.7536927938931154,
    gamma_0=0.9719037368942256, gamma_1=0.8377476422704673, psi_bar=0.009784879294458815,
    gamma_K=0.4730889081790549, S0=58917.377395941985, IA0=88799.86937026282,
    IS0=50276.04854148191, R0=7732.381538240052, D0=93352.5505036036,
    psi0=0.9517357978163641)


class TestStepReplica:
    """simulator.solve_ivp takes plain RK45's steps, bit for bit.

    With a guard that never fires, a solve must give scipy's knots, states,
    evaluation count and outcome, rejected steps included. A guard that
    returns a time cuts the solve at that step, and the solve returns each
    accepted step with the knots.
    """

    @staticmethod
    def assert_steps_match(sc, u, rtol, method=RK45):
        pm, N = sc.params, sc.population()

        def rhs(t, y):  # simulate's right-hand side for input u
            S, I_A, I_S, _, D, psi = y.tolist()
            return derivatives(S, I_A, I_S, D, psi, u, pm, N)

        y0 = np.array([sc.init.S0, sc.init.IA0, sc.init.IS0, sc.init.R0, sc.init.D0, sc.init.psi0])
        kw = dict(rtol=rtol, atol=SimConfig().atol)
        ours = simulator.solve_ivp(rhs, (0.0, 60.0), y0, guard=lambda n, t, y, dense: None, **kw)
        plain = solve_ivp(rhs, (0.0, 60.0), y0, method=method, **kw)
        # the same outcome, a failure included: both may stop short of the end
        assert (ours.status, ours.message) == (plain.status, plain.message)
        assert np.array_equal(ours.t, plain.t)
        assert np.array_equal(ours.y, plain.y)
        assert ours.nfev == plain.nfev
        return ours

    # A fast outbreak rejects a step on its own; _CLAMPED reaches the clamp.
    @pytest.mark.parametrize("values, u, rtol", [
        (dict(beta_A=1.0, beta_S=1.0), 0, 1e-6),
        (_CLAMPED, 0, 1e-8),
    ], ids=["natural_uncapped", "min_factor_clamp"])
    def test_rejected_steps_match(self, values, u, rtol):
        norms = []

        class Recording(RK45):  # plain RK45, keeping each attempted step's error norm
            def _estimate_error_norm(self, *args):
                norms.append(float(super()._estimate_error_norm(*args)))
                return norms[-1]

        sol = self.assert_steps_match(make_scenario(**values), u, rtol, method=Recording)
        assert sol.success
        # 2 evaluations to start, then 6 per attempted step
        assert sol.nfev > 6 * (len(sol.t) - 1) + 2
        clamp = (simulator.SAFETY / simulator.MIN_FACTOR) ** 5
        assert (max(norms) > clamp) == (values is _CLAMPED)

    @settings(max_examples=60, deadline=None)
    @given(values=_START_AND_RATES, u=st.sampled_from([0, 1]),
           rtol=st.sampled_from([1e-3, 1e-6, 1e-8]))
    # no infection and psi at 1 without intervention: a zero error estimate
    @example(values=dict(make_scenario().values(), IA0=0.0, IS0=0.0), u=0, rtol=1e-8)
    # S and I_S run off to +-3.5e13, and both solvers give up at t = 16.34
    # with too small a step, on the same knots and evaluation count
    @example(values=dict(make_scenario().values(), beta_A=1.0, beta_S=1.0, alpha_A=1.0,
                         alpha_S=0.0, p=1.0, rho=0.75, gamma_0=0.0, gamma_1=1.0, psi_bar=1.0,
                         gamma_K=1.0, S0=1.0, IA0=2.0, IS0=0.0, R0=0.0, D0=0.0, psi0=0.0),
             u=1, rtol=1e-3)
    def test_matches_plain_rk45(self, values, u, rtol):
        assume(values["S0"] + values["IA0"] + values["IS0"] + values["R0"] > 0.0)
        # Scenario refuses N - D0 <= 0, and N - D0 rounds to 0 when D0 dwarfs
        # the rest (R0 = 3.4e-47, D0 = 1) though the rest is positive; N is
        # summed as Scenario.population sums it
        n = values["S0"] + values["IA0"] + values["IS0"] + values["R0"] + values["D0"]
        assume(n - values["D0"] > 0.0)
        self.assert_steps_match(make_scenario(**values), u, rtol)

    @pytest.mark.parametrize("k", [1, 7])
    def test_guard_cuts_the_solve_and_the_steps_are_returned(self, scenario, k):
        # the guard sees each accepted step with its count, and the first
        # time it returns ends the solve there, as its t_cut
        pm, N = scenario.params, scenario.population()

        def rhs(t, y):
            S, I_A, I_S, _, D, psi = y.tolist()
            return derivatives(S, I_A, I_S, D, psi, 0, pm, N)

        seen = []

        def guard(n, t_new, y_new, dense):
            seen.append(n)
            return 0.5 * (dense.t_old + t_new) if n == k else None

        ini = scenario.init
        y0 = np.array([ini.S0, ini.IA0, ini.IS0, ini.R0, ini.D0, ini.psi0])
        sol = simulator.solve_ivp(rhs, (0.0, 1000.0), y0, guard=guard, rtol=1e-8, atol=1e-10)
        assert (sol.status, sol.success) == (1, True)
        assert seen == list(range(1, k + 1))
        assert len(sol.steps) == k == len(sol.t) - 1
        assert sol.t_cut == 0.5 * (sol.t[-2].item() + sol.t[-1].item())
        for i, step in enumerate(sol.steps):
            assert type(step.t_old) is float and type(step.h) is float
            assert step.t_old == sol.t[i]
            assert np.array_equal(step.y_old, sol.y[:, i])

        whole = simulator.solve_ivp(rhs, (0.0, 1000.0), y0, guard=lambda n, t, y, dense: None,
                                    rtol=1e-8, atol=1e-10)
        assert (whole.status, whole.t_cut, whole.t[-1]) == (0, None, 1000.0)
        assert len(whole.steps) == len(whole.t) - 1
        assert np.array_equal(whole.t[:k + 1], sol.t)


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

    @pytest.mark.parametrize("open_loop", [False, True], ids=["closed_loop", "open_loop"])
    def test_rho_one_rejected(self, monkeypatch, cp8, open_loop):
        # alpha_S / (1 - rho) is undefined: simulate refuses the run before any solve
        calls = []
        monkeypatch.setattr(simulator, "solve_ivp", lambda *args, **kw: calls.append(args))
        cfg = SimConfig(open_loop_u=0) if open_loop else SimConfig()
        with pytest.raises(ValueError, match="^rho must be < 1 to form the symptomatic removal rate$"):
            simulate(make_scenario(rho=1.0), None if open_loop else cp8, cfg)
        assert calls == []


# The city made stiff: alpha_S / (1 - rho) = 8500 per day, and D0 = 10 of N = 14.
_STIFF = make_scenario(rho=0.99999, S0=1.0, IA0=1.0, R0=1.0, D0=10.0).values()


class TestEventEdgeCases:
    def test_start_on_threshold_fires_at_zero(self, cp8):
        sc = make_scenario(IS0=34.0)
        traj, rep = simulate(sc, cp8, SimConfig(horizon=60.0))
        assert traj.events[0] == SwitchEvent(t=0.0, u_new=1)
        assert traj.u_at(0.0) == 1
        assert traj.u0 == 0

    def test_overflow_is_integration_error(self):
        # the first-step norm overflows; the run must not warn and go on
        with pytest.raises(IntegrationError, match="overflow"):
            simulate(make_scenario(IA0=1e300), None, SimConfig(open_loop_u=0, horizon=5.0))

    def test_rhs_overflow_is_integration_error(self):
        # Python floats overflow to inf silently, here in the start derivative
        with pytest.raises(IntegrationError, match=r"^floating-point error after t = 0\.0: "):
            simulate(make_scenario(S0=1.7e308), None, SimConfig(open_loop_u=0, horizon=5.0))

    def test_start_derivative_overflow_is_named(self):
        # the force of infection times S overflows to inf in dS, and each
        # phase checks its start derivative once, before the first step
        with pytest.raises(IntegrationError, match="^" + re.escape(
                "floating-point error after t = 0.0: overflow encountered in the start "
                "derivative") + "$"):
            simulate(make_scenario(S0=1.7e308), None, SimConfig(open_loop_u=0, horizon=5.0))
        with pytest.raises(FloatingPointError, match="^overflow encountered in the start"):
            simulator.solve_ivp(lambda t, y: (math.inf, 0.0), (0.0, 1.0), [1.0, 1.0],
                                guard=None, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("t_span", [(1.0, 1.0), (1.0, 0.0)], ids=["empty", "backward"])
    def test_solver_integrates_forward_only(self, t_span):
        with pytest.raises(ValueError, match="^solve_ivp integrates forward only"):
            simulator.solve_ivp(lambda t, y: (0.0,), t_span, [1.0], guard=None,
                                rtol=1e-8, atol=1e-10)

    def test_rhs_zero_division_is_integration_error(self, scenario, monkeypatch):
        # a Python float division by zero (N - D exactly 0 at a trial stage)
        # ends the run like numpy's floating-point errors do
        calls = []

        def spy(*args):
            calls.append(args)
            if len(calls) == 10:
                raise ZeroDivisionError("float division by zero")
            return derivatives(*args)

        monkeypatch.setattr(simulator, "derivatives", spy)
        with pytest.raises(IntegrationError, match=r"^floating-point error after t = "):
            simulate(scenario, None, SimConfig(open_loop_u=0, horizon=5.0))

    def test_nan_start_derivative_is_integration_error(self):
        # gamma_K * rho * alpha_A / (1 - rho) * I_A overflows to inf, and
        # inf * 0 in dpsi (u = 0) gives nan: the first step size is nan, on
        # which scipy's step loop would never end
        sc = make_scenario(rho=0.9999, IA0=1e306, R0=1e306, S0=0.0, alpha_S=0.0)
        with pytest.raises(IntegrationError, match=r"^integrator failed near t = 0\.0: "):
            simulate(sc, None, SimConfig(open_loop_u=0, horizon=1.0))

    @pytest.mark.parametrize("u", [0, 1])
    def test_stiff_run_leaves_the_domain_only_at_rejected_stages(self, u):
        # a trial stage of the first step reaches D > N = 14, where the
        # right-hand side still gives finite values, and the step's error
        # test rejects it
        sc = Scenario.from_values(_STIFF)
        traj, report = simulate(sc, None, SimConfig(horizon=1.0, open_loop_u=u))
        assert traj.horizon == 1.0
        assert 10.0 < report.D_max < sc.population()
        rep = validate_trajectory(traj, sc, derive_constants(sc), None)
        assert rep.check("a").passed and rep.check("b").passed

    def test_rhs_gets_python_floats(self, scenario, cp8, monkeypatch):
        # one tolist() per solver stage: numpy scalars cost about twice as much
        seen = []

        def spy(*args):
            seen.append(tuple(map(type, args)))
            return derivatives(*args)

        monkeypatch.setattr(simulator, "derivatives", spy)
        traj, _ = simulate(scenario, cp8, SimConfig(horizon=60.0))
        assert traj.events and seen
        assert set(seen) == {(float, float, float, float, float, int, type(scenario.params), float)}

    def test_closed_loop_step_budget_trips(self, scenario, cp8, monkeypatch):
        # the one run budget counts steps across phases: this run switches
        # first near day 15 and runs out of steps near day 731, of the 1,083
        # it takes to reach day 1000
        monkeypatch.setattr(simulator, "MAX_STEPS", 1000)
        with pytest.raises(IntegrationError,
                           match=r"^more than MAX_STEPS = 1000 solver steps by t = "):
            simulate(scenario, cp8, SimConfig())

    def test_step_budget_spans_the_phases(self, solves, scenario, cp8, monkeypatch):
        # the city's cp8 run takes 1,083 steps over its 17 phases: a budget of
        # exactly that many lets it finish unchanged, one fewer trips on its
        # last step, at the horizon
        ref, _ = simulate(scenario, cp8, SimConfig())
        assert len(solves) == 17 == len(ref.events) + 1
        assert sum(len(sol.steps) for *_, sol in solves) == 1083
        monkeypatch.setattr(simulator, "MAX_STEPS", 1083)
        assert simulate(scenario, cp8, SimConfig())[0].events == ref.events
        monkeypatch.setattr(simulator, "MAX_STEPS", 1082)
        with pytest.raises(IntegrationError, match="^" + re.escape(
                "more than MAX_STEPS = 1082 solver steps by t = 1000.0") + "$"):
            simulate(scenario, cp8, SimConfig())

    def test_step_budget_trips(self, monkeypatch):
        # near rho = 1 the system is stiff and takes far more steps than
        # the horizon in days, which SimConfig checks
        monkeypatch.setattr(simulator, "MAX_STEPS", 1000)
        with pytest.raises(IntegrationError,
                           match=r"^more than MAX_STEPS = 1000 solver steps by t = "):
            simulate(make_scenario(rho=0.999999), None, SimConfig(horizon=30.0, open_loop_u=0))

    @pytest.mark.parametrize("tol", [1e-14, 5e-324])
    def test_tolerance_below_the_float_spacing_ends(self, scenario, cp8, tol):
        # the switch search stops on adjacent floats whatever the tolerance
        ref, _ = simulate(scenario, cp8, SimConfig(horizon=200.0))
        traj, _ = simulate(scenario, cp8, SimConfig(horizon=200.0, event_time_tol=tol))
        assert [ev.u_new for ev in traj.events] == [ev.u_new for ev in ref.events]
        assert abs(traj.events[0].t - ref.events[0].t) <= 1e-9


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

    def test_event_at_zero_and_fixed_input(self):
        def at(t):
            return State(S=1.0, I_A=0.0, I_S=0.0, R=0.0, D=0.0, psi=1.0, t=t)
        # a switch at t = 0 leaves a zero-length first piece
        traj = Trajectory(samples=(at(0.0), at(10.0)),
                          events=(SwitchEvent(0.0, 1), SwitchEvent(4.0, 0)), u0=0)
        assert input_cost(traj, 10.0) == 4.0
        assert input_cost(traj, 0.0) == 0.0 and type(input_cost(traj, 0.0)) is float
        fixed = Trajectory(samples=(at(0.0), at(10.0)), events=(), u0=1)
        assert input_cost(fixed, 2.5) == 2.5

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
        assert rep.check("a").worst is None

    @pytest.mark.xfail(strict=True, reason="check h's only slack, event_time_tol, "
                       "does not cover the solver's error in the switch times")
    def test_dwell_check_passes_a_pure_decay_phase(self, scenario, cp8):
        # with no transmission the intervention phase is pure decay at
        # alpha_S_eff from on = 34 to off = 8, so its true dwell equals the
        # down bound; RK45 ends it 7.4e-9 days short of it, beyond 1e-9
        sc = Scenario.from_values({**scenario.values(), "beta_A": 0.0, "beta_S": 0.0,
                                   "IS0": 34.0})
        dc0 = derive_constants(sc)
        traj, _ = simulate(sc, cp8, SimConfig(horizon=200.0))
        assert [e.u_new for e in traj.events] == [1, 0]
        assert validate_trajectory(traj, sc, dc0, cp8).check("h").passed

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

    def test_dwell_check_reads_switch_pairs(self, scenario, dc, cp8):
        # only a switch to 1 followed by a switch to 0 bounds a phase, even
        # when a hand-made list repeats a value
        ok = State(S=89950.0, I_A=49.0, I_S=1.0, R=10000.0, D=0.0, psi=1.0, t=0.0)
        events = tuple(SwitchEvent(t, u) for t, u in ((1.0, 1), (2.0, 1), (3.0, 0), (5.0, 0)))
        traj = Trajectory(samples=(ok, dataclasses.replace(ok, t=6.0)), events=events, u0=0)
        rep = validate_trajectory(traj, scenario, dc, cp8)
        down = math.log(34.0 / 8.0) / dc.alpha_S_eff
        assert rep.check("h").violations == ((2.0, down - 1.0),)

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

    @pytest.mark.parametrize("eps_plus, eps_minus", [(30.0, 20.0), (50.0, 8.0)])
    def test_unordered_pair_rejected(self, scenario, dc, cp8, eps_plus, eps_minus):
        # check h's dwell bound is negative for (30, 20) and undefined for (50, 8)
        traj, _ = simulate(scenario, cp8, SimConfig(horizon=300.0))
        cp = ControllerParams(eps_plus=eps_plus, eps_minus=eps_minus, phi_plus=dc.phi_plus)
        with pytest.raises(ValueError, match="^threshold ordering violated"):
            validate_trajectory(traj, scenario, dc, cp)


@pytest.fixture(scope="module", params=["closed_loop", "open_loop"])
def columnar_run(request, scenario, cp8):
    """The city with cp8 at horizon 1000, and in open loop at u = 1 every 0.1 day."""
    if request.param == "closed_loop":
        return simulate(scenario, cp8, SimConfig(horizon=1000.0))[0], cp8
    return simulate(scenario, None, SimConfig(open_loop_u=1, output_dt=0.1))[0], None


class TestColumnarSamples:
    """Trajectory.samples stores columns and reads as a sequence of State rows."""

    def test_rebuilt_from_rows_is_the_same_trajectory(self, columnar_run, scenario, dc):
        traj, cp = columnar_run
        rebuilt = Trajectory(samples=tuple(traj.samples), events=traj.events, u0=traj.u0)
        assert rebuilt == traj
        assert hash(rebuilt) == hash(traj)
        assert repr(rebuilt) == repr(traj)
        assert (validate_trajectory(rebuilt, scenario, dc, cp)
                == validate_trajectory(traj, scenario, dc, cp))
        assert trajectory_csv_text(rebuilt) == trajectory_csv_text(traj)

    def test_row_access(self, columnar_run):
        traj, _ = columnar_run
        rows = list(traj.samples)
        assert len(rows) == len(traj.samples) and all(type(s) is State for s in rows)
        assert traj.samples[-1].t == traj.horizon
        assert traj.samples[-1] == rows[-1] and traj.samples[-len(rows)] == rows[0]
        head = traj.samples[:3]
        assert type(head) is tuple and all(type(s) is State for s in head)
        assert head == tuple(rows[:3])
        assert traj.samples[::-500] == tuple(rows[::-500])
        with pytest.raises(IndexError):
            traj.samples[len(rows)]

    def test_replacing_events_keeps_the_columns(self, columnar_run):
        traj, _ = columnar_run
        assert dataclasses.replace(traj, events=traj.events[:-1]).samples == traj.samples

    def test_signed_zeros_are_equal_and_hash_alike(self):
        def at(zero):
            return State(S=1.0, I_A=zero, I_S=0.0, R=0.0, D=0.0, psi=1.0, t=0.0)
        plus = Trajectory(samples=(at(0.0),), events=(), u0=0)
        minus = Trajectory(samples=(at(-0.0),), events=(), u0=0)
        assert plus == minus and hash(plus) == hash(minus)
        assert repr(minus.samples[0].I_A) == "-0.0"

    def test_hand_made_values_are_stored_as_float(self):
        row = State(S=1, I_A=0, I_S=0, R=0, D=0, psi=1, t=0)
        traj = Trajectory(samples=[row], events=(), u0=0)
        assert repr(traj.samples[0]) == repr(State(1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0))
        assert trajectory_csv_text(traj).splitlines()[1] == "0.0,1.0,0.0,0.0,0.0,0.0,1.0,0"


@pytest.mark.parametrize("open_loop", [False, True], ids=["closed_loop", "open_loop"])
def test_run_validate_and_render_build_no_row(monkeypatch, scenario, dc, cp8, open_loop):
    # simulate, validation and the CLI texts read the sample columns only
    def no_rows(*args, **kwargs):
        raise AssertionError("a State row was built")

    monkeypatch.setattr(simulator, "State", no_rows)
    cp = None if open_loop else cp8
    cfg = SimConfig(open_loop_u=1, output_dt=0.1) if open_loop else SimConfig()
    traj, report = simulate(scenario, cp, cfg)
    assert validate_trajectory(traj, scenario, dc, cp).all_ok
    assert trajectory_csv_text(traj).count("\n") == len(traj.samples) + 1
    events_csv_text(traj)
    run_report_text(report)


# Every coordinate over its whole model._RANGES range, D0 included, with rho
# often in [0.999, 1], where alpha_S / (1 - rho) makes the system stiff.
_ANY_SCENARIO = st.fixed_dictionaries({
    k: st.one_of(st.floats(0.999, 1.0), st.floats(lo, hi)) if k == "rho"
    else st.floats(lo, hi, allow_infinity=False)
    for k, (lo, hi) in _RANGES.items()
})


class TestErrorContract:
    """simulate returns or raises IntegrationError on every scenario the constructors accept.

    The one exception is rho = 1, which it refuses with ValueError before
    any solve.
    """

    @pytest.fixture(scope="class", autouse=True)
    def small_step_budget(self):
        # a stiff draw ends at this budget; hypothesis refuses function-scoped
        # fixtures, so the patch spans the class
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "MAX_STEPS", 2000)
            yield

    # about two draws in three overflow the population or the capacity bound,
    # or leave N - D0 at 0, and are filtered out
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(values=_ANY_SCENARIO, u=st.sampled_from([0, 1]))
    @example(values=_STIFF, u=0)
    @example(values=_STIFF, u=1)
    def test_returns_or_raises_integration_error(self, values, u):
        try:
            sc = Scenario.from_values(values)
        except ValueError:
            assume(False)
        try:
            simulate(sc, None, SimConfig(horizon=1.0, open_loop_u=u))
        except IntegrationError:
            pass
        except ValueError as exc:
            assert values["rho"] == 1.0 and str(exc).startswith("rho must be < 1")

"""Relay law, the growth functional q, pair admissibility, dwell bounds."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icufunnel import (
    ControllerParams,
    InfeasibleError,
    QEvalDomainError,
    QEvalRangeWarning,
    check_sigma,
    control_update,
    derive_constants,
    dwell_lower_bounds,
    find_feasible_eps,
    find_max_slack_eps,
    in_CZ,
    q_eval,
    q_monotonicity_check,
)
from icufunnel import controller
from icufunnel.controller import _q
from test_model import make_scenario

_TWO_PERCENT = st.floats(min_value=0.98, max_value=1.02)
# a city variant with M1 = 0, which leaves [M2/M1, phi_plus] undefined
ZERO_M1 = dict(gamma_K=0.0, psi_bar=1.0, p=0.5, beta_A=0.5, beta_S=0.5,
               alpha_A=0.25, S0=49000.0, IA0=999.0, IS0=1.0, R0=50000.0)


@pytest.fixture()
def pair8(dc):
    return ControllerParams(eps_plus=10.0, eps_minus=8.0, phi_plus=dc.phi_plus)


class TestControllerParams:
    @pytest.mark.parametrize("kw", [
        dict(eps_plus=0.0, eps_minus=8.0, phi_plus=44.0),
        dict(eps_plus=10.0, eps_minus=-1.0, phi_plus=44.0),
        dict(eps_plus=10.0, eps_minus=8.0, phi_plus=0.0),
    ])
    def test_positivity_enforced(self, kw):
        with pytest.raises(ValueError):
            ControllerParams(**kw)

    def test_thresholds(self, pair8):
        assert pair8.on_threshold() == 34.0
        assert pair8.off_threshold() == 8.0
        assert pair8.ordering_ok()

    def test_unordered_pair_constructible(self):
        # rejected later by in_CZ, not at construction
        cp = ControllerParams(eps_plus=10.0, eps_minus=40.0, phi_plus=44.0)
        assert not cp.ordering_ok()


class TestControlUpdate:
    def test_hold_then_switch_sequence(self, pair8):
        u = 0
        for I_S, expected in (
            (20.0, 0),   # strictly inside: hold
            (34.0, 1),   # tie at on threshold
            (20.0, 1),   # hysteresis: still on
            (8.0, 0),    # tie at off threshold
            (20.0, 0),
            (35.0, 1),
            (7.0, 0),
        ):
            u = control_update(I_S, u, pair8)
            assert u == expected

    def test_same_input_different_history(self, pair8):
        assert control_update(20.0, 1, pair8) == 1
        assert control_update(20.0, 0, pair8) == 0


class TestQEval:
    def test_anchor_values(self, scenario, dc):
        assert q_eval(34.0, dc, scenario) == pytest.approx(
            82.75992851210303, rel=1e-12)
        lo = dc.M2 / dc.M1
        assert q_eval(lo, dc, scenario) == pytest.approx(dc.M3, rel=1e-12)

    def test_zero_eps_gives_zero_with_warning(self, scenario, dc):
        with pytest.warns(QEvalRangeWarning):
            assert q_eval(0.0, dc, scenario) == 0.0

    def test_warns_above_phi_plus(self, scenario, dc):
        with pytest.warns(QEvalRangeWarning):
            q_eval(50.0, dc, scenario)

    def test_no_warning_inside_domain(self, scenario, dc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q_eval(10.0, dc, scenario)

    def test_domain_error_far_left(self, scenario, dc):
        # denominator alpha_S/(1-rho) + M1*eps - M2 turns negative near -57
        with pytest.warns(QEvalRangeWarning), pytest.raises(QEvalDomainError):
            q_eval(-60.0, dc, scenario)

    def test_zero_m1_warns_then_evaluates(self):
        # M2/M1 is inf, so every eps lies outside the range
        sc = make_scenario(**ZERO_M1)
        dc = derive_constants(sc)
        assert dc.M1 == 0.0
        with pytest.warns(QEvalRangeWarning, match=r"\[inf, 44.0\]"):
            q = q_eval(10.0, dc, sc)
        assert q == float(_q(10.0, dc, sc)) and type(q) is float

    def test_kernel_gives_nan_far_left(self, scenario, dc):
        assert math.isnan(_q(-60.0, dc, scenario))
        assert np.isnan(_q(np.array([-60.0]), dc, scenario)).all()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_kernel_on_array_equals_q_eval(self, interior_scenario, data):
        # +-2 % perturbations of the interior scenario, eps in [M2/M1, phi_plus]
        pm, ini, cap = (interior_scenario.params, interior_scenario.init,
                        interior_scenario.capacity)
        sc = replace(
            interior_scenario,
            params=replace(pm, **{
                k: min(1.0, getattr(pm, k) * data.draw(_TWO_PERCENT, label=k))
                for k in vars(pm)
            }),
            init=replace(ini, **{
                k: getattr(ini, k) * data.draw(_TWO_PERCENT, label=k)
                for k in ("S0", "IA0", "IS0", "R0")
            }),
            capacity=replace(cap, **{
                k: getattr(cap, k) * data.draw(_TWO_PERCENT, label=k) for k in vars(cap)
            }),
        )
        dc = derive_constants(sc)
        assume(check_sigma(sc, dc).in_sigma)
        lo, hi = dc.M2 / dc.M1, dc.phi_plus
        fracs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
        eps = np.clip(lo + np.array(fracs) * (hi - lo), lo, hi)
        expected = [q_eval(float(e), dc, sc) for e in eps]
        assert _q(eps, dc, sc).tolist() == expected


class TestInCZ:
    def test_reference_pair_fails_a5(self, scenario, dc, pair8):
        # q at the on threshold is far above the corridor top
        cz = in_CZ(pair8, scenario, dc)
        assert cz.ordering_ok and cz.a4_ok
        assert not cz.a5_ok
        assert not cz.in_cz
        assert cz.q_value == pytest.approx(82.75992851210303, rel=1e-12)

    def test_ordering_violation_reported(self, scenario, dc):
        cp = ControllerParams(eps_plus=10.0, eps_minus=40.0, phi_plus=dc.phi_plus)
        cz = in_CZ(cp, scenario, dc)
        assert not cz.ordering_ok
        assert not cz.in_cz

    def test_a4_violation(self, scenario, dc):
        # eps_plus above phi_plus - M2/M1 = 43.8607...
        cp = ControllerParams(eps_plus=43.9, eps_minus=0.05, phi_plus=dc.phi_plus)
        cz = in_CZ(cp, scenario, dc)
        assert not cz.a4_ok
        assert not cz.in_cz

    def test_report_is_silent(self, scenario, dc, pair8):
        # probing below M2/M1 must not leak range warnings to the caller
        cp = ControllerParams(eps_plus=43.9, eps_minus=0.05, phi_plus=dc.phi_plus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            in_CZ(cp, scenario, dc)
            in_CZ(pair8, scenario, dc)


    def test_zero_p_fails_a5_without_raising(self, pair8):
        # q divides by p*N, and p = 0 makes M2 infinite
        sc = make_scenario(p=0.0)
        cz = in_CZ(pair8, sc, derive_constants(sc))
        assert not cz.a4_ok and not cz.a5_ok and not cz.in_cz
        assert math.isnan(cz.q_value)

    def test_zero_m1_fails_a4_and_a5_without_raising(self, pair8):
        sc = make_scenario(**ZERO_M1)
        dc = derive_constants(sc)
        assert dc.M1 == 0.0
        cz = in_CZ(pair8, sc, dc)
        assert cz.ordering_ok and not cz.a4_ok and not cz.a5_ok
        assert math.isnan(cz._get("A4").rhs) and math.isnan(cz.q_value)


class TestFindFeasible:
    def test_default_grid_pair(self, scenario, dc):
        cp = find_feasible_eps(scenario, dc)
        assert cp.eps_plus == pytest.approx(28.414513289689637, rel=1e-12)
        assert cp.eps_minus == pytest.approx(7.7927433551551815, rel=1e-12)
        assert cp.phi_plus == dc.phi_plus
        cz = in_CZ(cp, scenario, dc)
        assert cz.in_cz
        assert cz.q_value < dc.phi_plus

    def test_pair_halves_the_gap(self, scenario, dc):
        cp = find_feasible_eps(scenario, dc)
        gap = dc.phi_plus - cp.eps_plus
        assert cp.eps_minus == pytest.approx(gap / 2.0, rel=1e-12)

    def test_smaller_eps_minus_also_admissible(self, scenario, dc):
        # the off threshold can shrink freely once a pair is admissible
        cp = find_feasible_eps(scenario, dc)
        tighter = ControllerParams(
            eps_plus=cp.eps_plus, eps_minus=cp.eps_minus / 2.0,
            phi_plus=cp.phi_plus)
        assert in_CZ(tighter, scenario, dc).in_cz

    def test_singleton_grid_near_left_endpoint(self, scenario, dc):
        eps = dc.M2 / dc.M1 + 1e-6
        cp = find_feasible_eps(scenario, dc, grid=[eps])
        assert cp.eps_plus == pytest.approx(dc.phi_plus - eps, rel=1e-12)
        assert in_CZ(cp, scenario, dc).in_cz

    def test_grid_point_outside_open_interval(self, scenario, dc):
        with pytest.raises(ValueError, match="open interval"):
            find_feasible_eps(scenario, dc, grid=[dc.M2 / dc.M1])
        with pytest.raises(ValueError, match="open interval"):
            find_feasible_eps(scenario, dc, grid=[dc.phi_plus])

    def test_degenerate_grids_rejected(self, scenario, dc):
        with pytest.raises(ValueError, match="at least one"):
            find_feasible_eps(scenario, dc, grid=0)
        with pytest.raises(ValueError, match="at least one"):
            find_feasible_eps(scenario, dc, grid=[])

    @pytest.mark.parametrize("scan", [find_feasible_eps, q_monotonicity_check])
    def test_int_grid_above_the_cap_rejected(self, scenario, dc, scan):
        # refused before any point is placed
        cap = controller.MAX_GRID
        with pytest.raises(ValueError, match=f"MAX_GRID = {cap} points, got {cap + 1}"):
            scan(scenario, dc, grid=cap + 1)

    def test_infeasible_names_the_failing_group(self):
        # capacity too small for the growth bound: A3 fails
        sc = make_scenario(n_icu=0.4)
        with pytest.raises(InfeasibleError, match="infeasible: A3"):
            find_feasible_eps(sc, derive_constants(sc))
        sc = make_scenario(p=0.0)
        with pytest.raises(InfeasibleError, match="infeasible: A1"):
            find_feasible_eps(sc, derive_constants(sc))
        sc = make_scenario(IA0=10.0)
        with pytest.raises(InfeasibleError, match="infeasible: A2"):
            find_feasible_eps(sc, derive_constants(sc))


def _min_slack(cp, scenario, dc):
    # every in_CZ condition is lhs < rhs, so rhs - lhs is its slack
    return min(c.rhs - c.lhs for c in in_CZ(cp, scenario, dc).conditions)


@pytest.fixture(params=["city", "interior"])
def admissible(request, scenario, dc, interior_scenario):
    if request.param == "city":
        return scenario, dc
    return interior_scenario, derive_constants(interior_scenario)


class TestFindMaxSlack:
    def test_pair_is_admissible(self, admissible):
        sc, dcs = admissible
        cp = find_max_slack_eps(sc, dcs)
        assert cp.phi_plus == dcs.phi_plus
        assert in_CZ(cp, sc, dcs).in_cz

    def test_more_slack_than_largest_gap_pair(self, admissible):
        sc, dcs = admissible
        best = _min_slack(find_max_slack_eps(sc, dcs), sc, dcs)
        assert best > _min_slack(find_feasible_eps(sc, dcs), sc, dcs)

    @pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_moving_the_on_threshold_loses_slack(self, admissible, factor):
        sc, dcs = admissible
        cp = find_max_slack_eps(sc, dcs)
        on = cp.on_threshold() * factor
        moved = ControllerParams(eps_plus=dcs.phi_plus - on, eps_minus=on / 2.0,
                                 phi_plus=dcs.phi_plus)
        assert _min_slack(moved, sc, dcs) < _min_slack(cp, sc, dcs)

    def test_infeasible_names_the_failing_group(self):
        for kw, group in ((dict(n_icu=0.4), "A3"), (dict(p=0.0), "A1"),
                          (dict(IA0=10.0), "A2")):
            sc = make_scenario(**kw)
            with pytest.raises(InfeasibleError, match=f"infeasible: {group}"):
                find_max_slack_eps(sc, derive_constants(sc))

    def test_non_monotone_q_rejected(self, lowp):
        sc, dcs = lowp
        assert check_sigma(sc, dcs).in_sigma
        with pytest.raises(InfeasibleError, match="not strictly increasing"):
            find_max_slack_eps(sc, dcs)


class TestDwellBounds:
    def test_anchor_values(self, dc, pair8):
        b = dwell_lower_bounds(pair8, dc, 0.0)
        assert b.down_bound == pytest.approx(14.469189829363254, rel=1e-12)
        assert b.up_bound == pytest.approx(6.066746259691092, rel=1e-12)
        assert b.up_is_informative

    def test_wider_off_threshold(self, dc):
        cp = ControllerParams(eps_plus=10.0, eps_minus=20.0, phi_plus=dc.phi_plus)
        b = dwell_lower_bounds(cp, dc, 0.0)
        assert b.down_bound == pytest.approx(5.3062825106217035, rel=1e-12)

    def test_uninformative_up_bound(self, dc, pair8):
        # a large mild-case count at switch-off kills the logarithm's sign
        b = dwell_lower_bounds(pair8, dc, 49.0)
        assert b.up_bound == pytest.approx(-1.58747596906597, rel=1e-10)
        assert not b.up_is_informative

    def test_down_bound_scale(self, dc):
        # eps_minus = on/e makes the log exactly 1, so the bound is 1/rate
        cp = ControllerParams(eps_plus=10.0, eps_minus=34.0 / math.e,
                              phi_plus=dc.phi_plus)
        b = dwell_lower_bounds(cp, dc, 0.0)
        assert b.down_bound == pytest.approx(1.0 / dc.alpha_S_eff, rel=1e-12)

    def test_negative_ia_rejected(self, dc, pair8):
        with pytest.raises(ValueError, match="IA_at_switch"):
            dwell_lower_bounds(pair8, dc, -1.0)

    @pytest.mark.parametrize("ia", [math.nan, math.inf])
    def test_non_finite_ia_rejected(self, dc, pair8, ia):
        with pytest.raises(ValueError, match="IA_at_switch must be finite"):
            dwell_lower_bounds(pair8, dc, ia)

    def test_overflowing_on_threshold_named(self, dc):
        # (phi_plus - eps_plus)**2 overflows a float
        cp = ControllerParams(eps_plus=10.0, eps_minus=8.0, phi_plus=1e200)
        with pytest.raises(ValueError, match="up_bound undefined"):
            dwell_lower_bounds(cp, dc, 0.0)

"""Robustness probe, q-monotonicity evidence, off-threshold sweeps.

Two synthetic scenarios are pinned here besides the bundled one:

* an interior scenario sitting strictly inside every admissibility
  inequality (the bundled city sits exactly on the A2.4 and A1.3
  boundaries: about half of all directions leave the A2.4 half-space, a
  larger alpha_A fails A1.3 and a smaller one fails A3, so its sampled
  robustness is zero and it cannot exercise the probe's positive path);
* a low-symptomatic-fraction scenario whose q eventually turns over, to
  exercise the monotonicity checker's violation reporting.

All expected numbers were frozen from direct evaluation and are
deterministic (fixed seeds, fixed direction draws).
"""

import dataclasses
import math

import pytest

from icufunnel import (
    ControllerParams,
    PreconditionError,
    SimConfig,
    check_sigma_rob,
    derive_constants,
    find_feasible_eps,
    q_monotonicity_check,
    robustness_probe,
    sweep_eps_minus,
)
from icufunnel import analysis
from icufunnel.model import SCENARIO_KEYS


@pytest.fixture(scope="module")
def city_pair(scenario, dc):
    return find_feasible_eps(scenario, dc)


@pytest.fixture(scope="module")
def interior(interior_scenario):
    dc = derive_constants(interior_scenario)
    return interior_scenario, dc, find_feasible_eps(interior_scenario, dc)


def _with_params(sc, **changes):
    return dataclasses.replace(sc, params=dataclasses.replace(sc.params, **changes))


def _failed(sc, dc):
    return {c.name for c in check_sigma_rob(sc, dc).conditions if not c.passed}


class TestProbeValidation:
    def test_probe_keys_are_the_scenario_keys(self):
        # the probe's own coordinate order must name each coordinate once
        assert sorted(analysis._PROBE_KEYS) == sorted(SCENARIO_KEYS)

    def test_negative_delta(self, scenario, city_pair):
        with pytest.raises(ValueError, match="delta"):
            robustness_probe(scenario, city_pair, delta=-1e-3)

    def test_zero_samples(self, scenario, city_pair):
        with pytest.raises(ValueError, match="samples"):
            robustness_probe(scenario, city_pair, delta=1e-3, samples=0)

    def test_inadmissible_pair_rejected(self, scenario, cp8):
        # the (8, 10) pair fails A5, so there is nothing to probe around
        with pytest.raises(PreconditionError, match="not admissible"):
            robustness_probe(scenario, cp8, delta=1e-3, samples=4)

    def test_non_robust_nominal_rejected(self, lowp, city_pair):
        sc, _ = lowp  # fails A6.2
        with pytest.raises(PreconditionError, match="robust"):
            robustness_probe(sc, city_pair, delta=1e-3, samples=4)


class TestProbeCity:
    def test_zero_radius(self, scenario, city_pair):
        res = robustness_probe(scenario, city_pair, delta=0.0, samples=16, seed=1)
        assert res.pass_fraction == 1.0
        assert res.certified_delta == 0.0

    def test_boundary_scenario_has_zero_margin(self, scenario, city_pair):
        # IA0 == (1-p)/p * IS0 puts the city on the boundary of the closed
        # A2.4 half-space, which about half of all directions leave, and
        # alpha_A == alpha_S/(1-rho) puts it on A1.3, both sides of which
        # fail (see the tests below): no sample passes at any radius
        res = robustness_probe(scenario, city_pair, delta=1e-3,
                               samples=256, seed=0)
        assert res.pass_fraction == 0.0
        assert res.certified_delta == 0.0

    def test_smaller_alpha_a_fails_only_a3(self, scenario):
        # A1.3 now holds strictly, but the tiny S_min blows up zeta and M3
        sc = _with_params(scenario, alpha_A=scenario.params.alpha_A * (1.0 - 1e-9))
        dc = derive_constants(sc)
        assert _failed(sc, dc) == {"A3"}
        assert dc.M3 > dc.phi_plus

    def test_larger_alpha_a_fails_only_a13(self, scenario):
        sc = _with_params(scenario, alpha_A=scenario.params.alpha_A * (1.0 + 1e-9))
        assert _failed(sc, derive_constants(sc)) == {"A1.3"}

    def test_smaller_ia0_fails_a24(self, scenario):
        sc = dataclasses.replace(scenario, init=dataclasses.replace(
            scenario.init, IA0=scenario.init.IA0 * (1.0 - 1e-9)))
        assert _failed(sc, derive_constants(sc)) == {"A2.4"}

    def test_deterministic(self, scenario, city_pair):
        a = robustness_probe(scenario, city_pair, delta=1e-4, samples=32, seed=7)
        b = robustness_probe(scenario, city_pair, delta=1e-4, samples=32, seed=7)
        assert a == b


class TestProbeInterior:
    def test_interior_constants(self, interior):
        _, dc, cp = interior
        assert dc.S_min == pytest.approx(317.2889117450356, rel=1e-12)
        assert dc.zeta == pytest.approx(288.66330222619763, rel=1e-12)
        assert dc.M3 == pytest.approx(0.054169109363315246, rel=1e-12)
        assert cp.eps_plus == pytest.approx(37.40076481990164, rel=1e-12)
        assert cp.eps_minus == pytest.approx(3.2996175900491793, rel=1e-12)

    def test_strict_interior_membership(self, interior):
        sc, dc, _ = interior
        rep = check_sigma_rob(sc, dc)
        assert rep.in_sigma_rob
        for c in rep.conditions:
            assert c.lhs != c.rhs  # strictly inside, no boundary contact

    def test_small_radius_certified(self, interior):
        sc, _, cp = interior
        res = robustness_probe(sc, cp, delta=1e-6, samples=64, seed=3)
        assert res.pass_fraction == 1.0
        assert res.certified_delta == 1e-6

    def test_larger_radius_bisects(self, interior):
        sc, _, cp = interior
        res = robustness_probe(sc, cp, delta=1e-5, samples=64, seed=3)
        assert res.pass_fraction == pytest.approx(0.890625)
        assert res.certified_delta == pytest.approx(7.3434925079345705e-06,
                                                    rel=1e-9)
        assert 0.0 < res.certified_delta < res.delta


class TestQMonotonicity:
    def test_city_passes_both_ways(self, scenario, dc):
        rep = q_monotonicity_check(scenario, dc, grid=10_000)
        assert rep.monotone_on_grid
        assert rep.first_violation is None
        assert rep.q1_at_left == pytest.approx(0.03334619536075091, rel=1e-12)
        assert rep.q1_at_left_positive
        assert rep.slope_coefficient == pytest.approx(0.001551585882352929,
                                                      rel=1e-12)
        assert rep.slope_positive
        assert rep.all_ok

    def test_two_point_grid(self, scenario, dc):
        rep = q_monotonicity_check(scenario, dc, grid=1)  # clamped to 2 points
        assert rep.monotone_on_grid

    def test_short_sequence_rejected(self, scenario, dc):
        with pytest.raises(ValueError, match="two points"):
            q_monotonicity_check(scenario, dc, grid=[1.0])

    def test_turnover_scenario_flagged_analytically(self, lowp):
        sc, dc = lowp
        rep = q_monotonicity_check(sc, dc)
        # grid evidence alone is clean (the turn sits beyond phi_plus),
        # but the closed-form slope coefficient exposes it
        assert rep.monotone_on_grid
        assert rep.q1_at_left_positive
        assert rep.slope_coefficient == pytest.approx(-0.0004094167058823544,
                                                      rel=1e-12)
        assert not rep.slope_positive
        assert not rep.all_ok

    def test_turnover_located_by_explicit_grid(self, lowp):
        sc, dc = lowp
        rep = q_monotonicity_check(sc, dc, grid=[150.0, 174.0, 200.0, 230.0])
        assert not rep.monotone_on_grid
        assert rep.first_violation == (174.0, 200.0)
        assert not rep.all_ok


class TestSweep:
    def test_rows_in_order_with_errors_recorded(self, scenario, run8):
        _, rep8, _ = run8
        result = sweep_eps_minus(scenario, 10.0, [8.0, 50.0, -1.0], SimConfig())
        assert result.eps_plus == 10.0
        assert [r.eps_minus for r in result.rows] == [8.0, 50.0, -1.0]

        ok = result.rows[0]
        assert ok.error is None
        assert ok.D_max == rep8.D_max
        assert ok.switch_count == rep8.switch_count
        assert ok.pandemic_end == rep8.pandemic_end
        assert ok.input_cost == rep8.input_cost
        assert ok.max_IS == rep8.max_IS

        unordered = result.rows[1]
        assert unordered.error is not None and "ordering" in unordered.error
        assert math.isnan(unordered.D_max)
        assert unordered.switch_count == 0

        invalid = result.rows[2]
        assert invalid.error is not None and "eps_minus" in invalid.error

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

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icufunnel import (
    ControllerParams,
    InfeasibleError,
    PreconditionError,
    Scenario,
    SimConfig,
    check_sigma_rob,
    derive_constants,
    find_feasible_eps,
    find_max_slack_eps,
    in_CZ,
    q_monotonicity_check,
    robustness_probe,
    sweep_eps_minus,
)
from icufunnel import analysis
from icufunnel.model import SCENARIO_KEYS
from test_constants import A_CONST_OVERFLOW
from test_controller import ZERO_M1
from test_model import make_scenario


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

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta(self, interior, delta):
        sc, _, cp = interior
        with pytest.raises(ValueError, match=f"delta must be finite and >= 0, got {delta!r}"):
            robustness_probe(sc, cp, delta=delta, samples=4)

    def test_zero_samples(self, scenario, city_pair):
        with pytest.raises(ValueError, match="samples"):
            robustness_probe(scenario, city_pair, delta=1e-3, samples=0)

    def test_samples_above_the_cap(self, interior):
        sc, _, cp = interior
        cap = analysis.MAX_SAMPLES
        with pytest.raises(ValueError, match=f"MAX_SAMPLES = {cap}, got {cap + 1}"):
            robustness_probe(sc, cp, delta=1e-3, samples=cap + 1)

    def test_inadmissible_pair_rejected(self, scenario, cp8):
        # the (8, 10) pair fails A5, so there is nothing to probe around
        with pytest.raises(PreconditionError, match="not admissible"):
            robustness_probe(scenario, cp8, delta=1e-3, samples=4)

    def test_non_robust_nominal_rejected(self, lowp, city_pair):
        sc, _ = lowp  # fails A6.2
        with pytest.raises(PreconditionError, match="robust"):
            robustness_probe(sc, city_pair, delta=1e-3, samples=4)

    def test_underivable_sample_counts_as_failed(self, city_pair):
        values = make_scenario(**A_CONST_OVERFLOW).values()
        x = np.array([values[k] for k in analysis._PROBE_KEYS])
        assert analysis._passes(x[np.newaxis], city_pair).tolist() == [False]

    def test_infinite_population_counts_as_failed(self, scenario, city_pair):
        # each compartment is finite, but N overflows to inf, which Scenario
        # rejects; the constants and every condition would pass
        values = {**scenario.values(), "S0": 1e308, "R0": 1e308}
        x = np.array([values[k] for k in analysis._PROBE_KEYS])
        assert analysis._passes(x[np.newaxis], city_pair).tolist() == [False]
        assert _scalar_verdict(x, city_pair) is False


def _scalar_verdict(x, cp):
    """One probe sample through the public scalar functions."""
    try:
        sc = Scenario.from_values(dict(zip(analysis._PROBE_KEYS, x.tolist())))
        dc = derive_constants(sc)
        return check_sigma_rob(sc, dc).in_sigma_rob and in_CZ(cp, sc, dc).in_cz
    except ValueError:  # includes DerivationError and constructor rejections
        return False


class TestBatchedVerdicts:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_row_matches_the_scalar_path(self, interior_scenario, data):
        # anchor: the interior scenario or a +-2 % perturbation of it (D0 and
        # psi0 kept); most rows pass below radius 0.01, and above radius 1
        # clipping zeroes R0, p, n_icu and other coordinates
        values = interior_scenario.values()
        if data.draw(st.booleans(), label="perturb"):
            factor = st.floats(0.98, 1.02)
            values = {
                k: v if k in ("D0", "psi0")
                else min(v * data.draw(factor, label=k), 1.0) if k in analysis._PROBE_KEYS[:10]
                else v * data.draw(factor, label=k)
                for k, v in values.items()
            }
        sc = Scenario.from_values(values)
        dc = derive_constants(sc)
        finder = data.draw(st.sampled_from([find_feasible_eps, find_max_slack_eps]))
        try:
            cp = finder(sc, dc)
        except InfeasibleError:
            assume(False)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        radius = data.draw(
            st.one_of(st.just(2.0), st.floats(0.0, 0.1), st.floats(0.0, 2.0)), label="radius")
        directions = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(32, 18))
        x0 = np.array([values[k] for k in analysis._PROBE_KEYS])
        x = analysis._perturbed(x0, directions, radius)
        assert analysis._passes(x, cp).tolist() == [_scalar_verdict(row, cp) for row in x]

    def test_out_of_range_rows_fail_without_clipping(self, interior_scenario):
        # _passes checks the range table itself, not only what clipping
        # leaves: each coordinate just outside its range (a larger negative
        # value could overflow math.exp in the S_min exponent)
        cp = find_max_slack_eps(interior_scenario, derive_constants(interior_scenario))
        values = interior_scenario.values()
        x0 = np.array([values[k] for k in analysis._PROBE_KEYS])
        rows = []
        for i, k in enumerate(analysis._PROBE_KEYS):
            row = x0.copy()
            row[i] = 1.5 if i < 10 or k == "psi0" else -5e-324
            rows.append(row)
        x = np.array(rows)
        assert [_scalar_verdict(row, cp) for row in x] == [False] * 18
        assert analysis._passes(x, cp).tolist() == [False] * 18

    def test_clipping_keeps_the_sign_of_zero_as_before(self):
        # np.clip with scalar bounds keeps a -0.0 in the [0, 1] columns, and
        # the unbounded columns turn it into +0.0, like np.maximum
        x0 = np.full(18, -0.0)
        x = analysis._perturbed(x0, -np.ones((1, 18)), 0.0)[0]
        unit = [k in analysis._PROBE_KEYS[:10] or k == "psi0" for k in analysis._PROBE_KEYS]
        assert (x == 0.0).all()
        assert np.signbit(x).tolist() == unit

    def test_edge_rows_match_the_scalar_path(self, interior_scenario):
        # the interior scenario with one coordinate at an edge value; a zero
        # radius turns an infinite coordinate into nan (0 * inf), and radius
        # 0.9 along that coordinate overflows 1e308 to inf: the Scenario
        # constructors reject both
        dc = derive_constants(interior_scenario)
        cp = find_max_slack_eps(interior_scenario, dc)
        values = interior_scenario.values()
        x0 = np.array([values[k] for k in analysis._PROBE_KEYS])
        rows = []
        for i in range(18):
            direction = np.zeros((1, 18))
            direction[0, i] = 1.0
            for v in (0.0, math.nan, math.inf, 5e-324, 1e300, 1e308):
                row = x0.copy()
                row[i] = v
                for radius in (0.0, 0.9):
                    rows.append(analysis._perturbed(row, direction, radius)[0])
        x = np.array(rows)
        verdicts = [_scalar_verdict(row, cp) for row in x]
        assert analysis._passes(x, cp).tolist() == verdicts
        assert any(verdicts) and not all(verdicts)


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

    @pytest.mark.parametrize("changes", [{"p": 0.0}, ZERO_M1], ids=["p0", "M1_0"])
    def test_degenerate_constants_give_a_failed_report(self, changes):
        # p = 0 makes M2/M1 infinite and q1 divide by p*N = 0; M1 = 0 makes
        # M2/M1 divide by zero: a report, no exception and no warning
        sc = make_scenario(**changes)
        rep = q_monotonicity_check(sc, derive_constants(sc))
        assert not rep.monotone_on_grid and not rep.all_ok
        assert math.isnan(rep.q1_at_left) and type(rep.q1_at_left) is float

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

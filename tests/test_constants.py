"""Derived constants and admissibility verdicts.

The numeric anchors below were computed by hand from the defining formulas
(independently of this package) and are treated as frozen regression values.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_reference
from icufunnel import (
    AssumptionReport,
    ControllerParams,
    DerivationError,
    Scenario,
    check_sigma,
    check_sigma_rob,
    derive_constants,
    in_CZ,
)
from icufunnel.constants import _derive
from icufunnel.model import SCENARIO_KEYS, _columns
from test_model import make_scenario


# S_min underflows to about 1e-263, so A_const is about -5.5e261 and its
# square overflows a float
A_CONST_OVERFLOW = dict(
    beta_A=0.4692, beta_S=0.4684, alpha_A=0.09984, alpha_S=0.06283, p=0.02, rho=0.1097,
    psi_bar=0.9747, S0=98691.5, R0=1217.0, IA0=90.0, IS0=1.5,
)


def replace_params(sc, **kw):
    return dataclasses.replace(sc, params=dataclasses.replace(sc.params, **kw))


class TestDerivedValues:
    # frozen anchors for the bundled city scenario
    def test_simple_arithmetic_fields(self, dc):
        assert dc.N == 100000.0
        assert dc.phi_plus == 44.0
        assert dc.beta_tilde == 0.3712
        assert dc.zeta == 49.0
        assert dc.alpha_S_eff == 0.1
        assert dc.mu == 0.477

    def test_composite_fields(self, dc):
        assert dc.S_min == pytest.approx(1.5164527184462828e-15, rel=1e-12)
        assert dc.A_const == pytest.approx(0.354, rel=1e-12)
        assert dc.B_const == pytest.approx(0.0086, rel=1e-12)
        assert dc.K_psi_bar == pytest.approx(0.9823529411764705, rel=1e-12)
        assert dc.M1 == pytest.approx(0.001737185882352929, rel=1e-12)
        assert dc.M2 == pytest.approx(0.00024197065882352938, rel=1e-12)
        assert dc.M3 == pytest.approx(0.4653002484762887, rel=1e-12)
        assert dc.psi_floor == pytest.approx(0.3045294117647059, rel=1e-12)
        assert dc.M2 / dc.M1 == pytest.approx(0.13928887016730332, rel=1e-12)

    def test_idempotent(self, scenario, dc):
        assert derive_constants(scenario) == dc

    def test_zeta_takes_initial_ratio_when_larger(self):
        # IA0/IS0 = 490 dominates the (1-p)beta_S/B bound of 49
        sc = make_scenario(IA0=490.0)
        assert derive_constants(sc).zeta == 490.0

    def test_mu_floor(self):
        # with no transmission both growth estimates are negative
        sc = make_scenario(beta_A=0.0, beta_S=0.0)
        assert derive_constants(sc).mu == 1e-6


# Every derived constant and every A1-A3/A6 lhs and rhs of the bundled city
# and the interior scenario, as the scalar float code computed them before
# the derivations ran on columns. Compared with ==, not approx.
EXACT = {
    "scenario": (
        {
            "N": 100000.0,
            "phi_plus": 44.0,
            "S_min": 1.5164527184462828e-15,
            "beta_tilde": 0.3712,
            "A_const": 0.354,
            "B_const": 0.0086,
            "zeta": 49.0,
            "K_psi_bar": 0.9823529411764705,
            "M1": 0.001737185882352929,
            "M2": 0.00024197065882352938,
            "M3": 0.4653002484762887,
            "mu": 0.477,
            "psi_floor": 0.3045294117647059,
            "alpha_S_eff": 0.1,
        },
        {
            "A1.1": (0.02, 0.0),
            "A1.2": (0.15, 1.0),
            "A1.3": (0.1, 0.1),
            "A1.4": (1.0, 56.666666666666664),
            "A1.5": (0.001737185882352929, 0.0),
            "A2.1": (89950.0, 0.0),
            "A2.2": (10000.0, 0.0),
            "A2.3": (1.0, 0.0),
            "A2.4": (49.0, 49.0),
            "A3": (44.0, 0.4653002484762887),
            "A6.1": (12890.51719748017, 1.0),
            "A6.2": (173.7185882352929, 18.56),
        },
    ),
    "interior_scenario": (
        {
            "N": 99991.5,
            "phi_plus": 44.0,
            "S_min": 317.2889117450356,
            "beta_tilde": 0.3712,
            "A_const": 2.134648604216869,
            "B_const": 0.0014598322569932683,
            "zeta": 288.66330222619763,
            "K_psi_bar": 0.9832352941176471,
            "M1": 0.06922566197467961,
            "M2": 0.00034971934967413396,
            "M3": 0.054169109363315246,
            "mu": 0.482,
            "psi_floor": 0.8849117647058824,
            "alpha_S_eff": 0.1,
        },
        {
            "A1.1": (0.02, 0.0),
            "A1.2": (0.15, 1.0),
            "A1.3": (0.095, 0.1),
            "A1.4": (1.0, 59.64912280701755),
            "A1.5": (0.06922566197467961, 0.0),
            "A2.1": (49900.0, 0.0),
            "A2.2": (50000.0, 0.0),
            "A2.3": (1.5, 0.0),
            "A2.4": (90.0, 73.5),
            "A3": (44.0, 0.054169109363315246),
            "A6.1": (197219.54419014303, 1.0),
            "A6.2": (40100.85883000655, 107.23542182369313),
        },
    ),
}


class TestExactValues:
    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_constants_and_conditions_bit_exact(self, request, name):
        sc = request.getfixturevalue(name)
        constants, conditions = EXACT[name]
        dc = derive_constants(sc)
        values = {f.name: getattr(dc, f.name) for f in dataclasses.fields(dc)}
        assert values == constants
        report = check_sigma_rob(sc, dc)
        assert {c.name: (c.lhs, c.rhs) for c in report.conditions} == conditions
        # Python floats and bools, whose repr the CLI prints
        assert {type(v) for v in values.values()} == {float}
        assert {type(v) for c in report.conditions for v in (c.lhs, c.rhs)} == {float}
        assert {type(v) for c in report.conditions for v in (c.passed, c.vacuous)} == {bool}


# Ordinary values and the edges where float arithmetic needs care: zeros,
# subnormals, huge and infinite values, the ends of the unit interval.
_UNIT_VALUE = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1.0]), st.floats(0.0, 1.0))
_NONNEGATIVE_VALUE = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300, math.inf]), st.floats(0.0, 1e5))
_SCENARIO_VALUES = st.fixed_dictionaries({
    k: _UNIT_VALUE if i < 10 or k == "psi0" else _NONNEGATIVE_VALUE
    for i, k in enumerate(SCENARIO_KEYS)
})


def _rows(conditions):
    return repr([(c.name, c.passed, c.lhs, c.rhs, c.vacuous) for c in conditions])


class TestMatchesScalarReference:
    @settings(max_examples=400, deadline=None)
    @given(values=_SCENARIO_VALUES, fracs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    # near the interior scenario, where np.exp differs from math.exp in S_min
    @example(values=dict(
        beta_A=0.3946, beta_S=0.4431, alpha_A=0.0902, alpha_S=0.0924, p=0.0198, rho=0.1582,
        gamma_0=1.0, gamma_1=0.9367, psi_bar=0.8633, gamma_K=1.0, S0=46337.1608,
        IA0=81.2473, IS0=1.4802, R0=52621.9717, D0=0.0, psi0=1.0, n_icu=40.9133, xi=0.0965,
    ), fracs=(0.5, 0.25))
    # and where A_const*A_const differs from A_const**2 enough to move B_const
    @example(values=dict(
        beta_A=0.3742, beta_S=0.4051, alpha_A=0.0888, alpha_S=0.0771, p=0.0211, rho=0.1543,
        gamma_0=0.9225, gamma_1=1.0, psi_bar=0.9494, gamma_K=0.9041, S0=51641.5503,
        IA0=82.8582, IS0=1.5431, R0=45728.0244, D0=0.0, psi0=1.0, n_icu=41.7005, xi=0.0945,
    ), fracs=(0.5, 0.25))
    def test_bit_identical_to_per_scenario_floats(self, values, fracs):
        # repr tells nan from nan-free, -0.0 from 0.0 and a Python float or
        # bool from a numpy one
        try:
            sc = Scenario.from_values(values)
        except ValueError:
            return
        try:
            expected = scalar_reference.derive(sc)
        except DerivationError as exc:
            with pytest.raises(DerivationError) as got:
                derive_constants(sc)
            assert str(got.value) == str(exc)
            return
        except ZeroDivisionError:
            return  # a product underflowed to zero; no scalar value to compare
        dc = derive_constants(sc)
        assert repr(dataclasses.asdict(dc)) == repr(expected)
        rob = scalar_reference.rob_conditions(sc, dc)
        assert _rows(check_sigma_rob(sc, dc).conditions) == repr(rob)
        assert _rows(check_sigma(sc, dc).conditions) == repr(rob[:10])
        try:
            cp = ControllerParams(fracs[0] * dc.phi_plus, fracs[1] * dc.phi_plus, dc.phi_plus)
            cz = scalar_reference.cz_conditions(cp, sc, dc)
        except (ValueError, ZeroDivisionError):
            return  # no such pair, or p = 0 or M1 = 0 (see TestInCZ)
        assert _rows(in_CZ(cp, sc, dc).conditions) == repr(cz)


class TestDerivationErrors:
    def test_zero_severe_start(self):
        with pytest.raises(DerivationError, match="IS0"):
            derive_constants(make_scenario(IS0=0.0))

    def test_rho_one(self):
        with pytest.raises(DerivationError, match="rho"):
            derive_constants(make_scenario(rho=1.0))

    def test_zero_recovery_rate(self):
        with pytest.raises(DerivationError, match="alpha"):
            derive_constants(make_scenario(alpha_A=0.0))

    def test_zero_initial_recovered(self):
        with pytest.raises(DerivationError, match="R0"):
            derive_constants(make_scenario(R0=0.0))

    def test_a_const_square_overflow(self):
        with pytest.raises(DerivationError, match="A_const"):
            derive_constants(make_scenario(**A_CONST_OVERFLOW))

    def test_negative_r0_row_is_masked_in_a_batch(self, interior_scenario):
        # with R0 < 0 the S_min exponent is large and positive, so exp overflows
        values = interior_scenario.values()
        columns = _columns({k: np.array([v, -1.0 if k == "R0" else v]) for k, v in values.items()})
        dc, undefined = _derive(columns)
        flagged = [message for rows, message in undefined if rows[1]]
        assert flagged == ["S_min undefined: R0 = {R0!r}"]
        assert not any(rows[0] for rows, _ in undefined)
        row0 = {f.name: getattr(dc, f.name)[0].item() for f in dataclasses.fields(dc)}
        assert row0 == dataclasses.asdict(derive_constants(interior_scenario))


class TestDegenerateButReportable:
    def test_p_zero_flows_through(self):
        sc = make_scenario(p=0.0)
        dc = derive_constants(sc)
        assert math.isinf(dc.M2)
        assert math.isnan(dc.M3)
        rep = check_sigma(sc, dc)
        a11 = next(c for c in rep.conditions if c.name == "A1.1")
        assert not a11.passed
        assert not rep.in_sigma

    def test_rho_zero_makes_a14_vacuous(self):
        sc = make_scenario(rho=0.0)
        rep = check_sigma(sc, derive_constants(sc))
        a14 = next(c for c in rep.conditions if c.name == "A1.4")
        assert a14.passed and a14.vacuous
        assert math.isinf(a14.rhs)

    def test_nonvacuous_a14_not_flagged(self, scenario, dc):
        a14 = next(c for c in check_sigma(scenario, dc).conditions
                   if c.name == "A1.4")
        assert a14.passed and not a14.vacuous


class TestMembership:
    def test_city_in_sigma(self, scenario, dc):
        rep = check_sigma(scenario, dc)
        assert [c.name for c in rep.conditions] == [
            "A1.1", "A1.2", "A1.3", "A1.4", "A1.5",
            "A2.1", "A2.2", "A2.3", "A2.4", "A3",
        ]
        assert all(c.passed for c in rep.conditions)
        assert rep.in_sigma
        assert not rep.has_a6
        assert not rep.in_sigma_rob  # no A6 verdicts in a plain report

    def test_city_boundary_equalities(self, scenario, dc):
        # the scenario sits exactly ON two of the closed boundaries
        rep = check_sigma(scenario, dc)
        a13 = next(c for c in rep.conditions if c.name == "A1.3")
        a24 = next(c for c in rep.conditions if c.name == "A2.4")
        assert a13.lhs == a13.rhs == 0.1
        assert a24.lhs == a24.rhs == 49.0

    def test_city_in_sigma_rob(self, scenario, dc):
        rep = check_sigma_rob(scenario, dc)
        assert rep.has_a6 and rep.a6_ok and rep.in_sigma_rob
        a61 = next(c for c in rep.conditions if c.name == "A6.1")
        a62 = next(c for c in rep.conditions if c.name == "A6.2")
        assert a61.lhs == pytest.approx(12890.51719748017, rel=1e-12)
        assert a62.lhs == pytest.approx(173.7185882352929, rel=1e-12)
        assert a62.rhs == pytest.approx(18.56, rel=1e-12)

    def test_membership_fails_off_boundary(self, scenario):
        # nudging alpha_A above alpha_S/(1-rho) breaks A1.3
        sc = replace_params(scenario, alpha_A=0.11)
        rep = check_sigma(sc, derive_constants(sc))
        assert not next(c for c in rep.conditions if c.name == "A1.3").passed
        assert not rep.in_sigma

    def test_empty_report(self):
        rep = AssumptionReport()
        assert not rep.in_sigma and not rep.in_sigma_rob


class TestScaling:
    # population rescaling (S0, IA0, IS0, R0, n_icu) -> k * (...):
    # rate-like constants are invariant, count-like ones scale by k,
    # M2 scales by 1/k and M3 follows it (up to a small 1/k^2 correction
    # inside one factor).
    def test_rescaled_constants(self, scenario, dc):
        k = 10.0
        ini = scenario.init
        sc_k = make_scenario(
            S0=ini.S0 * k, IA0=ini.IA0 * k, IS0=ini.IS0 * k, R0=ini.R0 * k,
            n_icu=scenario.capacity.n_icu * k,
        )
        dck = derive_constants(sc_k)
        assert dck.N == dc.N * k
        assert dck.phi_plus == pytest.approx(dc.phi_plus * k, rel=1e-12)
        assert dck.S_min == pytest.approx(dc.S_min * k, rel=1e-9)
        assert dck.beta_tilde == dc.beta_tilde
        assert dck.zeta == dc.zeta
        assert dck.K_psi_bar == dc.K_psi_bar
        assert dck.mu == dc.mu
        assert dck.M1 == pytest.approx(dc.M1, rel=1e-12)
        assert dck.M2 * k == pytest.approx(dc.M2, rel=1e-12)
        assert dck.M3 < dc.M3
        assert dck.M3 * k == pytest.approx(dc.M3, rel=1e-3)

    def test_rescaled_membership(self, scenario, dc):
        k = 10.0
        ini = scenario.init
        sc_k = make_scenario(
            S0=ini.S0 * k, IA0=ini.IA0 * k, IS0=ini.IS0 * k, R0=ini.R0 * k,
            n_icu=scenario.capacity.n_icu * k,
        )
        assert check_sigma_rob(sc_k, derive_constants(sc_k)).in_sigma_rob

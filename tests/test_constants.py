"""Derived constants and admissibility verdicts.

The numeric anchors below were computed by hand from the defining formulas
(independently of this package) and are treated as frozen regression values.
"""

import dataclasses
import math

import pytest

from icufunnel import (
    AssumptionReport,
    DerivationError,
    check_sigma,
    check_sigma_rob,
    derive_constants,
)
from test_model import make_scenario


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

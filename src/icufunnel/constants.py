"""Derived constants and admissibility checks for a scenario.

The switching analysis rests on a chain of scalar constants computed from the
scenario (worst-case susceptible floor S_min, infection-ratio bound zeta,
threshold-growth coefficients M1..M3, ...). This module derives them all and
evaluates the admissibility conditions: A1-A3 define the basic admissible set,
A6 adds the technical conditions used by the robustness and monotonicity
arguments.

Comparisons are evaluated exactly as written, with no epsilon slack; where a
condition degenerates to a comparison against infinity (a zero denominator on
the harmless side), it is treated as holding and flagged vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import Scenario

__all__ = [
    "DerivedConstants",
    "Condition",
    "AssumptionReport",
    "DerivationError",
    "derive_constants",
    "check_sigma",
    "check_sigma_rob",
]


# Positive floor (1/day) for the growth-rate bound mu, keeping the up-dwell
# logarithm well defined.
_MU_FLOOR = 1e-6


class DerivationError(ValueError):
    """A derived constant is structurally undefined for this scenario."""


def _div(num: float, den: float) -> float:
    """IEEE-style float division: x/0 is signed inf, 0/0 is nan."""
    if den != 0.0:
        return num / den
    if num == 0.0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num)


@dataclass(frozen=True)
class DerivedConstants:
    """All scalar constants derived from one scenario.

    Units: N, phi_plus, S_min, M3 in individuals; beta_tilde, A_const,
    B_const, M1, mu, alpha_S_eff in 1/day; M2 in 1/(day*individual); zeta,
    K_psi_bar, psi_floor dimensionless.
    """

    N: float
    phi_plus: float
    S_min: float
    beta_tilde: float
    A_const: float
    B_const: float
    zeta: float
    K_psi_bar: float
    M1: float
    M2: float
    M3: float
    mu: float
    psi_floor: float
    alpha_S_eff: float  # alpha_S / (1 - rho), total symptomatic removal rate


@dataclass(frozen=True)
class Condition:
    """One admissibility sub-condition with the values it compared."""

    name: str          # e.g. "A1.3"
    description: str
    passed: bool
    lhs: float
    rhs: float
    vacuous: bool = False  # held only because a degenerate bound is infinite


@dataclass(frozen=True)
class AssumptionReport:
    """Verdicts for the admissibility conditions of one scenario.

    Reports from :func:`check_sigma` carry A1-A3 only; reports from
    :func:`check_sigma_rob` additionally carry A6 (and only those can
    assert robust-set membership).
    """

    conditions: tuple[Condition, ...] = field(default=())

    def _group_ok(self, prefix: str) -> bool:
        group = [c for c in self.conditions if c.name.startswith(prefix)]
        return bool(group) and all(c.passed for c in group)

    @property
    def a1_ok(self) -> bool:
        return self._group_ok("A1")

    @property
    def a2_ok(self) -> bool:
        return self._group_ok("A2")

    @property
    def a3_ok(self) -> bool:
        return self._group_ok("A3")

    @property
    def a6_ok(self) -> bool:
        return self._group_ok("A6")

    @property
    def has_a6(self) -> bool:
        return any(c.name.startswith("A6") for c in self.conditions)

    @property
    def in_sigma(self) -> bool:
        return self.a1_ok and self.a2_ok and self.a3_ok

    @property
    def in_sigma_rob(self) -> bool:
        return self.in_sigma and self.has_a6 and self.a6_ok


def derive_constants(scenario: Scenario) -> DerivedConstants:
    """Compute every derived constant for a scenario.

    mu is floored at _MU_FLOOR.

    Returns:
        DerivedConstants, every field computed literally from its defining
        formula. Degenerate divisions with a harmless direction (for example
        p = 0) flow through as IEEE inf/nan so that admissibility reports can
        still be produced; structurally undefined cases raise
        DerivationError naming the offending field.
    """
    pm = scenario.params
    ini = scenario.init
    if ini.IS0 <= 0.0:
        raise DerivationError(f"zeta undefined: IS0 = {ini.IS0!r}")
    if pm.rho >= 1.0:
        raise DerivationError(f"symptomatic removal rate undefined: rho = {pm.rho!r}")
    if min(pm.alpha_A, pm.alpha_S) <= 0.0:
        raise DerivationError("S_min undefined: min{alpha_A, alpha_S} = 0")
    if ini.R0 <= 0.0:
        raise DerivationError(f"S_min undefined: R0 = {ini.R0!r}")

    # Conserved population of the switching analysis; initial deaths excluded
    # by definition (the closed-loop setting requires D0 = 0 anyway).
    N = ini.S0 + ini.IA0 + ini.IS0 + ini.R0
    phi_plus = scenario.capacity.phi_plus()
    alpha_S_eff = pm.alpha_S / (1.0 - pm.rho)
    K_psi_bar = 1.0 - pm.gamma_K * pm.rho * pm.alpha_A / (1.0 - pm.rho)
    psi_floor = K_psi_bar * pm.psi_bar

    S_min = ini.S0 * math.exp(
        -max(pm.beta_A, pm.beta_S) * (N - ini.R0) / (min(pm.alpha_A, pm.alpha_S) * ini.R0)
    )
    beta_tilde = pm.p * pm.beta_S + (1.0 - pm.p) * pm.beta_A

    A_const = (
        (1.0 - pm.p) * pm.beta_A
        - pm.p * pm.beta_S
        + _div((alpha_S_eff - pm.alpha_A) * N, K_psi_bar * pm.psi_bar * S_min)
    )
    cross = pm.p * (1.0 - pm.p) * pm.beta_A * pm.beta_S
    if A_const > 0.0:
        # Algebraically equal to -A/2 + sqrt(A^2/4 + cross) but immune to the
        # cancellation (and to inf - inf) when the S_min term dominates.
        B_const = _div(cross, A_const / 2.0 + math.sqrt(A_const**2 / 4.0 + cross))
    else:
        B_const = -A_const / 2.0 + math.sqrt(A_const**2 / 4.0 + cross)

    zeta = max(ini.IA0 / ini.IS0, _div((1.0 - pm.p) * pm.beta_S, B_const))

    M1 = K_psi_bar * pm.psi_bar * beta_tilde * (1.0 - ini.R0 / N) - pm.alpha_A
    M2 = _div((1.0 + K_psi_bar * pm.psi_bar) * beta_tilde, pm.p * N) - pm.rho * pm.alpha_S / (
        (1.0 - pm.rho) * N
    )
    M3 = (
        pm.p
        * (pm.beta_A * zeta + pm.beta_S)
        * (1.0 - ini.R0 / N - _div(M2, pm.p * N * M1))
        * _div((1.0 - pm.rho) * M2, pm.alpha_S * M1)
    )
    mu = max(
        (1.0 + pm.p) / 2.0 * pm.beta_S + pm.p / 2.0 * pm.beta_A - alpha_S_eff,
        (2.0 - pm.p) / 2.0 * pm.beta_A + (1.0 - pm.p) / 2.0 * pm.beta_S - pm.alpha_A,
        _MU_FLOOR,
    )

    return DerivedConstants(
        N=N,
        phi_plus=phi_plus,
        S_min=S_min,
        beta_tilde=beta_tilde,
        A_const=A_const,
        B_const=B_const,
        zeta=zeta,
        K_psi_bar=K_psi_bar,
        M1=M1,
        M2=M2,
        M3=M3,
        mu=mu,
        psi_floor=psi_floor,
        alpha_S_eff=alpha_S_eff,
    )


def _sigma_conditions(scenario: Scenario, dc: DerivedConstants) -> list[Condition]:
    pm = scenario.params
    ini = scenario.init

    a14_rhs = _div(1.0 - pm.rho, pm.rho * pm.alpha_A)
    a24_rhs = _div((1.0 - pm.p) * ini.IS0, pm.p)
    a3_rhs = max(_div(dc.M2, dc.M1), dc.M3)

    return [
        Condition("A1.1", "p > 0", pm.p > 0.0, pm.p, 0.0),
        Condition("A1.2", "rho < 1", pm.rho < 1.0, pm.rho, 1.0),
        Condition(
            "A1.3",
            "0 < alpha_A <= alpha_S/(1-rho)",
            0.0 < pm.alpha_A <= dc.alpha_S_eff,
            pm.alpha_A,
            dc.alpha_S_eff,
        ),
        Condition(
            "A1.4",
            "gamma_K < (1-rho)/(rho*alpha_A)",
            pm.gamma_K < a14_rhs,
            pm.gamma_K,
            a14_rhs,
            vacuous=math.isinf(a14_rhs),
        ),
        Condition("A1.5", "M1 > 0", dc.M1 > 0.0, dc.M1, 0.0),
        Condition("A2.1", "S0 > 0", ini.S0 > 0.0, ini.S0, 0.0),
        Condition("A2.2", "R0 > 0", ini.R0 > 0.0, ini.R0, 0.0),
        Condition("A2.3", "IS0 > 0", ini.IS0 > 0.0, ini.IS0, 0.0),
        Condition(
            "A2.4",
            "IA0 >= (1-p)/p * IS0",
            ini.IA0 >= a24_rhs,
            ini.IA0,
            a24_rhs,
        ),
        Condition(
            "A3",
            "phi_plus > max{M2/M1, M3}",
            dc.phi_plus > a3_rhs,
            dc.phi_plus,
            a3_rhs,
        ),
    ]


def check_sigma(scenario: Scenario, dc: DerivedConstants) -> AssumptionReport:
    """Evaluate the basic admissibility conditions A1-A3.

    A report is always produced; a comparison that degenerates to "< inf"
    because of a zero denominator holds vacuously and is flagged.
    """
    return AssumptionReport(conditions=tuple(_sigma_conditions(scenario, dc)))


def check_sigma_rob(scenario: Scenario, dc: DerivedConstants) -> AssumptionReport:
    """Evaluate A1-A3 plus the technical robustness conditions A6."""
    pm = scenario.params
    ini = scenario.init
    conditions = _sigma_conditions(scenario, dc)

    a61_lhs = (_div(1.0, dc.M2) - _div(1.0 - pm.rho, pm.alpha_S)) * (
        pm.p * dc.N * dc.M1 - pm.p * ini.R0 * dc.M1 - dc.M2
    )
    z = pm.beta_A * dc.zeta + pm.beta_S
    a62_lhs = pm.p * dc.N * dc.M1 * (dc.zeta + 1.0)

    conditions.append(
        Condition(
            "A6.1",
            "(1/M2 - (1-rho)/alpha_S) * (p*N*M1 - p*R0*M1 - M2) > 1",
            a61_lhs > 1.0,
            a61_lhs,
            1.0,
        )
    )
    conditions.append(
        Condition(
            "A6.2",
            "p*N*M1*(zeta+1) > beta_A*zeta + beta_S",
            a62_lhs > z,
            a62_lhs,
            z,
        )
    )
    return AssumptionReport(conditions=tuple(conditions))

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

Each formula is written once, on columns: a scenario's coordinates as arrays
with one entry per scenario (see model._columns). The public functions pass
a one-row batch and return Python floats and bools; robustness_probe passes
all its perturbed scenarios at once. Every value is bit-identical to Python
float arithmetic: divisions by zero go through _div, max through _max, and
exp and squares through the math library one element at a time (_libm,
inf where they overflow), because numpy's exp and x*x differ from it in the
last bit on some inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .model import CapacityPolicy, Scenario, _columns

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


def _div(num, den):
    """IEEE-style division of floats or arrays: x/0 is signed inf, 0/0 is nan.

    Adding 0.0 turns a -0.0 denominator into +0.0 and leaves every other
    value alone, so x/0 takes the sign of x only. Callers run under
    np.errstate, which silences the division warnings.
    """
    return np.divide(num, den + 0.0)


def _max(first, *rest):
    """Python's max on floats or arrays, element by element.

    A later value replaces the current one only where it is strictly
    greater, so a leading nan is kept and a later nan ignored (np.maximum
    would propagate both).
    """
    for value in rest:
        first = np.where(value > first, value, first)
    return first


def _libm(f, x):
    """f(x) in Python float arithmetic (libm exp, pow), or f at each entry of
    the column x; inf where that overflows.

    numpy's exp and x*x round differently in the last bit on some inputs
    (x*x and np.square for about 0.08 % of floats). A column is mapped in one
    comprehension, and entry by entry only when some entry overflows.
    """
    column = isinstance(x, np.ndarray)
    try:
        return np.array([f(v) for v in x.tolist()]) if column else f(x)
    except OverflowError:
        return np.array([_libm(f, v) for v in x.tolist()]) if column else math.inf


def _first(value):
    """The first entry of a column (or a plain value) as a Python scalar."""
    return np.ravel(value)[0].item()


def _one_row(scenario: Scenario):
    """The scenario as a batch of one."""
    return _columns({k: np.array([v]) for k, v in scenario.values().items()})


@dataclass(frozen=True)
class DerivedConstants:
    """All scalar constants derived from one scenario.

    Units: N, phi_plus, S_min, M3 in individuals; beta_tilde, A_const,
    B_const, M1, mu, alpha_S_eff in 1/day; M2 in 1/(day*individual); zeta,
    K_psi_bar, psi_floor dimensionless. Fields are floats; inside the
    batched robustness probe they are arrays, one value per scenario.
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


def _group_ok(conditions, prefix: str) -> bool:
    """The one verdict rule over named conditions.

    The group of conditions whose names start with prefix passes when it is
    non-empty and every member passed. AssumptionReport and
    controller.CZReport both read it.
    """
    group = [c for c in conditions if c.name.startswith(prefix)]
    return bool(group) and all(c.passed for c in group)


@dataclass(frozen=True)
class AssumptionReport:
    """Verdicts for the admissibility conditions of one scenario.

    Reports from :func:`check_sigma` carry A1-A3 only; reports from
    :func:`check_sigma_rob` additionally carry A6 (and only those can
    assert robust-set membership). Each group is judged by _group_ok: it
    passes only when present and all its conditions passed, so an empty
    or partial report certifies nothing.
    """

    conditions: tuple[Condition, ...] = field(default=())

    @property
    def a1_ok(self) -> bool:
        return _group_ok(self.conditions, "A1")

    @property
    def a2_ok(self) -> bool:
        return _group_ok(self.conditions, "A2")

    @property
    def a3_ok(self) -> bool:
        return _group_ok(self.conditions, "A3")

    @property
    def a6_ok(self) -> bool:
        return _group_ok(self.conditions, "A6")

    @property
    def has_a6(self) -> bool:
        return any(c.name.startswith("A6") for c in self.conditions)

    @property
    def in_sigma(self) -> bool:
        return self.a1_ok and self.a2_ok and self.a3_ok

    @property
    def in_sigma_rob(self) -> bool:
        return self.in_sigma and self.a6_ok


@np.errstate(all="ignore")
def _derive(scenario) -> tuple[DerivedConstants, tuple[tuple[np.ndarray, str], ...]]:
    """Every derived constant of a batch of scenarios, and where each is undefined.

    scenario holds columns (see model._columns), and every field of the
    returned DerivedConstants is an array over the same rows. The second
    value lists the DerivationErrors of derive_constants in the order it
    checks them, each as (rows where it applies, message template over the
    scenario coordinates and the constants). Values on those rows are
    meaningless.
    """
    pm = scenario.params
    ini = scenario.init
    alpha_min = np.where(pm.alpha_S < pm.alpha_A, pm.alpha_S, pm.alpha_A)  # Python's min()

    # Conserved population of the switching analysis; initial deaths excluded
    # by definition (the closed-loop setting requires D0 = 0 anyway).
    N = ini.S0 + ini.IA0 + ini.IS0 + ini.R0
    phi_plus = CapacityPolicy.phi_plus(scenario.capacity)
    alpha_S_eff = pm.alpha_S / (1.0 - pm.rho)
    K_psi_bar = 1.0 - pm.gamma_K * pm.rho * pm.alpha_A / (1.0 - pm.rho)
    psi_floor = K_psi_bar * pm.psi_bar

    exponent = -_max(pm.beta_A, pm.beta_S) * (N - ini.R0) / (alpha_min * ini.R0)
    S_min = ini.S0 * _libm(math.exp, exponent)
    beta_tilde = pm.p * pm.beta_S + (1.0 - pm.p) * pm.beta_A

    A_const = (
        (1.0 - pm.p) * pm.beta_A
        - pm.p * pm.beta_S
        + _div((alpha_S_eff - pm.alpha_A) * N, K_psi_bar * pm.psi_bar * S_min)
    )
    cross = pm.p * (1.0 - pm.p) * pm.beta_A * pm.beta_S
    A_sq = _libm(lambda a: a**2, A_const)
    root = np.sqrt(A_sq / 4.0 + cross)
    # Where A > 0, -A/2 + sqrt(A^2/4 + cross) is taken in the algebraically
    # equal form below, immune to the cancellation (and to inf - inf) when
    # the S_min term dominates.
    B_const = np.where(A_const > 0.0, _div(cross, A_const / 2.0 + root), -A_const / 2.0 + root)

    zeta = _max(ini.IA0 / ini.IS0, _div((1.0 - pm.p) * pm.beta_S, B_const))

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
    mu = _max(
        (1.0 + pm.p) / 2.0 * pm.beta_S + pm.p / 2.0 * pm.beta_A - alpha_S_eff,
        (2.0 - pm.p) / 2.0 * pm.beta_A + (1.0 - pm.p) / 2.0 * pm.beta_S - pm.alpha_A,
        _MU_FLOOR,
    )

    undefined = (
        (ini.IS0 <= 0.0, "zeta undefined: IS0 = {IS0!r}"),
        (pm.rho >= 1.0, "symptomatic removal rate undefined: rho = {rho!r}"),
        (alpha_min <= 0.0, "S_min undefined: min{{alpha_A, alpha_S}} = 0"),
        (ini.R0 <= 0.0, "S_min undefined: R0 = {R0!r}"),
        (np.isinf(A_sq) & np.isfinite(A_const),
         "B_const undefined: A_const**2 overflows (A_const = {A_const!r})"),
    )
    dc = DerivedConstants(
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
    return dc, undefined


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
    columns, undefined = _derive(_one_row(scenario))
    values = {f.name: _first(getattr(columns, f.name)) for f in fields(columns)}
    for rows, message in undefined:
        if rows[0]:
            raise DerivationError(message.format(**scenario.values(), **values))
    return DerivedConstants(**values)


@np.errstate(all="ignore")
def _sigma_conditions(scenario, dc: DerivedConstants) -> list[Condition]:
    """A1-A3 on columns: each passed, lhs and rhs holds one value per row."""
    pm = scenario.params
    ini = scenario.init

    a14_rhs = _div(1.0 - pm.rho, pm.rho * pm.alpha_A)
    a24_rhs = _div((1.0 - pm.p) * ini.IS0, pm.p)
    a3_rhs = _max(_div(dc.M2, dc.M1), dc.M3)

    return [
        Condition("A1.1", "p > 0", pm.p > 0.0, pm.p, 0.0),
        Condition("A1.2", "rho < 1", pm.rho < 1.0, pm.rho, 1.0),
        Condition(
            "A1.3",
            "0 < alpha_A <= alpha_S/(1-rho)",
            (0.0 < pm.alpha_A) & (pm.alpha_A <= dc.alpha_S_eff),
            pm.alpha_A,
            dc.alpha_S_eff,
        ),
        Condition(
            "A1.4",
            "gamma_K < (1-rho)/(rho*alpha_A)",
            pm.gamma_K < a14_rhs,
            pm.gamma_K,
            a14_rhs,
            vacuous=np.isinf(a14_rhs),
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


@np.errstate(all="ignore")
def _sigma_rob_conditions(scenario, dc: DerivedConstants) -> list[Condition]:
    """A1-A3 plus A6 on columns (see _sigma_conditions)."""
    pm = scenario.params
    ini = scenario.init

    a61_lhs = (_div(1.0, dc.M2) - _div(1.0 - pm.rho, pm.alpha_S)) * (
        pm.p * dc.N * dc.M1 - pm.p * ini.R0 * dc.M1 - dc.M2
    )
    z = pm.beta_A * dc.zeta + pm.beta_S
    a62_lhs = pm.p * dc.N * dc.M1 * (dc.zeta + 1.0)

    return _sigma_conditions(scenario, dc) + [
        Condition(
            "A6.1",
            "(1/M2 - (1-rho)/alpha_S) * (p*N*M1 - p*R0*M1 - M2) > 1",
            a61_lhs > 1.0,
            a61_lhs,
            1.0,
        ),
        Condition(
            "A6.2",
            "p*N*M1*(zeta+1) > beta_A*zeta + beta_S",
            a62_lhs > z,
            a62_lhs,
            z,
        ),
    ]


def _first_rows(conditions) -> tuple[Condition, ...]:
    """Conditions on a one-row batch, with Python floats and bools."""
    return tuple(
        Condition(c.name, c.description, *map(_first, (c.passed, c.lhs, c.rhs, c.vacuous)))
        for c in conditions
    )


def check_sigma(scenario: Scenario, dc: DerivedConstants) -> AssumptionReport:
    """Evaluate the basic admissibility conditions A1-A3.

    A report is always produced; a comparison that degenerates to "< inf"
    because of a zero denominator holds vacuously and is flagged.
    """
    return AssumptionReport(conditions=_first_rows(_sigma_conditions(_one_row(scenario), dc)))


def check_sigma_rob(scenario: Scenario, dc: DerivedConstants) -> AssumptionReport:
    """Evaluate A1-A3 plus the technical robustness conditions A6."""
    return AssumptionReport(
        conditions=_first_rows(_sigma_rob_conditions(_one_row(scenario), dc))
    )

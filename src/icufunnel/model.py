"""Compartmental epidemic model with a population-response state.

Five compartments (susceptible S, asymptomatic infected I_A, symptomatic
infected I_S, recovered R, deceased D) plus a response state psi that scales
the effective contact rates. A binary input u drives psi: u = 0 relaxes it
toward 1 (no restrictions), u = 1 pulls it down toward a prevalence-dependent
floor (restrictions active). Time is measured in days, compartments in
individuals.

Everything here is a pure value or a pure function; simulation lives in
:mod:`icufunnel.simulator`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from operator import itemgetter
from types import SimpleNamespace

__all__ = [
    "EpidemicParams",
    "InitialState",
    "CapacityPolicy",
    "Scenario",
    "State",
    "SCENARIO_KEYS",
    "derivatives",
]


def _require_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _require_finite_nonnegative(name: str, value: float) -> None:
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got inf")


@dataclass(frozen=True)
class EpidemicParams:
    """Rate and fraction parameters of the epidemic and response dynamics.

    Attributes:
        beta_A: transmission rate via asymptomatic contacts (1/day).
        beta_S: transmission rate via symptomatic contacts (1/day).
        alpha_A: removal (recovery) rate of asymptomatic cases (1/day).
        alpha_S: recovery rate of symptomatic cases (1/day); the total
            symptomatic removal rate is alpha_S/(1-rho), recovery plus death.
        p: fraction of new infections that become symptomatic.
        rho: fatality fraction among symptomatic removals.
        gamma_0: response relaxation rate while u = 0 (1/day).
        gamma_1: response tightening rate while u = 1 (1/day).
        psi_bar: base response floor reached under sustained restrictions.
        gamma_K: gain of asymptomatic prevalence feedback on the floor.

    All ten fields must lie in [0, 1].
    """

    beta_A: float
    beta_S: float
    alpha_A: float
    alpha_S: float
    p: float
    rho: float
    gamma_0: float
    gamma_1: float
    psi_bar: float
    gamma_K: float

    def __post_init__(self) -> None:
        for name in _PARAMS_KEYS:
            _require_unit_interval(name, getattr(self, name))


@dataclass(frozen=True)
class InitialState:
    """Initial compartment values (finite, individuals) and response level psi0."""

    S0: float
    IA0: float
    IS0: float
    R0: float
    D0: float
    psi0: float

    def __post_init__(self) -> None:
        for name in ("S0", "IA0", "IS0", "R0", "D0"):
            _require_finite_nonnegative(name, getattr(self, name))
        _require_unit_interval("psi0", self.psi0)


@dataclass(frozen=True)
class CapacityPolicy:
    """ICU capacity and the tolerated relative overshoot.

    The upper corridor boundary for I_S is phi_plus() = (1 + xi) * n_icu,
    which must be positive and finite; the lower boundary is fixed at zero.
    """

    n_icu: float
    xi: float

    def __post_init__(self) -> None:
        _require_finite_nonnegative("n_icu", self.n_icu)
        _require_finite_nonnegative("xi", self.xi)
        if not self.phi_plus() > 0.0:
            raise ValueError("capacity bound (1 + xi) * n_icu must be > 0")
        if self.phi_plus() == math.inf:
            raise ValueError("capacity bound (1 + xi) * n_icu must be finite")

    def phi_plus(self) -> float:
        return (1.0 + self.xi) * self.n_icu


@dataclass(frozen=True)
class Scenario:
    """A complete problem instance: parameters, initial data, capacity.

    The total initial population must be positive and finite.
    """

    params: EpidemicParams
    init: InitialState
    capacity: CapacityPolicy

    def __post_init__(self) -> None:
        if not self.population() > 0.0:
            raise ValueError("total initial population must be > 0")
        if self.population() == math.inf:
            raise ValueError("total initial population must be finite")

    def population(self) -> float:
        """Conserved total N = S0 + IA0 + IS0 + R0 + D0."""
        i = self.init
        return i.S0 + i.IA0 + i.IS0 + i.R0 + i.D0

    def values(self) -> dict[str, float]:
        """The 18 scenario coordinates by name, in SCENARIO_KEYS order."""
        groups = (
            (self.params, _PARAMS_KEYS), (self.init, _INIT_KEYS), (self.capacity, _CAPACITY_KEYS),
        )
        return {k: getattr(group, k) for group, keys in groups for k in keys}

    @classmethod
    def from_values(cls, values: Mapping[str, float]) -> Scenario:
        """Build a scenario from coordinates by name; other names are ignored.

        Raises:
            KeyError: a coordinate is missing.
            ValueError: a coordinate is out of range.
        """
        return cls(
            params=EpidemicParams(*_params_of(values)),
            init=InitialState(*_init_of(values)),
            capacity=CapacityPolicy(*_capacity_of(values)),
        )


# Field names per group, taken once at import: Scenario.from_values runs per
# robustness-probe sample, where calling fields() each time is measurable.
# The value objects are read with getattr, never vars(): on CPython 3.11 an
# instance whose __dict__ was materialized reads its attributes about twice
# as slowly, and derive_constants reads them per probe sample.
_PARAMS_KEYS, _INIT_KEYS, _CAPACITY_KEYS = (
    tuple(f.name for f in fields(group))
    for group in (EpidemicParams, InitialState, CapacityPolicy)
)
# Each group's field values from a mapping, in declaration order.
_params_of, _init_of, _capacity_of = (
    itemgetter(*keys) for keys in (_PARAMS_KEYS, _INIT_KEYS, _CAPACITY_KEYS)
)
# The scenario coordinates in declaration order, which is also the key order
# of a scenario file's [scenario] section.
SCENARIO_KEYS = _PARAMS_KEYS + _INIT_KEYS + _CAPACITY_KEYS


def _columns(values: Mapping[str, object]) -> SimpleNamespace:
    """Coordinates grouped like a Scenario (params, init, capacity), unchecked.

    The values are arrays with one entry per scenario. The derivations in
    icufunnel.constants read a scenario only through these attributes and
    CapacityPolicy.phi_plus, so they evaluate a whole batch in one pass.
    """
    return SimpleNamespace(**{
        group: SimpleNamespace(**{k: values[k] for k in keys})
        for group, keys in (
            ("params", _PARAMS_KEYS), ("init", _INIT_KEYS), ("capacity", _CAPACITY_KEYS),
        )
    })


@dataclass(frozen=True)
class State:
    """Instantaneous model state at time t (days)."""

    S: float
    I_A: float
    I_S: float
    R: float
    D: float
    psi: float
    t: float

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.S, self.I_A, self.I_S, self.R, self.D, self.psi)


def derivatives(
    S: float,
    I_A: float,
    I_S: float,
    D: float,
    psi: float,
    u: int,
    params: EpidemicParams,
    N: float,
) -> tuple[float, float, float, float, float, float]:
    """Right-hand side of the dynamics on raw floats.

    Single source of truth for the arithmetic; the simulator calls it on
    each solver stage. R does not feed back, so it is not an argument.

    Returns:
        (dS, dI_A, dI_S, dR, dD, dpsi). The first five sum to zero in exact
        arithmetic (total population is conserved; D counts as population).
    """
    alive = N - D
    if alive <= 0.0:
        raise ValueError(f"degenerate population: N - D = {alive!r} <= 0")
    if params.rho >= 1.0:
        raise ValueError("rho must be < 1 to form the symptomatic removal rate")

    pm = params
    removal_S = pm.alpha_S / (1.0 - pm.rho)          # total symptomatic removal
    death_rate = pm.rho * removal_S                  # fatal share of removal
    force = (pm.beta_A * psi * I_A + pm.beta_S * psi * I_S) * S / alive

    # Response floor falls with asymptomatic prevalence.
    k_psi = 1.0 - pm.gamma_K * (pm.rho * pm.alpha_A / (1.0 - pm.rho)) * I_A / alive
    dpsi = pm.gamma_0 * (1.0 - psi) * (1 - u) + pm.gamma_1 * (k_psi * pm.psi_bar - psi) * u

    dS = -force
    dI_A = (1.0 - pm.p) * force - pm.alpha_A * I_A
    dI_S = pm.p * force - removal_S * I_S
    dR = pm.alpha_A * I_A + pm.alpha_S * I_S
    dD = death_rate * I_S
    return (dS, dI_A, dI_S, dR, dD, dpsi)

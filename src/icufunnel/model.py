"""Compartmental epidemic model with a population-response state.

Five compartments (susceptible S, asymptomatic infected I_A, symptomatic
infected I_S, recovered R, deceased D) plus a response state psi that scales
the effective contact rates. A binary input u drives psi: u = 0 relaxes it
toward 1 (no restrictions), u = 1 pulls it down toward a prevalence-dependent
floor (restrictions active). Time is measured in days, compartments in
individuals.

Everything here is a pure value or a pure function; simulation lives in
:mod:`icufunnel.simulator`. This module alone states a scenario's layout
(_LAYOUT: each Scenario attribute, its value class and that class's
coordinates) and what makes it valid: the per-coordinate range table
_RANGES, plus a capacity bound (1 + xi) * n_icu and a population that are
> 0 and finite. The constructors raise from these rules, and the
robustness probe clips to them (_clipped) and checks batches against them
(_batch).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np

__all__ = [
    "EpidemicParams",
    "InitialState",
    "CapacityPolicy",
    "Scenario",
    "State",
    "SCENARIO_KEYS",
    "derivatives",
]


class _Coordinates:
    """Base of the value classes: each field must lie in its _RANGES range.

    __post_init__ raises ValueError naming the first field outside it.
    """

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            lo, hi = _RANGES[f.name]
            if hi is not None and not lo <= value <= hi:
                raise ValueError(f"{f.name} must lie in [{lo:g}, {hi:g}], got {value!r}")
            if not value >= lo:
                raise ValueError(f"{f.name} must be >= {lo:g}, got {value!r}")
            if value == math.inf:
                raise ValueError(f"{f.name} must be finite, got inf")


def _require_positive_finite(what: str, value: float) -> None:
    """The capacity-bound and population rule on one scenario (see _batch)."""
    if not value > 0.0:
        raise ValueError(f"{what} must be > 0")
    if value == math.inf:
        raise ValueError(f"{what} must be finite")


@dataclass(frozen=True)
class EpidemicParams(_Coordinates):
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

    All ten fields must lie in [0, 1] (see _RANGES).
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


@dataclass(frozen=True)
class InitialState(_Coordinates):
    """Initial compartment values (finite, >= 0, individuals) and response level psi0 in [0, 1].

    The ranges come from _RANGES.
    """

    S0: float
    IA0: float
    IS0: float
    R0: float
    D0: float
    psi0: float


@dataclass(frozen=True)
class CapacityPolicy(_Coordinates):
    """ICU capacity and the tolerated relative overshoot.

    Both are finite and >= 0 (see _RANGES). The upper corridor boundary for
    I_S is phi_plus() = (1 + xi) * n_icu, which must be positive and finite;
    the lower boundary is fixed at zero.
    """

    n_icu: float
    xi: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive_finite("capacity bound (1 + xi) * n_icu", self.phi_plus())

    def phi_plus(self) -> float:
        return (1.0 + self.xi) * self.n_icu


@dataclass(frozen=True)
class Scenario:
    """A complete problem instance: parameters, initial data, capacity.

    The total initial population N must be positive and finite, and the
    living population N - D0 positive.
    """

    params: EpidemicParams
    init: InitialState
    capacity: CapacityPolicy

    def __post_init__(self) -> None:
        _require_positive_finite("total initial population", self.population())
        if not self.population() - self.init.D0 > 0.0:
            raise ValueError("living population N - D0 must be > 0")

    def population(self) -> float:
        """Conserved total N = S0 + IA0 + IS0 + R0 + D0."""
        i = self.init
        return i.S0 + i.IA0 + i.IS0 + i.R0 + i.D0

    def values(self) -> dict[str, float]:
        """The 18 scenario coordinates by name, in SCENARIO_KEYS order."""
        return {k: getattr(getattr(self, attr), k) for attr, _, keys in _LAYOUT for k in keys}

    @classmethod
    def from_values(cls, values: Mapping[str, float]) -> Scenario:
        """Build a scenario from coordinates by name; other names are ignored.

        Raises:
            KeyError: a coordinate is missing.
            ValueError: a coordinate is out of range.
        """
        return cls(**{
            attr: group(**{k: values[k] for k in keys}) for attr, group, keys in _LAYOUT
        })


# The scenario's layout, read from the declarations: each Scenario attribute,
# the value class it holds and that class's coordinates, in declaration order.
_LAYOUT = tuple(
    (attr, group, tuple(f.name for f in fields(group)))
    for attr, group in get_type_hints(Scenario).items()
)
# The scenario coordinates in declaration order, which is also the key order
# of a scenario file's [scenario] section.
SCENARIO_KEYS = tuple(k for _, _, keys in _LAYOUT for k in keys)
# The valid range (lowest, highest) of each coordinate; every coordinate is
# also finite. Rates, fractions and psi0 lie in [0, 1]; compartments and
# capacity have no upper bound (None).
_RANGES = {
    k: (0.0, 1.0) if group is EpidemicParams or k == "psi0" else (0.0, None)
    for _, group, keys in _LAYOUT for k in keys
}


def _columns(values: Mapping[str, object]) -> SimpleNamespace:
    """Coordinates grouped like a Scenario (params, init, capacity), unchecked.

    The values are arrays with one entry per scenario. The derivations in
    icufunnel.constants read a scenario only through these attributes and
    CapacityPolicy.phi_plus, so they evaluate a whole batch in one pass.
    """
    return SimpleNamespace(**{
        attr: SimpleNamespace(**{k: values[k] for k in keys}) for attr, _, keys in _LAYOUT
    })


@functools.cache
def _column_ranges(keys: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, list]:
    """_RANGES laid out for a matrix whose columns follow keys.

    Returns the lowest and the highest finite valid value of each column,
    and each range with the indices of the columns that share it. The
    result is cached per key order and shared, so callers must not modify it.
    """
    ranges = [_RANGES[k] for k in keys]
    lo, hi = np.array([(a, np.finfo(float).max if b is None else b) for a, b in ranges]).T
    return lo, hi, [(r, np.flatnonzero([c == r for c in ranges])) for r in dict.fromkeys(ranges)]


def _clipped(x: np.ndarray, keys: tuple[str, ...]) -> np.ndarray:
    """x (one scenario per row, columns named by keys) clipped into _RANGES, in place.

    Columns sharing a range are clipped with scalar bounds, which keeps a
    -0.0 in [0, 1] and, with no upper bound, makes it +0.0 (array bounds
    would make every -0.0 +0.0). nan stays nan.
    """
    for bounds, cols in _column_ranges(keys)[2]:
        x[:, cols] = x[:, cols].clip(*bounds)
    return x


@np.errstate(over="ignore", invalid="ignore")  # the bounds may overflow or meet 0 * inf
def _batch(x: np.ndarray, keys: tuple[str, ...]) -> tuple[SimpleNamespace, np.ndarray]:
    """Scenarios as columns (see _columns) and which of them the constructors accept.

    x holds one scenario per row, its columns named by keys. A row is
    accepted when every coordinate is finite and inside its _RANGES range,
    the capacity bound (1 + xi) * n_icu and the population are > 0 and
    finite, as in _require_positive_finite, and the living population
    N - D0 is > 0, as in Scenario.__post_init__. The ranges are checked in
    one array expression over x.
    """
    lo, hi, _ = _column_ranges(keys)
    sc = _columns(dict(zip(keys, x.T)))
    phi, n = CapacityPolicy.phi_plus(sc.capacity), Scenario.population(sc)
    return sc, (((x >= lo) & (x <= hi)).all(axis=1)
                & (phi > 0.0) & (phi < math.inf) & (n > 0.0) & (n < math.inf)
                & (n - sc.init.D0 > 0.0))


@dataclass(frozen=True, slots=True)
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
    The simulator passes Python floats, unpacked from the stage's state
    with one tolist(): numpy scalars give the same bits for + - * / but
    cost about twice as much per operation.

    It is only the formula and checks nothing. The solver also calls it at
    the trial stages of a step, which may leave the solution's domain (say
    D > N in a stiff run with rho near 1) and give finite values there,
    which the step's error test then rejects. The rules on a run's inputs
    have their own owners: N - D0 > 0 in Scenario, rho < 1 in
    simulator.simulate. Python floats overflow to inf silently, and at a
    trial stage with N - D exactly 0 the division fails with
    ZeroDivisionError, which simulate reports as IntegrationError.

    Returns:
        (dS, dI_A, dI_S, dR, dD, dpsi). The first five sum to zero in exact
        arithmetic (total population is conserved; D counts as population).
    """
    alive = N - D
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

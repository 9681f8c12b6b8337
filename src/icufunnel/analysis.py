"""Robustness probing, q-monotonicity verification, and threshold sweeps.

The robustness result is fundamentally a sampled under-approximation: the
guarantee being probed is existential (some positive radius works), so the
certified radius reported here is a radius, found by bisection, at which
every perturbed scenario kept both its admissibility and the fixed
threshold pair's admissibility, not a proven bound. The probe derives and
checks all perturbed scenarios of one radius in a single array pass
through the same formulas the scalar functions use.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constants import (
    DerivedConstants, _derive, _div, _sigma_rob_conditions, check_sigma_rob, derive_constants,
)
# q_eval is not called here; it stays bound because the benchmark tracer hooks analysis.q_eval
from .controller import ControllerParams, _cz_conditions, _q, in_CZ, q_eval  # noqa: F401
from .model import Scenario, _batch, _clipped
from .simulator import PreconditionError, SimConfig, simulate

__all__ = [
    "RobustnessResult",
    "QMonotonicityReport",
    "SweepRow",
    "SweepResult",
    "robustness_probe",
    "q_monotonicity_check",
    "sweep_eps_minus",
]

# The probe's order of the 18 scenario coordinates: direction column i of
# the seeded draw moves _PROBE_KEYS[i], so reordering changes every result.
_PROBE_KEYS = (
    "alpha_A", "alpha_S", "beta_A", "beta_S", "rho", "p",
    "gamma_0", "gamma_1", "psi_bar", "gamma_K",
    "xi", "n_icu", "S0", "IA0", "IS0", "R0", "D0", "psi0",
)
# Bisection steps on the probe radius: certified_delta is within
# delta / 2**20 of the largest radius where every sample passes.
_PROBE_BISECT_DEPTH = 20


@dataclass(frozen=True)
class RobustnessResult:
    """Sampled robustness of a fixed threshold pair around one scenario.

    pass_fraction is the fraction of perturbed scenarios that stayed in the
    robust admissible set AND kept the fixed pair admissible. certified_delta
    is the largest probed radius with pass_fraction 1 (a sampled
    under-approximation of the true robustness radius, never a proof).
    """

    delta: float
    samples: int
    pass_fraction: float
    certified_delta: float


@dataclass(frozen=True)
class QMonotonicityReport:
    """Grid and closed-form evidence that q strictly increases.

    The closed forms factor q' as q1/q2^2: positivity of q1 at the left
    endpoint plus a positive slope coefficient (q1' = 2*coeff*q2) make q1
    positive on the whole interval, hence q strictly increasing.
    """

    monotone_on_grid: bool
    first_violation: tuple[float, float] | None
    q1_at_left: float
    q1_at_left_positive: bool
    slope_coefficient: float
    slope_positive: bool

    @property
    def all_ok(self) -> bool:
        return self.monotone_on_grid and self.q1_at_left_positive and self.slope_positive


@dataclass(frozen=True)
class SweepRow:
    """Closed-loop summary for one off-threshold value (error if the run failed)."""

    eps_minus: float
    D_max: float = math.nan
    switch_count: int = 0
    pandemic_end: float = math.nan
    input_cost: float = math.nan
    max_IS: float = math.nan
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    """Rows of sweep_eps_minus, in input order, sharing scenario and eps_plus."""

    eps_plus: float
    rows: tuple[SweepRow, ...]


# an infinite coordinate may give nan and a huge one overflow to inf; _passes rejects both
@np.errstate(invalid="ignore", over="ignore")
def _perturbed(x0: np.ndarray, directions: np.ndarray, delta: float) -> np.ndarray:
    # relative perturbation coordinate-wise, absolute fallback at exact zeros
    scale = np.where(x0 != 0.0, np.abs(x0), 1.0)
    return _clipped(x0 + directions * delta * scale, _PROBE_KEYS)


def _passes(x: np.ndarray, cp: ControllerParams) -> np.ndarray:
    """Which rows of x (scenarios in _PROBE_KEYS order) keep cp admissible.

    A row passes when the Scenario constructors would accept it (checked by
    model._batch against the range table model._RANGES and the capacity
    and population bounds), every constant is derivable, A1-A3 and A6 hold
    and cp passes in_CZ: exactly when Scenario.from_values,
    derive_constants, check_sigma_rob and in_CZ on that row raise no
    ValueError and say yes.
    """
    scenario, ok = _batch(x, _PROBE_KEYS)
    dc, undefined = _derive(scenario)
    for rows, _ in undefined:
        ok &= ~rows
    for c in _sigma_rob_conditions(scenario, dc) + _cz_conditions(cp, scenario, dc):
        ok &= c.passed
    return ok


def robustness_probe(
    scenario: Scenario,
    cp: ControllerParams,
    delta: float,
    samples: int = 256,
    seed: int = 0,
) -> RobustnessResult:
    """Sample scenario perturbations and test the fixed pair's admissibility.

    Draws `samples` uniform directions in the 18-dimensional unit cube once,
    scales them by the probed radius (relative per coordinate, absolute at
    zeros, clipped into the range table model._RANGES), and requires each
    perturbed scenario to be valid (model._batch), robust-admissible and
    to admit the FIXED pair cp. All samples at one radius are derived and
    checked in one array pass. certified_delta is found by bisection over
    the radius with all-samples-pass as the predicate. Bisection assumes
    that predicate is monotone in the radius, which nothing guarantees: it
    returns a radius where every sample passes, not the largest one.
    Reusing the same directions at every radius makes the result
    seed-reproducible.

    Raises:
        PreconditionError: the nominal scenario is not robust-admissible or
            cp is not admissible for it.
        ValueError: delta not finite and >= 0, or samples < 1.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    dc = derive_constants(scenario)
    if not check_sigma_rob(scenario, dc).in_sigma_rob:
        raise PreconditionError("nominal scenario is not in the robust admissible set")
    if not in_CZ(cp, scenario, dc).in_cz:
        raise PreconditionError("threshold pair is not admissible for the nominal scenario")

    rng = np.random.default_rng(seed)
    directions = rng.uniform(-1.0, 1.0, size=(samples, 18))
    values = scenario.values()
    x0 = np.array([values[k] for k in _PROBE_KEYS])

    def passes(radius: float) -> np.ndarray:
        return _passes(_perturbed(x0, directions, radius), cp)

    pass_fraction = int(np.count_nonzero(passes(delta))) / samples
    if pass_fraction == 1.0:
        certified = delta
    else:
        lo, hi = 0.0, delta  # zero radius reproduces the nominal, which passes
        for _ in range(_PROBE_BISECT_DEPTH):
            mid = 0.5 * (lo + hi)
            if passes(mid).all():
                lo = mid
            else:
                hi = mid
        certified = lo

    return RobustnessResult(
        delta=delta, samples=samples, pass_fraction=pass_fraction, certified_delta=certified,
    )


@np.errstate(all="ignore")
def q_monotonicity_check(
    scenario: Scenario,
    dc: DerivedConstants,
    grid: int | Sequence[float] = 1000,
) -> QMonotonicityReport:
    """Verify strict increase of q on [M2/M1, phi_plus], two ways.

    Empirically: q at consecutive grid points must strictly increase (an int
    grid is that many points, endpoints included). Analytically: the closed
    forms require q1 > 0 at the left endpoint and a positive slope
    coefficient p*(zeta+1)*M1 - z/N; both follow from A6. Always returns a
    report (a q evaluation failure shows up as a grid violation with nan,
    and degenerate constants such as M1 = 0 or p = 0 give a report that is
    not all_ok).
    """
    pm = scenario.params
    ini = scenario.init
    lo = _div(dc.M2, dc.M1)  # a numpy float: the divisions by p*N below may be by zero
    hi = dc.phi_plus
    if isinstance(grid, int):
        pts = np.linspace(lo, hi, max(grid, 2))
    else:
        pts = np.asarray(list(grid), dtype=float)
        if pts.size < 2:
            raise ValueError("grid must have at least two points")

    values = _q(pts, dc, scenario)
    rising = values[:-1] < values[1:]
    monotone = bool(rising.all())
    first_violation = None
    if not monotone:
        i = int(np.argmin(rising))
        first_violation = (float(pts[i]), float(pts[i + 1]))

    z = pm.beta_A * dc.zeta + pm.beta_S
    q2_left = dc.alpha_S_eff + dc.M1 * lo - dc.M2  # = alpha_S/(1-rho) exactly
    q1_left = (
        pm.p * z * (1.0 - ini.R0 / dc.N - 2.0 * lo / (pm.p * dc.N))
        + pm.p * (dc.zeta + 1.0) * (2.0 * dc.M1 * lo - dc.M2)
    ) * q2_left - pm.p * z * dc.M1 * lo * (
        1.0 - ini.R0 / dc.N - lo / (pm.p * dc.N)
    ) - pm.p * dc.M1 * (dc.zeta + 1.0) * lo * (dc.M1 * lo - dc.M2)
    slope_coeff = pm.p * (dc.zeta + 1.0) * dc.M1 - z / dc.N

    return QMonotonicityReport(
        monotone_on_grid=monotone,
        first_violation=first_violation,
        q1_at_left=float(q1_left),
        q1_at_left_positive=bool(q1_left > 0.0),
        slope_coefficient=slope_coeff,
        slope_positive=slope_coeff > 0.0,
    )


def sweep_eps_minus(
    scenario: Scenario,
    eps_plus: float,
    eps_minus_list: Sequence[float],
    cfg: SimConfig,
) -> SweepResult:
    """Run one closed-loop simulation per off-threshold value.

    Rows come back in input order. A row whose construction or simulation
    fails records the error message and the sweep continues.
    """
    phi_plus = scenario.capacity.phi_plus()
    rows = []
    for em in eps_minus_list:
        try:
            cp = ControllerParams(
                eps_plus=eps_plus, eps_minus=float(em), phi_plus=phi_plus,
            )
            _, report = simulate(scenario, cp, cfg)
        except (ValueError, RuntimeError) as exc:
            rows.append(SweepRow(eps_minus=float(em), error=str(exc)))
            continue
        rows.append(SweepRow(
            eps_minus=float(em),
            D_max=report.D_max,
            switch_count=report.switch_count,
            pandemic_end=report.pandemic_end,
            input_cost=report.input_cost,
            max_IS=report.max_IS,
        ))
    return SweepResult(eps_plus=eps_plus, rows=tuple(rows))

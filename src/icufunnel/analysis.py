"""Robustness probing, q-monotonicity verification, and threshold sweeps.

The robustness result is fundamentally a sampled under-approximation: the
guarantee being probed is existential (some positive radius works), so the
certified radius reported here is the largest sampled radius at which every
perturbed scenario kept both its admissibility and the fixed threshold
pair's admissibility, not a proven bound.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constants import DerivedConstants, check_sigma_rob, derive_constants
# q_eval is not called here; it stays bound because the benchmark tracer hooks analysis.q_eval
from .controller import ControllerParams, _q, in_CZ, q_eval  # noqa: F401
from .model import Scenario
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
_UNIT = slice(0, 10)  # rate/fraction parameters, clipped to [0, 1]
_PSI0 = 17  # also clipped to [0, 1]
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


def _perturbed(x0: np.ndarray, direction: np.ndarray, delta: float) -> np.ndarray:
    # relative perturbation coordinate-wise, absolute fallback at exact zeros
    scale = np.where(x0 != 0.0, np.abs(x0), 1.0)
    x = x0 + direction * delta * scale
    x[_UNIT] = np.clip(x[_UNIT], 0.0, 1.0)
    x[_PSI0] = min(max(x[_PSI0], 0.0), 1.0)
    x[10:17] = np.maximum(x[10:17], 0.0)
    return x


def _sample_ok(x: np.ndarray, cp: ControllerParams) -> bool:
    try:
        sc = Scenario.from_values(dict(zip(_PROBE_KEYS, x.tolist())))
        dc = derive_constants(sc)
        rep = check_sigma_rob(sc, dc)
        if not rep.in_sigma_rob:
            return False
        return in_CZ(cp, sc, dc).in_cz
    except ValueError:  # includes DerivationError and constructor rejections
        return False


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
    zeros, clipped to valid ranges), re-derives every constant per perturbed
    scenario, and requires robust-set membership plus admissibility of the
    FIXED pair cp. certified_delta is found by bisection over the radius with
    all-samples-pass as the predicate; reusing the same directions at every
    radius makes the predicate monotone and the result seed-reproducible.

    Raises:
        PreconditionError: the nominal scenario is not robust-admissible or
            cp is not admissible for it.
        ValueError: delta or samples out of range.
    """
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta!r}")
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

    oks = [_sample_ok(_perturbed(x0, directions[i], delta), cp) for i in range(samples)]
    pass_fraction = sum(oks) / samples

    def all_pass(radius: float) -> bool:
        return all(
            _sample_ok(_perturbed(x0, directions[i], radius), cp) for i in range(samples)
        )

    if pass_fraction == 1.0:
        certified = delta
    else:
        lo, hi = 0.0, delta  # all_pass(0) holds: zero radius reproduces the nominal
        for _ in range(_PROBE_BISECT_DEPTH):
            mid = 0.5 * (lo + hi)
            if all_pass(mid):
                lo = mid
            else:
                hi = mid
        certified = lo

    return RobustnessResult(
        delta=delta, samples=samples, pass_fraction=pass_fraction, certified_delta=certified,
    )


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
    report (a q evaluation failure shows up as a grid violation with nan).
    """
    pm = scenario.params
    ini = scenario.init
    lo = dc.M2 / dc.M1
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
        q1_at_left=q1_left,
        q1_at_left_positive=q1_left > 0.0,
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

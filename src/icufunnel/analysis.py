"""Robustness probing and threshold sweeps.

The robustness result is fundamentally a sampled under-approximation: the
guarantee being probed is existential (some positive radius works), so the
certified radius reported here is a radius, found by bisection, at which
every perturbed scenario kept both its admissibility and the fixed
threshold pair's admissibility, not a proven bound. The probe derives and
checks all perturbed scenarios of one radius in a single array pass
through the same formulas the scalar functions use. The sweep runs one
closed loop per off threshold and fills each row's report columns from
the run's RunReport by field name.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .constants import _derive, _sigma_rob_conditions, check_sigma_rob, derive_constants
from .controller import ControllerParams, _bisect, _cz_conditions, in_CZ
# not called here; they stay bound because the benchmark tracer hooks
# analysis.q_eval and analysis.q_monotonicity_check
from .controller import q_eval, q_monotonicity_check  # noqa: F401
from .model import Scenario, _batch, _clipped
from .simulator import PreconditionError, RunReport, SimConfig, simulate

__all__ = [
    "RobustnessResult",
    "SweepRow",
    "SweepResult",
    "robustness_probe",
    "sweep_eps_minus",
]

# The probe's order of the 18 scenario coordinates: direction column i of
# the seeded draw moves _PROBE_KEYS[i], so reordering changes every result.
_PROBE_KEYS = (
    "alpha_A", "alpha_S", "beta_A", "beta_S", "rho", "p",
    "gamma_0", "gamma_1", "psi_bar", "gamma_K",
    "xi", "n_icu", "S0", "IA0", "IS0", "R0", "D0", "psi0",
)
# The most perturbed scenarios robustness_probe may draw; a far larger count
# would exhaust memory. Not a setting.
MAX_SAMPLES = 100_000


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
class SweepRow:
    """Closed-loop summary for one off-threshold value (error if the run failed)."""

    eps_minus: float
    D_max: float = math.nan
    switch_count: int = 0
    pandemic_end: float = math.nan
    input_cost: float = math.nan
    max_IS: float = math.nan
    error: str | None = None


# SweepRow's columns that come from the run's RunReport, matched by field name
_REPORT_COLUMNS = {f.name for f in fields(SweepRow)} & {f.name for f in fields(RunReport)}


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
    checked in one array pass. certified_delta is found by
    controller._bisect over [0, delta] with all-samples-pass as the
    predicate, stopped after exactly 20 halvings, so it lies within
    delta / 2**20 of where the predicate turns. Bisection assumes
    that predicate is monotone in the radius, which nothing guarantees: it
    returns a radius where every sample passes, not the largest one.
    Reusing the same directions at every radius makes the result
    seed-reproducible.

    Raises:
        PreconditionError: the nominal scenario is not robust-admissible or
            cp is not admissible for it.
        ValueError: delta not finite and >= 0, or samples below 1 or
            above MAX_SAMPLES.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be 1 to MAX_SAMPLES = {MAX_SAMPLES}, got {samples!r}")
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
    # zero radius reproduces the nominal, which passes; a tolerance between the
    # widths after 19 and 20 halvings stops _bisect after exactly 20 of them
    certified = delta if pass_fraction == 1.0 else _bisect(
        0.0, delta, lambda r: not passes(r).all(), delta * 2**-19.5)[0]

    return RobustnessResult(
        delta=delta, samples=samples, pass_fraction=pass_fraction, certified_delta=certified,
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
            eps_minus=float(em), **{name: getattr(report, name) for name in _REPORT_COLUMNS},
        ))
    return SweepResult(eps_plus=eps_plus, rows=tuple(rows))

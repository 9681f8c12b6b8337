"""Bang-bang hysteresis controller and feasibility of its thresholds.

The control law is a two-threshold relay on the severe-case count: switch on
at phi_plus - eps_plus, switch off at eps_minus, hold in between.
The rest of the module decides whether a threshold pair is admissible (the
ordering constraint plus conditions A4 and A5 on the growth functional q),
constructs an admissible pair when one exists, and evaluates the closed-form
lower bounds on the time between switches.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .constants import Condition, DerivedConstants, check_sigma
from .model import Scenario

__all__ = [
    "ControllerParams",
    "DwellBounds",
    "CZReport",
    "QEvalDomainError",
    "QEvalRangeWarning",
    "InfeasibleError",
    "control_update",
    "q_eval",
    "in_CZ",
    "find_feasible_eps",
    "find_max_slack_eps",
    "dwell_lower_bounds",
]


class QEvalDomainError(ValueError):
    """q is undefined: its denominator is not positive at this point."""


class QEvalRangeWarning(UserWarning):
    """q was evaluated outside [M2/M1, phi_plus], where A4/A5 never look."""


class InfeasibleError(ValueError):
    """No admissible threshold pair was found."""


@dataclass(frozen=True)
class ControllerParams:
    """Threshold pair for the relay controller (all in individuals).

    The on threshold is phi_plus - eps_plus, the off threshold is
    eps_minus (the corridor floor is zero). Positivity is enforced here;
    the ordering constraint (off threshold strictly below on threshold) is
    deliberately not, so that a violating pair can still be handed to in_CZ
    and rejected with a report. Callers feeding control_update must ensure
    ordering_ok.
    """

    eps_plus: float
    eps_minus: float
    phi_plus: float

    def __post_init__(self) -> None:
        if not self.eps_plus > 0.0:
            raise ValueError(f"eps_plus must be > 0, got {self.eps_plus!r}")
        if not self.eps_minus > 0.0:
            raise ValueError(f"eps_minus must be > 0, got {self.eps_minus!r}")
        if not self.phi_plus > 0.0:
            raise ValueError(f"phi_plus must be > 0, got {self.phi_plus!r}")

    def on_threshold(self) -> float:
        return self.phi_plus - self.eps_plus

    def off_threshold(self) -> float:
        return self.eps_minus

    def ordering_ok(self) -> bool:
        return self.off_threshold() < self.on_threshold()


@dataclass(frozen=True)
class DwellBounds:
    """Closed-form lower bounds on the time between consecutive switches.

    down_bound covers the intervention phase (switch-on to switch-off) and
    is always positive. up_bound covers the relaxed phase and may come out
    non-positive, in which case it carries no information.
    """

    down_bound: float
    up_bound: float

    @property
    def up_is_informative(self) -> bool:
        return self.up_bound > 0.0


@dataclass(frozen=True)
class CZReport:
    """Membership report for one threshold pair: ordering, A4, A5."""

    conditions: tuple[Condition, ...] = field(default=())

    def _get(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def ordering_ok(self) -> bool:
        return self._get("ordering").passed

    @property
    def a4_ok(self) -> bool:
        return self._get("A4").passed

    @property
    def a5_ok(self) -> bool:
        return self._get("A5").passed

    @property
    def q_value(self) -> float:
        """q evaluated at phi_plus - eps_plus (nan if q was undefined there)."""
        return self._get("A5").lhs

    @property
    def in_cz(self) -> bool:
        return all(c.passed for c in self.conditions)


def control_update(I_S: float, u_prev: int, cp: ControllerParams) -> int:
    """The relay decision at severe-case count I_S, given the input u_prev.

    On at I_S >= phi_plus - eps_plus (ties switch on), off at
    I_S <= eps_minus (ties switch off), u_prev held strictly in
    between. The two branches cannot fire together when the ordering
    constraint holds.
    """
    if I_S >= cp.on_threshold():
        return 1
    if I_S <= cp.off_threshold():
        return 0
    return u_prev


def _q(eps, dc: DerivedConstants, scenario: Scenario):
    """q at eps, a float or an array; nan where the denominator is not positive.

    The one implementation of the q formula (see q_eval). It warns about
    nothing and raises nothing, so callers that scan or bisect q use it
    directly; an array is evaluated elementwise with the same operation
    order as a float, so both give bit-identical values.
    """
    pm = scenario.params
    ini = scenario.init
    den = dc.alpha_S_eff + (dc.M1 * eps - dc.M2)
    z = pm.beta_A * dc.zeta + pm.beta_S
    num = pm.p * z * eps * (1.0 - ini.R0 / dc.N - eps / (pm.p * dc.N)) + pm.p * (
        dc.M1 * eps - dc.M2
    ) * (dc.zeta + 1.0) * eps
    if isinstance(den, np.ndarray):
        return num / np.where(den > 0.0, den, np.nan)
    return num / den if den > 0.0 else math.nan


def q_eval(eps: float, dc: DerivedConstants, scenario: Scenario) -> float:
    """Evaluate the severe-case growth functional q at threshold gap eps.

    q(eps) = [p(beta_A*zeta + beta_S)*eps*(1 - R0/N - eps/(pN))
              + p(M1*eps - M2)(zeta + 1)*eps]
             / [alpha_S/(1-rho) + (M1*eps - M2)]

    Defined on [M2/M1, phi_plus], where the denominator is automatically
    positive; evaluation outside that interval is allowed but triggers
    QEvalRangeWarning since A4/A5 never reference it.

    Raises:
        QEvalDomainError: q is undefined at eps (its denominator is not
            positive there).
    """
    lo = dc.M2 / dc.M1
    if not (lo <= eps <= dc.phi_plus):
        warnings.warn(
            f"q evaluated at eps={eps!r}, outside [M2/M1, phi_plus] = "
            f"[{lo!r}, {dc.phi_plus!r}]",
            QEvalRangeWarning,
            stacklevel=2,
        )
    q = _q(eps, dc, scenario)
    if math.isnan(q):
        raise QEvalDomainError(f"q undefined at eps={eps!r}: denominator not positive")
    return q


def in_CZ(cp: ControllerParams, scenario: Scenario, dc: DerivedConstants) -> CZReport:
    """Check threshold-pair admissibility: ordering, A4, A5.

    Always returns a report (never raises). If q is undefined at the probe
    point phi_plus - eps_plus, A5 is recorded as failed with lhs = nan.
    The caller is expected to have verified basic scenario admissibility
    (check_sigma) already.
    """
    eps_probe = cp.phi_plus - cp.eps_plus
    a4_rhs = cp.phi_plus - dc.M2 / dc.M1
    q_at_probe = _q(eps_probe, dc, scenario)
    conditions = (
        Condition(
            "ordering",
            "eps_minus < phi_plus - eps_plus",
            cp.ordering_ok(),
            cp.off_threshold(),
            cp.on_threshold(),
        ),
        Condition(
            "A4",
            "eps_plus < phi_plus - M2/M1",
            cp.eps_plus < a4_rhs,
            cp.eps_plus,
            a4_rhs,
        ),
        Condition(
            "A5",
            "q(phi_plus - eps_plus) < phi_plus",
            q_at_probe < cp.phi_plus,
            q_at_probe,
            cp.phi_plus,
        ),
    )
    return CZReport(conditions=conditions)


def _require_sigma(scenario: Scenario, dc: DerivedConstants) -> None:
    """Raise InfeasibleError naming the first failing group of A1-A3."""
    report = check_sigma(scenario, dc)
    for group, ok in (("A1", report.a1_ok), ("A2", report.a2_ok), ("A3", report.a3_ok)):
        if not ok:
            raise InfeasibleError(f"infeasible: {group}")


def find_feasible_eps(
    scenario: Scenario,
    dc: DerivedConstants,
    grid: int | Sequence[float] = 10_000,
) -> ControllerParams:
    """Construct an admissible threshold pair by scanning q over a grid.

    Scans candidate gaps eps in the open interval (M2/M1, phi_plus). An int
    grid places that many points evenly in the interior; a sequence is used
    as-is (every point must lie in the open interval). The largest grid eps
    with q(eps) < phi_plus wins, and the pair is completed as
    eps_plus = phi_plus - eps, eps_minus = eps/2 (any value below eps would
    do). The returned pair passes in_CZ by construction.

    Raises:
        InfeasibleError: basic admissibility fails (named group), or no
            grid point satisfies q(eps) < phi_plus. The latter cannot
            happen with a fine grid when A3 holds, since q tends to
            M3 < phi_plus at the left endpoint; if it does, the grid was
            too coarse or the arithmetic is in trouble.
    """
    _require_sigma(scenario, dc)

    lo = dc.M2 / dc.M1
    hi = dc.phi_plus
    if isinstance(grid, int):
        if grid < 1:
            raise ValueError(f"grid must have at least one point, got {grid!r}")
        step = (hi - lo) / (grid + 1)
        candidates = lo + np.arange(1, grid + 1) * step
    else:
        candidates = np.asarray(list(grid), dtype=float)
        outside = ~((lo < candidates) & (candidates < hi))
        if outside.any():
            raise ValueError(
                f"grid point {float(candidates[outside][0])!r} outside open interval "
                f"({lo!r}, {hi!r})"
            )
        if not candidates.size:
            raise ValueError("grid must have at least one point")

    feasible = candidates[_q(candidates, dc, scenario) < dc.phi_plus]
    if not feasible.size:
        raise InfeasibleError(
            "infeasible: no grid point with q(eps) < phi_plus (numerical trouble?)"
        )
    best = float(feasible.max())
    return ControllerParams(
        eps_plus=dc.phi_plus - best,
        eps_minus=best / 2.0,
        phi_plus=dc.phi_plus,
    )


def find_max_slack_eps(scenario: Scenario, dc: DerivedConstants) -> ControllerParams:
    """Construct the admissible threshold pair with the most slack.

    Where find_feasible_eps pushes the on threshold as high as A5 allows
    (leaving almost no A5 slack), this maximises the smallest slack of the
    pair's strict inequalities, all in individuals: ordering
    (on - eps_minus), A4 (on - M2/M1), A5 (phi_plus - q(on)), and
    eps_plus > 0 (phi_plus - on), where on = phi_plus - eps_plus.
    eps_minus = on/2 balances the ordering slack against eps_minus > 0.
    The slacks that grow with on, min(on/2, on - M2/M1), start at 0 at
    on = M2/M1; the ones that shrink, min(phi_plus - q(on), phi_plus - on),
    start positive by A3 and end at 0 at on = phi_plus. With q strictly
    increasing, the max-min sits where the two cross, found by bisection.
    The returned pair passes in_CZ, so it is the natural anchor for
    robustness_probe.

    Raises:
        InfeasibleError: basic admissibility fails (named group), or q is
            not shown strictly increasing on [M2/M1, phi_plus] (the
            bisection would then have no single crossing to find).
    """
    # analysis builds on this module, so it is imported at call time
    from .analysis import q_monotonicity_check

    _require_sigma(scenario, dc)
    if not q_monotonicity_check(scenario, dc).all_ok:
        raise InfeasibleError("infeasible: q is not strictly increasing")

    left = dc.M2 / dc.M1

    def growing_minus_shrinking(on: float) -> float:
        growing = min(on / 2.0, on - left)
        shrinking = dc.phi_plus - max(_q(on, dc, scenario), on)
        return growing - shrinking

    lo, hi = left, dc.phi_plus  # negative at lo, positive at hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if growing_minus_shrinking(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    on = lo  # the side where A5 keeps at least the other slacks
    return ControllerParams(
        eps_plus=dc.phi_plus - on,
        eps_minus=on / 2.0,
        phi_plus=dc.phi_plus,
    )


def _down_dwell_bound(cp: ControllerParams, dc: DerivedConstants) -> float:
    """The down_bound of dwell_lower_bounds, which validate_trajectory checks.

    Kept apart from the up bound, which divides by eps_minus**2 and so
    raises once that underflows to zero.
    """
    return math.log(cp.on_threshold() / cp.eps_minus) / dc.alpha_S_eff


def dwell_lower_bounds(
    cp: ControllerParams, dc: DerivedConstants, IA_at_switch: float
) -> DwellBounds:
    """Evaluate the closed-form lower bounds on inter-switch times.

    down_bound = (1-rho)/alpha_S * ln((phi_plus - eps_plus)/eps_minus),
    positive for every ordered pair. up_bound = (1/mu) *
    ln((phi_plus - eps_plus)^2 / (eps_minus^2 + IA_at_switch^2)), where
    IA_at_switch is the mild-case count at the switch-off instant; a
    non-positive value means the bound is uninformative.
    """
    if IA_at_switch < 0.0:
        raise ValueError(f"IA_at_switch must be >= 0, got {IA_at_switch!r}")
    gap = cp.on_threshold()
    up = math.log(gap**2 / (cp.eps_minus**2 + IA_at_switch**2)) / dc.mu
    return DwellBounds(down_bound=_down_dwell_bound(cp, dc), up_bound=up)

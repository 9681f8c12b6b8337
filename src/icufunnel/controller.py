"""Bang-bang hysteresis controller and feasibility of its thresholds.

The control law is a two-threshold relay on the severe-case count: switch on
at phi_plus - eps_plus, switch off at eps_minus, hold in between.
The rest of the module decides whether a threshold pair is admissible (the
ordering constraint plus conditions A4 and A5 on the growth functional q),
checks on a grid and in closed form that q strictly increases, constructs an
admissible pair when one exists, and evaluates the closed-form lower bounds
on the time between switches. q itself is written once, in _q_terms.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .constants import (
    Condition, DerivedConstants, _div, _first_rows, _group_ok, _one_row, check_sigma,
)
from .model import Scenario

__all__ = [
    "ControllerParams",
    "DwellBounds",
    "CZReport",
    "QEvalDomainError",
    "QEvalRangeWarning",
    "QMonotonicityReport",
    "InfeasibleError",
    "control_update",
    "q_eval",
    "q_monotonicity_check",
    "in_CZ",
    "find_feasible_eps",
    "find_max_slack_eps",
    "dwell_lower_bounds",
]


# The most points the grid of find_feasible_eps or q_monotonicity_check
# may ask for; a far larger grid would exhaust memory. Not a setting.
MAX_GRID = 1_000_000


def _check_int_grid(grid: int) -> None:
    """Refuse a q scan's grid, a point count, unless it is 1 to MAX_GRID.

    Raises:
        TypeError: grid is not an integer (a float, a list or a tuple);
            any integer, a numpy one included, is taken.
        ValueError: grid is below 1 or above MAX_GRID.
    """
    if not 1 <= operator.index(grid) <= MAX_GRID:
        raise ValueError(f"grid must have at least one point and at most "
                         f"MAX_GRID = {MAX_GRID} points, got {grid!r}")


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
    and rejected with a report. simulate and dwell_lower_bounds refuse an
    unordered pair (_require_ordered).
    """

    eps_plus: float
    eps_minus: float
    phi_plus: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not value > 0.0:
                raise ValueError(f"{f.name} must be > 0, got {value!r}")

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
    is always positive, since dwell_lower_bounds takes ordered pairs only.
    up_bound covers the relaxed phase and may come out non-positive, in
    which case it carries no information.
    """

    down_bound: float
    up_bound: float

    @property
    def up_is_informative(self) -> bool:
        return self.up_bound > 0.0


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
class CZReport:
    """Membership report for one threshold pair: ordering, A4, A5.

    Each condition is judged by constants._group_ok, the rule of
    AssumptionReport: it passes only when present and passed, and in_cz
    needs all three, so an empty or partial report certifies nothing.
    """

    conditions: tuple[Condition, ...] = field(default=())

    @property
    def ordering_ok(self) -> bool:
        return _group_ok(self.conditions, "ordering")

    @property
    def a4_ok(self) -> bool:
        return _group_ok(self.conditions, "A4")

    @property
    def a5_ok(self) -> bool:
        return _group_ok(self.conditions, "A5")

    @property
    def q_value(self) -> float:
        """q evaluated at phi_plus - eps_plus.

        nan if q was undefined there, or if the report has no A5.
        """
        return next((c.lhs for c in self.conditions if c.name == "A5"), math.nan)

    @property
    def in_cz(self) -> bool:
        return self.ordering_ok and self.a4_ok and self.a5_ok


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


def _q_terms(eps, dc: DerivedConstants, scenario):
    """q's numerator and denominator at eps: the one statement of q.

    _q divides them; q_monotonicity_check differentiates the quotient at
    the left endpoint. Arguments broadcast as in _q, and callers silence
    floating-point warnings with np.errstate.
    """
    pm = scenario.params
    den = dc.alpha_S_eff + (dc.M1 * eps - dc.M2)
    z = pm.beta_A * dc.zeta + pm.beta_S
    num = pm.p * z * eps * (1.0 - scenario.init.R0 / dc.N - _div(eps, pm.p * dc.N)) + pm.p * (
        dc.M1 * eps - dc.M2
    ) * (dc.zeta + 1.0) * eps
    return num, den


@np.errstate(all="ignore")
def _q(eps, dc: DerivedConstants, scenario):
    """q at eps; nan where the denominator is not positive, or where p = 0.

    The q that every caller evaluates (see q_eval). It warns about nothing
    and raises nothing, so callers that scan or bisect q use it directly.
    eps, the constants and the scenario coordinates may be floats or arrays
    (a scan's grid, or one value per scenario of a batch); they broadcast
    elementwise with the same operation order, so every form gives
    bit-identical values. The result is a numpy float or array.
    """
    num, den = _q_terms(eps, dc, scenario)
    return num / np.where(den > 0.0, den, np.nan)


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
    with np.errstate(all="ignore"):
        lo = float(_div(dc.M2, dc.M1))  # inf or nan at M1 = 0, which warns below
    if not (lo <= eps <= dc.phi_plus):
        warnings.warn(
            f"q evaluated at eps={eps!r}, outside [M2/M1, phi_plus] = "
            f"[{lo!r}, {dc.phi_plus!r}]",
            QEvalRangeWarning,
            stacklevel=2,
        )
    q = float(_q(eps, dc, scenario))
    if math.isnan(q):
        raise QEvalDomainError(f"q undefined at eps={eps!r}: denominator not positive")
    return q


@np.errstate(all="ignore")
def q_monotonicity_check(
    scenario: Scenario,
    dc: DerivedConstants,
    grid: int = 1000,
) -> QMonotonicityReport:
    """Verify strict increase of q on [M2/M1, phi_plus], two ways.

    Empirically: q at consecutive grid points must strictly increase (grid
    is a point count, endpoints included; 1 gives the two endpoints).
    Analytically: the closed forms require q1 > 0 at the left endpoint and a
    positive slope coefficient p*(zeta+1)*M1 - z/N; both follow from A6.
    Always returns a report (a q evaluation failure shows up as a grid
    violation with nan, and degenerate constants such as M1 = 0 or p = 0
    give a report that is not all_ok).

    Raises:
        TypeError: grid is not an integer.
        ValueError: grid is below 1 or above MAX_GRID.
    """
    pm = scenario.params
    lo = _div(dc.M2, dc.M1)  # a numpy float: the divisions by p*N below may be by zero
    _check_int_grid(grid)
    pts = np.linspace(lo, dc.phi_plus, max(grid, 2))

    values = _q(pts, dc, scenario)
    rising = values[:-1] < values[1:]
    monotone = bool(rising.all())
    first_violation = None
    if not monotone:
        i = int(np.argmin(rising))
        first_violation = (float(pts[i]), float(pts[i + 1]))

    # q1 = num' * den - num * den', and den' = M1
    z = pm.beta_A * dc.zeta + pm.beta_S
    num, den = _q_terms(lo, dc, scenario)  # den = alpha_S/(1-rho) exactly
    num_slope = pm.p * z * (
        1.0 - scenario.init.R0 / dc.N - 2.0 * lo / (pm.p * dc.N)
    ) + pm.p * (dc.zeta + 1.0) * (2.0 * dc.M1 * lo - dc.M2)
    q1_left = num_slope * den - dc.M1 * num
    slope_coeff = pm.p * (dc.zeta + 1.0) * dc.M1 - z / dc.N

    return QMonotonicityReport(
        monotone_on_grid=monotone,
        first_violation=first_violation,
        q1_at_left=float(q1_left),
        q1_at_left_positive=bool(q1_left > 0.0),
        slope_coefficient=slope_coeff,
        slope_positive=slope_coeff > 0.0,
    )


@np.errstate(all="ignore")
def _cz_conditions(cp: ControllerParams, scenario, dc: DerivedConstants) -> list[Condition]:
    """Ordering, A4 and A5 on columns (see constants._sigma_conditions)."""
    # A4 and A5 speak of q on [M2/M1, phi_plus], which M1 = 0 leaves undefined
    defined = dc.M1 != 0.0
    a4_rhs = cp.phi_plus - np.where(defined, _div(dc.M2, dc.M1), np.nan)
    q_at_probe = np.where(defined, _q(cp.on_threshold(), dc, scenario), np.nan)
    return [
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
    ]


def in_CZ(cp: ControllerParams, scenario: Scenario, dc: DerivedConstants) -> CZReport:
    """Check threshold-pair admissibility: ordering, A4, A5.

    Always returns a report (never raises). If q is undefined at the probe
    point phi_plus - eps_plus (p = 0 or a non-positive denominator), A5 is
    recorded as failed with lhs = nan; if M1 = 0, the interval
    [M2/M1, phi_plus] is undefined and A4 fails too, with rhs = nan.
    The caller is expected to have verified basic scenario admissibility
    (check_sigma) already.
    """
    return CZReport(conditions=_first_rows(_cz_conditions(cp, _one_row(scenario), dc)))


def _require_sigma(scenario: Scenario, dc: DerivedConstants) -> None:
    """Raise InfeasibleError naming the first failing group of A1-A3."""
    report = check_sigma(scenario, dc)
    for group, ok in (("A1", report.a1_ok), ("A2", report.a2_ok), ("A3", report.a3_ok)):
        if not ok:
            raise InfeasibleError(f"infeasible: {group}")


def _pair_at(on: float, dc: DerivedConstants) -> ControllerParams:
    """The pair whose on threshold is on, with the off threshold at on/2."""
    return ControllerParams(eps_plus=dc.phi_plus - on, eps_minus=on / 2.0, phi_plus=dc.phi_plus)


def find_feasible_eps(
    scenario: Scenario,
    dc: DerivedConstants,
    grid: int = 10_000,
) -> ControllerParams:
    """Construct an admissible threshold pair by scanning q over a grid.

    Scans candidate gaps eps in the open interval (M2/M1, phi_plus): grid
    is a point count, placed evenly in the interior. The largest grid eps
    with q(eps) < phi_plus wins, and the pair is completed as
    eps_plus = phi_plus - eps, eps_minus = eps/2 (any value below eps would
    do). The returned pair passes in_CZ by construction.

    Raises:
        TypeError: grid is not an integer.
        ValueError: grid is below 1 or above MAX_GRID.
        InfeasibleError: basic admissibility fails (named group), or no
            grid point satisfies q(eps) < phi_plus. The latter cannot
            happen with a fine grid when A3 holds, since q tends to
            M3 < phi_plus at the left endpoint; if it does, the grid was
            too coarse or the arithmetic is in trouble.
    """
    _require_sigma(scenario, dc)

    lo = dc.M2 / dc.M1
    _check_int_grid(grid)
    step = (dc.phi_plus - lo) / (grid + 1)
    candidates = lo + np.arange(1, grid + 1) * step

    feasible = candidates[_q(candidates, dc, scenario) < dc.phi_plus]
    if not feasible.size:
        raise InfeasibleError(
            "infeasible: no grid point with q(eps) < phi_plus (numerical trouble?)"
        )
    return _pair_at(float(feasible.max()), dc)


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
    increasing, the max-min sits where the two cross, found by _bisect down
    to adjacent floats; the pair is taken at the bracket's lower end. The
    returned pair passes in_CZ, so it is the natural anchor for
    robustness_probe.

    Raises:
        InfeasibleError: basic admissibility fails (named group), or q is
            not shown strictly increasing on [M2/M1, phi_plus] (the
            bisection would then have no single crossing to find).
    """
    _require_sigma(scenario, dc)
    if not q_monotonicity_check(scenario, dc).all_ok:
        raise InfeasibleError("infeasible: q is not strictly increasing")

    left = dc.M2 / dc.M1

    def growing_minus_shrinking(on: float) -> float:
        growing = min(on / 2.0, on - left)
        shrinking = dc.phi_plus - max(_q(on, dc, scenario), on)
        return growing - shrinking

    # negative at left, positive at phi_plus; a nan counts as crossed
    lo, _ = _bisect(left, dc.phi_plus, lambda on: not growing_minus_shrinking(on) < 0.0)
    return _pair_at(lo, dc)  # the side where A5 keeps at least the other slacks


def _bisect(lo: float, hi: float, crossed, tol: float = 0.0) -> tuple[float, float]:
    """Shrink a bracket [lo, hi] around the point where crossed(t) becomes true.

    Halves while hi - lo > tol and a midpoint lies strictly between the ends,
    moving hi to the midpoint where crossed holds and lo otherwise; so it
    stops on adjacent floats whatever tol is. Shared by the switch search of
    simulate, by find_max_slack_eps and by the certified radius of
    analysis.robustness_probe.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _require_ordered(cp: ControllerParams, error: type[ValueError] = ValueError) -> None:
    """Raise error unless the off threshold lies strictly below the on threshold."""
    if not cp.ordering_ok():
        raise error(f"threshold ordering violated: off threshold {cp.off_threshold()!r} "
                    f"must be < on threshold {cp.on_threshold()!r}")


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
    positive since the pair must be ordered. up_bound = (1/mu) *
    ln((phi_plus - eps_plus)^2 / (eps_minus^2 + IA_at_switch^2)), where
    IA_at_switch is the mild-case count at the switch-off instant; a
    non-positive value means the bound is uninformative.

    Raises:
        ValueError: the pair is not ordered (off threshold at or above the
            on threshold), IA_at_switch is negative, infinite or nan, or a
            square in the up bound overflows or its denominator underflows
            to zero.
    """
    _require_ordered(cp)
    if not 0.0 <= IA_at_switch < math.inf:
        raise ValueError(f"IA_at_switch must be finite and >= 0, got {IA_at_switch!r}")
    gap = cp.on_threshold()
    try:
        ratio = gap**2 / (cp.eps_minus**2 + IA_at_switch**2)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"up_bound undefined: (on threshold {gap!r})**2 / "
            f"(eps_minus {cp.eps_minus!r}**2 + IA_at_switch {IA_at_switch!r}**2) "
            "is outside the float range"
        ) from None
    up = math.log(ratio) / dc.mu
    return DwellBounds(down_bound=_down_dwell_bound(cp, dc), up_bound=up)

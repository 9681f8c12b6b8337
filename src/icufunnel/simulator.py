"""Closed-loop hybrid integration with located switching events.

Between switches the dynamics are a smooth ODE in one of two input modes, so
each mode phase is integrated with an adaptive RK45 pair and dense output.
Only one guard is armed per mode: the on threshold (phi_plus - eps_plus)
while relaxed, the off threshold (eps_minus) while intervening.
Each phase's solve stops at the first accepted solver knot where the armed
guard fires; the crossing between that knot and the one before is located
by bisection on the dense output, the phase is truncated there, the mode
flips, and integration restarts. Step sizes are chosen against the horizon
as the solver's end point, so the knots are those of a solve to the
horizon, cut at the guard. Open-loop runs fix the input and arm no guard,
so their one solve reaches the horizon.

Each phase is sampled from its dense output: the output-grid rows inside
the phase in one array call, and the closing row (an event or the horizon)
in a scalar call, since that state also starts the next phase. The grid is
the multiples of output_dt that do not pass the horizon, plus the horizon.
The RK45 step cap is the module constant MAX_STEP_DAYS, and the chattering
tripwire on the event count is the module constant MAX_SWITCHES; neither is
a setting. Trajectories are validated after the fact against the
analytically provable path properties, each check one mask over the sample
columns.

scipy is imported on the first solve, not with the package: the certifying
commands never integrate, and importing scipy.integrate costs most of the
package's start-up. The module __getattr__ (PEP 562) imports it on the
first lookup of solve_ivp or of the RK45 subclass _StopAtGuard and binds
both as module attributes. simulate looks them up through the module at
call time, so a replaced solve_ivp (a test's spy, a tracer's wrapper) is
the one it calls.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .constants import DerivedConstants
from .controller import ControllerParams, _down_dwell_bound, control_update
from .model import Scenario, State, derivatives

__all__ = [
    "SimConfig",
    "SwitchEvent",
    "Trajectory",
    "RunReport",
    "ValidationCheck",
    "ValidationReport",
    "IntegrationError",
    "ChatteringError",
    "PreconditionError",
    "simulate",
    "validate_trajectory",
    "input_cost",
]


# Caps the RK45 step (days) so solver knots stay dense enough to bracket
# every guard crossing: the armed guard is only tested at knots.
MAX_STEP_DAYS = 1.0
# A run that records more switch events than this is reported as chattering.
MAX_SWITCHES = 1_000_000


class IntegrationError(RuntimeError):
    """The ODE integrator failed inside a mode phase."""


class ChatteringError(RuntimeError):
    """Event count exploded or a zero-length phase appeared."""


class PreconditionError(ValueError):
    """A closed-loop run was started outside its guaranteed-start set."""


def __getattr__(name: str):
    """Import scipy's solver on first use and bind solve_ivp and _StopAtGuard.

    Python calls this only for a name the module does not hold yet, and a
    name already bound (replaced, say) is kept.
    """
    if name not in ("solve_ivp", "_StopAtGuard"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import RK45, solve_ivp

    class _StopAtGuard(RK45):
        """RK45 that finishes at the first accepted knot where guard(y) holds.

        t_bound stays the caller's end point, so every step size, knot and
        dense-output segment up to that knot is the one a plain RK45 solve
        over the same span would take.
        """

        def __init__(self, fun, t0, y0, t_bound, *, guard, **options):
            super().__init__(fun, t0, y0, t_bound, **options)
            self.guard = guard

        def step(self):
            message = super().step()
            if self.status == "running" and self.guard(self.y):
                self.status = "finished"
            return message

    globals().setdefault("solve_ivp", solve_ivp)
    globals().setdefault("_StopAtGuard", _StopAtGuard)
    return globals()[name]


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    Samples are taken at every multiple k * output_dt that does not pass the
    horizon, plus the horizon itself when it is not such a multiple.
    open_loop_u, when set, fixes the input to that constant and bypasses
    the controller entirely. The RK45 step cap MAX_STEP_DAYS and the
    chattering tripwire MAX_SWITCHES are module constants, not settings.
    """

    horizon: float = 1000.0
    output_dt: float = 1.0
    rtol: float = 1e-8
    atol: float = 1e-10
    event_time_tol: float = 1e-9
    open_loop_u: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon!r}")
        if not 0.0 < self.output_dt <= self.horizon:
            raise ValueError(
                f"output_dt must be in (0, horizon], got {self.output_dt!r}"
            )
        if self.horizon / self.output_dt == math.inf:
            raise ValueError(
                f"output_dt too small: horizon / output_dt overflows, got {self.output_dt!r}")
        for name in ("rtol", "atol", "event_time_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.open_loop_u not in (None, 0, 1):
            raise ValueError(f"open_loop_u must be 0, 1 or None, got {self.open_loop_u!r}")


@dataclass(frozen=True)
class SwitchEvent:
    """One located input switch: time (days) and the value switched to."""

    t: float
    u_new: int


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution plus the exact switching record.

    samples hold the state at every output-grid multiple and at every event
    instant, strictly increasing in time, ending at the horizon. u0 is the
    input value before the first event (always 0 for closed-loop runs); the
    full input path is piecewise constant and right-continuous.
    """

    samples: tuple[State, ...]
    events: tuple[SwitchEvent, ...]
    u0: int

    @property
    def horizon(self) -> float:
        return self.samples[-1].t

    def u_at(self, t: float) -> int:
        """Input value at time t (right-continuous)."""
        i = bisect_right(self.events, t, key=lambda ev: ev.t)
        return self.events[i - 1].u_new if i else self.u0

    def _phases(self) -> list[tuple[float, float, int]]:
        """The input path as (start, end, u) pieces, one per constant stretch.

        u0 holds from 0 to the first event, each event's u_new from its time
        to the next event's or the horizon. An event at t = 0 leaves a
        zero-length first piece, so piece i + 1 always starts at event i.
        """
        starts = [0.0, *(ev.t for ev in self.events)]
        us = [self.u0, *(ev.u_new for ev in self.events)]
        return list(zip(starts, [*starts[1:], self.horizon], us))


@dataclass(frozen=True)
class RunReport:
    """Scalar summary of one run.

    pandemic_end is the time of the last switch to input 0 (0 if none);
    pandemic_over flags whether the severe-case count stays below the on
    threshold (phi_plus in open loop) from then to the horizon, so a horizon-truncated run is
    distinguishable from a finished one.
    """

    D_max: float
    total_infected_proxy: float
    input_cost: float
    switch_count: int
    min_observed_dwell: float
    pandemic_end: float
    max_IS: float
    icu_bound_satisfied: bool
    pandemic_over: bool


@dataclass(frozen=True)
class ValidationCheck:
    """Outcome of one path check; violations are (time, magnitude) pairs."""

    name: str
    description: str
    passed: bool
    violations: tuple[tuple[float, float], ...] = field(default=())
    skipped: bool = False

    @property
    def worst(self) -> tuple[float, float] | None:
        if not self.violations:
            return None
        return max(self.violations, key=lambda tv: tv[1])


@dataclass(frozen=True)
class ValidationReport:
    """All path checks for one trajectory."""

    checks: tuple[ValidationCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ValidationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def simulate(
    scenario: Scenario,
    cp: ControllerParams | None,
    cfg: SimConfig,
) -> tuple[Trajectory, RunReport]:
    """Integrate the closed-loop (or fixed-input) system over the horizon.

    Closed-loop runs require an ordered threshold pair and the guaranteed
    start set: I_S(0) <= phi_plus - eps_plus, D0 = 0, psi0 = 1. The input
    is initialized from its left limit u(0-) = 0, so a start exactly on the
    on threshold produces an event at t = 0. Open-loop runs (cfg.open_loop_u
    set) never read cp.

    Raises:
        PreconditionError: closed-loop start set violated.
        IntegrationError: the integrator failed inside a phase, or hit a
            floating-point overflow, invalid operation or division by zero.
        ChatteringError: more than MAX_SWITCHES events, or an event at
            a phase start (zero-length phase).
        ValueError: neither cp nor cfg.open_loop_u provided.
    """
    pm = scenario.params
    ini = scenario.init
    N = scenario.population()
    open_loop = cfg.open_loop_u is not None
    if not open_loop:
        if cp is None:
            raise ValueError("closed-loop run needs threshold parameters, or set cfg.open_loop_u")
        if not cp.ordering_ok():
            raise PreconditionError(
                "threshold ordering violated: "
                f"off threshold {cp.off_threshold()!r} must be < on threshold {cp.on_threshold()!r}"
            )
        if ini.IS0 > cp.on_threshold():
            raise PreconditionError(
                f"I_S(0) = {ini.IS0!r} exceeds the on threshold {cp.on_threshold()!r}"
            )
        if ini.D0 != 0.0:
            raise PreconditionError(f"closed-loop runs require D0 = 0, got {ini.D0!r}")
        if ini.psi0 != 1.0:
            raise PreconditionError(f"closed-loop runs require psi0 = 1, got {ini.psi0!r}")

    this = sys.modules[__name__]  # solve_ivp and _StopAtGuard, as bound now
    events: list[SwitchEvent] = []
    if open_loop:
        u = int(cfg.open_loop_u)  # type: ignore[arg-type]
        u0 = u
    else:
        u0 = 0  # u(0-)
        u = control_update(ini.IS0, u0, cp)
        if u == 1:
            events.append(SwitchEvent(t=0.0, u_new=1))

    n_whole = int(math.floor(cfg.horizon / cfg.output_dt + 1e-12))
    grid = [t for t in (k * cfg.output_dt for k in range(n_whole + 1)) if t < cfg.horizon]
    grid.append(cfg.horizon)

    y_cur = np.array([ini.S0, ini.IA0, ini.IS0, ini.R0, ini.D0, ini.psi0], dtype=float)
    samples: list[State] = [State(*y_cur.tolist(), t=0.0)]
    gi = 1  # grid[0] = 0 is covered by the initial row
    max_is = float(ini.IS0)
    t_cur = 0.0

    while t_cur < cfg.horizon:
        if len(events) > MAX_SWITCHES:
            raise ChatteringError(
                f"more than {MAX_SWITCHES} switches; chattering or misconfigured thresholds"
            )
        u_mode = u

        def rhs(t, y, _u=u_mode):
            return derivatives(y[0], y[1], y[2], y[4], y[5], _u, pm, N)

        def fires(y, _u=u_mode):
            # the relay would leave mode _u here (never in open loop)
            return not open_loop and control_update(y[2], _u, cp) != _u

        try:
            # an overflow or nan would otherwise only warn, and RK45 keeps stepping on nan
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                sol = this.solve_ivp(
                    rhs, (t_cur, cfg.horizon), y_cur, method=this._StopAtGuard, guard=fires,
                    dense_output=True, rtol=cfg.rtol, atol=cfg.atol, max_step=MAX_STEP_DAYS,
                )
        except FloatingPointError as exc:
            raise IntegrationError(f"floating-point error after t = {t_cur!r}: {exc}") from exc
        if not sol.success:
            raise IntegrationError(f"integrator failed near t = {sol.t[-1]!r}: {sol.message}")

        # the solve ends at the first knot where the guard fires, or else at
        # the horizon, where the guard may fire too
        hit = fires(sol.y[:, -1])
        if not hit:
            t_end = cfg.horizon
        else:
            # bracket [a, b]: not yet crossed at a, crossed at b; shrink to tol
            a, b = float(sol.t[-2]), float(sol.t[-1])
            while b - a > cfg.event_time_tol:
                m = 0.5 * (a + b)
                if fires(sol.sol(m)):
                    b = m
                else:
                    a = m
            t_end = b
            if t_end <= t_cur:
                raise ChatteringError(f"zero-length phase: event located at t = {t_end!r}")

        # grid rows strictly inside the phase in one dense-output call; the
        # closing row is a scalar call, because it also starts the next phase
        gj = bisect_left(grid, t_end, gi)
        ts = grid[gi:gj]
        ys = sol.sol(np.array(ts)) if ts else np.empty((6, 0))
        samples.extend(State(*y, t=t) for t, y in zip(ts, ys.T.tolist()))
        y_end = sol.sol(t_end)
        samples.append(State(*y_end.tolist(), t=t_end))
        phase_is = np.concatenate((sol.y[2][sol.t <= t_end], ys[2], y_end[2:3]))
        max_is = max(max_is, float(phase_is.max()))
        if not hit:
            break
        gi = bisect_right(grid, t_end, gj)  # the closing row takes an equal grid row's place
        u = 1 - u
        events.append(SwitchEvent(t=t_end, u_new=u))
        y_cur = y_end
        t_cur = t_end

    traj = Trajectory(samples=tuple(samples), events=tuple(events), u0=u0)

    phases = traj._phases()
    pandemic_end = max((start for start, _, u in phases if u == 0), default=0.0)
    threshold = scenario.capacity.phi_plus() if open_loop else cp.on_threshold()
    report = RunReport(
        D_max=samples[-1].D,
        total_infected_proxy=N - ini.R0 - samples[-1].S,
        input_cost=input_cost(traj, cfg.horizon),
        switch_count=len(events),
        # the pieces between two events: the first starts at 0, the last ends at the horizon
        min_observed_dwell=min((end - start for start, end, _ in phases[1:-1]), default=math.inf),
        pandemic_end=pandemic_end,
        max_IS=max_is,
        icu_bound_satisfied=max_is < scenario.capacity.phi_plus(),
        pandemic_over=all(s.I_S < threshold for s in samples if s.t >= pandemic_end),
    )
    return traj, report


def input_cost(traj: Trajectory, t: float) -> float:
    """Exact integral of the input over [0, t] (days at input 1).

    Uses the located switch times, so the value is exact for the piecewise
    constant input path, independent of the sampling grid.
    """
    if not 0.0 <= t <= traj.horizon:
        raise ValueError(f"t = {t!r} outside [0, {traj.horizon!r}]")
    return sum(
        (min(end, t) - start for start, end, u in traj._phases() if u == 1 and start < t), 0.0,
    )


def validate_trajectory(
    traj: Trajectory,
    scenario: Scenario,
    dc: DerivedConstants,
    cp: ControllerParams | None,
    tol_compartment: float | None = None,
    tol_psi: float = 1e-6,
    event_time_tol: float = 1e-9,
) -> ValidationReport:
    """Check a trajectory against every provable path property.

    Checks, each at every sample unless noted (tol_c defaults to 1e-6 times
    the conserved population):
      a) compartments >= -tol_c
      b) |S + I_A + I_S + R + D - total| <= tol_c
      c) I_A >= (1-p)/p * I_S - tol_c        (skipped when p = 0)
      d) S >= S_min - tol_c
      e) I_A <= zeta * I_S + tol_c
      f) psi in [psi_floor - tol_psi, 1 + tol_psi]  (skipped unless psi0 = 1)
      g) I_S < phi_plus, strict              (closed loop only)
      h) each completed input-1 phase lasts >= the closed-form lower bound
         minus event_time_tol                 (closed loop only)

    Always returns a report; each failed check lists (time, magnitude).
    """
    pm = scenario.params
    total = scenario.population()
    tol_c = 1e-6 * total if tol_compartment is None else tol_compartment
    psi0 = traj.samples[0].psi
    t, S, I_A, I_S, R, D, psi = np.array([(s.t, *s.as_tuple()) for s in traj.samples]).T
    checks: list[ValidationCheck] = []

    def over(defect, tol: float = tol_c, strict: bool = True) -> list[tuple[float, float]]:
        hit = defect > tol if strict else defect >= tol
        return list(zip(t[hit].tolist(), defect[hit].tolist()))

    def add(name: str, description: str, violations: list[tuple[float, float]],
            skipped: bool = False) -> None:
        checks.append(ValidationCheck(
            name=name, description=description,
            passed=not violations, violations=tuple(violations), skipped=skipped,
        ))

    add("a", "compartments non-negative", over(-np.minimum.reduce((S, I_A, I_S, R, D))))
    add("b", "population conserved", over(np.abs(S + I_A + I_S + R + D - total)))
    add("c", "mild cases at least (1-p)/p of severe",
        over((1.0 - pm.p) / pm.p * I_S - I_A) if pm.p > 0.0 else [], skipped=pm.p <= 0.0)
    add("d", "susceptibles above the floor S_min", over(dc.S_min - S))
    add("e", "mild cases at most zeta times severe", over(I_A - dc.zeta * I_S))
    add("f", "response level within [psi_floor, 1]",
        over(np.maximum(dc.psi_floor - psi, psi - 1.0), tol_psi) if psi0 == 1.0 else [],
        skipped=psi0 != 1.0)
    # I_S - phi_plus >= 0 exactly when I_S >= phi_plus (gradual underflow)
    add("g", "severe cases strictly below capacity",
        over(I_S - dc.phi_plus, 0.0, strict=False) if cp is not None else [],
        skipped=cp is None)

    viol_h: list[tuple[float, float]] = []
    if cp is not None:
        down_bound = _down_dwell_bound(cp, dc)
        # a piece that a switch to 1 starts and a switch to 0 ends
        for (start, end, u), (_, _, u_next) in pairwise(traj._phases()[1:]):
            dur = end - start
            if u == 1 and u_next == 0 and dur < down_bound - event_time_tol:
                viol_h.append((start, down_bound - dur))
    add("h", "completed input-1 phases at least the dwell bound", viol_h,
        skipped=cp is None)

    return ValidationReport(checks=tuple(checks))

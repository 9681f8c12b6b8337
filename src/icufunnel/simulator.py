"""Closed-loop hybrid integration with located switching events.

Between switches the dynamics are a smooth ODE in one of two input modes, so
each mode phase is integrated with an adaptive RK45 pair and dense output.
Only one guard is armed per mode: the on threshold (phi_plus - eps_plus)
while relaxed, the off threshold (phi_minus + eps_minus) while intervening.
A sign change of the armed guard between solver knots is located by bisection
on the dense output, the phase is truncated there, the mode flips, and
integration restarts. Open-loop runs fix the input and arm no guard.

Trajectories are sampled on the output grid plus every event instant, and
validated after the fact against the analytically provable path properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .constants import DerivedConstants
from .controller import ControllerParams, control_update
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


class IntegrationError(RuntimeError):
    """The ODE integrator failed inside a mode phase."""


class ChatteringError(RuntimeError):
    """Event count exploded or a zero-length phase appeared."""


class PreconditionError(ValueError):
    """A closed-loop run was started outside its guaranteed-start set."""


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    open_loop_u, when set, fixes the input to that constant and bypasses
    the controller entirely. max_step caps the RK45 step (days) so solver
    knots stay dense enough to bracket every guard crossing; max_switches
    bounds the event count as a chattering tripwire.
    """

    horizon: float = 1000.0
    output_dt: float = 1.0
    rtol: float = 1e-8
    atol: float = 1e-10
    event_time_tol: float = 1e-9
    open_loop_u: int | None = None
    max_switches: int = 1_000_000
    max_step: float = 1.0

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon!r}")
        if not 0.0 < self.output_dt <= self.horizon:
            raise ValueError(
                f"output_dt must be in (0, horizon], got {self.output_dt!r}"
            )
        for name in ("rtol", "atol", "event_time_tol", "max_step"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.open_loop_u not in (None, 0, 1):
            raise ValueError(f"open_loop_u must be 0, 1 or None, got {self.open_loop_u!r}")
        if self.max_switches < 1:
            raise ValueError(f"max_switches must be >= 1, got {self.max_switches!r}")


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
        u = self.u0
        for ev in self.events:
            if ev.t <= t:
                u = ev.u_new
            else:
                break
        return u


@dataclass(frozen=True)
class RunReport:
    """Scalar summary of one run.

    pandemic_end is the time of the last switch to input 0 (0 if none);
    pandemic_over flags whether the severe-case count stays below the on
    threshold from then to the horizon, so a horizon-truncated run is
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
    on threshold produces an event at t = 0.

    Raises:
        PreconditionError: closed-loop start set violated.
        IntegrationError: the integrator failed inside a phase.
        ChatteringError: more than cfg.max_switches events, or an event at
            a phase start (zero-length phase).
        ValueError: neither cp nor cfg.open_loop_u provided.
    """
    pm = scenario.params
    ini = scenario.init
    N = scenario.population()
    open_loop = cfg.open_loop_u is not None
    if not open_loop and cp is None:
        raise ValueError("closed-loop run needs threshold parameters, or set cfg.open_loop_u")
    if not open_loop:
        assert cp is not None
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
    grid = [k * cfg.output_dt for k in range(n_whole + 1)]
    if grid[-1] < cfg.horizon:
        grid.append(cfg.horizon)

    def row(t: float, y) -> State:
        return State(
            S=float(y[0]), I_A=float(y[1]), I_S=float(y[2]),
            R=float(y[3]), D=float(y[4]), psi=float(y[5]), t=t,
        )

    y_cur = np.array([ini.S0, ini.IA0, ini.IS0, ini.R0, ini.D0, ini.psi0], dtype=float)
    samples: list[State] = [row(0.0, y_cur)]
    gi = 1  # grid[0] = 0 is covered by the initial row
    max_is = float(ini.IS0)
    t_cur = 0.0

    while t_cur < cfg.horizon:
        if len(events) > cfg.max_switches:
            raise ChatteringError(
                f"more than {cfg.max_switches} switches; chattering or misconfigured thresholds"
            )
        u_mode = u

        def rhs(t, y, _u=u_mode):
            return derivatives(y[0], y[1], y[2], y[4], y[5], _u, pm, N)

        sol = solve_ivp(
            rhs, (t_cur, cfg.horizon), y_cur, method="RK45",
            dense_output=True, rtol=cfg.rtol, atol=cfg.atol, max_step=cfg.max_step,
        )
        if not sol.success:
            raise IntegrationError(f"integrator failed near t = {sol.t[-1]!r}: {sol.message}")

        # the phase ends where the relay would leave mode u (the armed
        # guard), or else at the last grid time (the horizon, up to the
        # grid's rounding)
        hit = None
        if not open_loop:
            is_knots = sol.y[2]
            for i in range(1, len(sol.t)):
                if control_update(is_knots[i], u, cp) != u:
                    hit = i
                    break

        if hit is None:
            t_end = grid[-1]
        else:
            # bracket [a, b]: not yet crossed at a, crossed at b; shrink to tol
            a, b = float(sol.t[hit - 1]), float(sol.t[hit])
            while b - a > cfg.event_time_tol:
                m = 0.5 * (a + b)
                if control_update(float(sol.sol(m)[2]), u, cp) != u:
                    b = m
                else:
                    a = m
            t_end = b
            if t_end <= t_cur:
                raise ChatteringError(f"zero-length phase: event located at t = {t_end!r}")

        max_is = max(max_is, float(sol.y[2][sol.t <= t_end].max()))
        while gi < len(grid) and grid[gi] < t_end:
            tg = grid[gi]
            yg = sol.sol(tg)
            samples.append(row(tg, yg))
            max_is = max(max_is, float(yg[2]))
            gi += 1
        if gi < len(grid) and grid[gi] == t_end:
            gi += 1  # the closing row takes the grid row's place

        y_end = sol.sol(t_end)
        samples.append(row(t_end, y_end))
        max_is = max(max_is, float(y_end[2]))
        if hit is None:
            break
        u = 1 - u
        events.append(SwitchEvent(t=t_end, u_new=u))
        y_cur = np.asarray(y_end, dtype=float)
        t_cur = t_end

    traj = Trajectory(samples=tuple(samples), events=tuple(events), u0=u0)

    event_times = [ev.t for ev in events]
    dwells = [b - a for a, b in zip(event_times, event_times[1:])]
    off_times = [ev.t for ev in events if ev.u_new == 0]
    pandemic_end = max(off_times) if off_times else 0.0
    threshold = cp.on_threshold() if cp is not None else scenario.capacity.phi_plus()
    report = RunReport(
        D_max=samples[-1].D,
        total_infected_proxy=N - ini.R0 - samples[-1].S,
        input_cost=input_cost(traj, cfg.horizon),
        switch_count=len(events),
        min_observed_dwell=min(dwells) if dwells else math.inf,
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
    total = 0.0
    seg_start = 0.0
    u = traj.u0
    for ev in traj.events:
        if ev.t >= t:
            break
        if u == 1:
            total += ev.t - seg_start
        seg_start = ev.t
        u = ev.u_new
    if u == 1 and t > seg_start:
        total += t - seg_start
    return total


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
    checks: list[ValidationCheck] = []

    def add(name: str, description: str, violations: list[tuple[float, float]],
            skipped: bool = False) -> None:
        checks.append(ValidationCheck(
            name=name, description=description,
            passed=not violations, violations=tuple(violations), skipped=skipped,
        ))

    viol_a: list[tuple[float, float]] = []
    viol_b: list[tuple[float, float]] = []
    viol_c: list[tuple[float, float]] = []
    viol_d: list[tuple[float, float]] = []
    viol_e: list[tuple[float, float]] = []
    viol_f: list[tuple[float, float]] = []
    viol_g: list[tuple[float, float]] = []
    ratio = (1.0 - pm.p) / pm.p if pm.p > 0.0 else math.inf
    for s in traj.samples:
        neg = -min(s.S, s.I_A, s.I_S, s.R, s.D)
        if neg > tol_c:
            viol_a.append((s.t, neg))
        drift = abs(s.S + s.I_A + s.I_S + s.R + s.D - total)
        if drift > tol_c:
            viol_b.append((s.t, drift))
        if pm.p > 0.0:
            defect = ratio * s.I_S - s.I_A
            if defect > tol_c:
                viol_c.append((s.t, defect))
        defect = dc.S_min - s.S
        if defect > tol_c:
            viol_d.append((s.t, defect))
        defect = s.I_A - dc.zeta * s.I_S
        if defect > tol_c:
            viol_e.append((s.t, defect))
        if psi0 == 1.0:
            defect = max(dc.psi_floor - s.psi, s.psi - 1.0)
            if defect > tol_psi:
                viol_f.append((s.t, defect))
        if cp is not None and s.I_S >= dc.phi_plus:
            viol_g.append((s.t, s.I_S - dc.phi_plus))

    add("a", "compartments non-negative", viol_a)
    add("b", "population conserved", viol_b)
    add("c", "mild cases at least (1-p)/p of severe", viol_c, skipped=pm.p <= 0.0)
    add("d", "susceptibles above the floor S_min", viol_d)
    add("e", "mild cases at most zeta times severe", viol_e)
    add("f", "response level within [psi_floor, 1]", viol_f, skipped=psi0 != 1.0)
    add("g", "severe cases strictly below capacity", viol_g, skipped=cp is None)

    viol_h: list[tuple[float, float]] = []
    skipped_h = cp is None
    if cp is not None:
        down_bound = math.log(cp.on_threshold() / cp.eps_minus) / dc.alpha_S_eff
        for prev, nxt in zip(traj.events, traj.events[1:]):
            if prev.u_new == 1 and nxt.u_new == 0:
                dur = nxt.t - prev.t
                if dur < down_bound - event_time_tol:
                    viol_h.append((prev.t, down_bound - dur))
    add("h", "completed input-1 phases at least the dwell bound", viol_h,
        skipped=skipped_h)

    return ValidationReport(checks=tuple(checks))

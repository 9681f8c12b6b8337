"""Closed-loop hybrid integration with located switching events.

Between switches the dynamics are a smooth ODE in one of two input modes, so
each mode phase is integrated with an adaptive RK45 pair and dense output.
Only one guard is armed per mode: the on threshold (phi_plus - eps_plus)
while relaxed, the off threshold (eps_minus) while intervening.
Whether and where the relay switches is decided once per accepted step,
by _switch_time, as the solver accepts it: the armed guard fires at the
step's knot, or inside it, where its I_S interpolant reaches the threshold
at an extremum (_extrema, the real roots of the slope in the step). The
first crossing, between the step's start and the first such extremum or
else the knot, is located by controller._bisect on the dense output, to
within event_time_tol or to adjacent floats, whichever comes first (so any
positive tolerance ends). _switch_time reads the step's I_S polynomial
into Python floats once, and two bounds of one kind, each by the size of
the polynomial's coefficients, skip the root solve: a step whose knot does
not fire is settled as no switch when its values stay clear of the
threshold, and one whose knot fires ends at the knot when its slope keeps
one sign. A bisection midpoint is decided on the polynomial's Horner
value, and only one within rounding of the threshold on _dense_at's, so
every decision, and so every located time, is the one _dense_at gives.
The solve stops at the first step that switches, and returns the bracket's
crossed end as its t_cut; the phase is truncated there, the mode flips, and
integration restarts.
Step sizes are chosen against the horizon as the solver's end point, so
the knots are those of a solve to the horizon, cut at the guard.
Open-loop runs fix the input and arm no guard, so their one solve reaches
the horizon.

The module's own solve_ivp drives each phase: scipy 1.17.1's RK45 (the
Dormand-Prince 5(4) pair, Hairer, Norsett & Wanner, Solving ODEs I,
II.4-II.5), its initial-step rule, its step and the loop of its
solve_ivp, with the tableau as literals. It keeps every numpy operation of
scipy's step and their order, so each knot is scipy's bit for bit, and
does the rest on Python floats; it calls the phase's right-hand side
directly, where scipy wraps each of a step's 6 stage evaluations in two
Python calls and an np.asarray. TestPhaseSolves, TestDenseOutput and
TestStepReplica compare it with scipy's RK45, which only the tests need.

Each phase is sampled from its steps' dense output, which solve_ivp returns
with its knots (the interpolants scipy's OdeSolution would hold; solve_ivp
builds none). The crossing and the closing sample (an event or the horizon;
that state also starts the next phase) lie on the last step, and _dense_at
evaluates them with scipy's scalar arithmetic minus its array wrapping.
The output-grid samples inside the phase go to the steps OdeSolution would
pick, and _dense_rows evaluates all steps holding k of them in one stacked
product. Both give OdeSolution's bits, so every sample
and event time is the one a scipy call gives. The grid is the multiples of
output_dt that do not pass the horizon, plus the horizon.
RK45 chooses its step sizes with no cap: the guard reads the whole of each
step's interpolant, so no crossing hides between two knots however far
apart they are. The one budget of a run, on its grid rows and its solver
steps, is the module constant MAX_STEPS, not a setting. SimConfig checks
the grid rows and the horizon in days up front; the guard checks the
steps the solver accepts against what the earlier phases left of the
budget, since a stiff system (rho near 1) takes far more steps than days.
Every phase takes at least one accepted step, so the same budget bounds
the switch count too: a chattering run ends in IntegrationError.
Trajectories are validated after the fact against the analytically
provable path properties, each check one mask over the sample columns.

The right-hand side unpacks each solver stage with one tolist() and passes
Python floats to model.derivatives: numpy scalar arithmetic costs about
twice as much, and IEEE + - * / give the same bits on either type, so every
knot, event and sample is unchanged. The right-hand side is only the
formula and checks nothing: the solver also evaluates it at trial stages,
which may leave the solution's domain (D > N in a stiff run with rho near
1) and whose step the error test then rejects. simulate checks rho < 1 once
per run, and Scenario owns N - D0 > 0. Python float arithmetic rounds an
overflow to inf without an error, so an overflow inside the right-hand
side surfaces in the solver's numpy operations, which run under np.errstate
and raise, or, in the start derivative of a phase, in solve_ivp's one check
of it; a Python division by zero raises ZeroDivisionError. simulate reports
every such ArithmeticError as IntegrationError.

A run's samples are stored as columns, never as rows: simulate keeps each
phase's (6, k) block from _dense_rows and its closing column, and joins
them once at the end into a _Samples(t, y). validate_trajectory masks those
columns and the CLI's CSV writer reads them; a State row is built only for
a reader who indexes or iterates Trajectory.samples.

The package needs numpy alone: importing scipy.integrate would cost a fresh
process more than the run itself. simulate calls solve_ivp as a module
global, looked up at each call, so a replaced solve_ivp (a test's spy, a
tracer's wrapper) is the one it calls.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .constants import DerivedConstants
from .controller import (
    ControllerParams, _bisect, _down_dwell_bound, _require_ordered, control_update,
)
from .model import Scenario, State, derivatives

__all__ = [
    "SimConfig",
    "SwitchEvent",
    "Trajectory",
    "RunReport",
    "ValidationCheck",
    "ValidationReport",
    "IntegrationError",
    "PreconditionError",
    "simulate",
    "solve_ivp",
    "validate_trajectory",
    "input_cost",
]


# The one budget of a run: SimConfig refuses more grid rows (horizon / output_dt)
# or days (horizon) than this, and simulate stops a run whose solver accepts
# more steps than this. Each phase takes at least one step, so this also
# bounds the switch count.
MAX_STEPS = 1_000_000


class IntegrationError(RuntimeError):
    """The ODE integrator failed inside a mode phase."""


class PreconditionError(ValueError):
    """A closed-loop run was started outside its guaranteed-start set."""


# scipy 1.17.1's RK45, the Dormand-Prince 5(4) pair: each later stage's time
# fraction c and row of A, the weights B of the step and E of its error
# estimate, the dense-output matrix P, and the step-size factors
_STAGES = (
    (1/5, np.array([1/5])),
    (3/10, np.array([3/40, 9/40])),
    (4/5, np.array([44/45, -56/15, 32/9])),
    (8/9, np.array([19372/6561, -25360/2187, 64448/6561, -212/729])),
    (1.0, np.array([9017/3168, -355/33, 46732/5247, 49/176, -5103/18656])),
)
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # -1 / (the error estimate's order + 1)

# One solve's outcome: the fields of scipy's OdeResult that a caller reads, the
# dense output of each accepted step, and where the guard cut the last one
# (None when the solve reached t_bound or failed).
_Solution = namedtuple("_Solution", "t y success status message nfev steps t_cut")
# One accepted RK45 step's dense output: the fields of scipy's RkDenseOutput.
_Step = namedtuple("_Step", "t_old h y_old Q")


def _norm(x: np.ndarray):
    """The RMS norm, as scipy's first-step rule forms it."""
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0: float, y0: np.ndarray, f0: np.ndarray, t_bound: float,
                  rtol: float, atol: float):
    """scipy 1.17.1's select_initial_step for RK45 forward from t0, with no step cap.

    The rule of Hairer, Norsett & Wanner (Solving ODEs I, II.4): a trial
    step h0 from the sizes of y0 and f0, one evaluation at t0 + h0, and a
    step that makes the error estimate's order-5 term about 0.01, at most
    100 h0 and never past t_bound.
    """
    interval_length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = np.asarray(fun(t0 + h0, y0 + h0 * f0))
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def solve_ivp(fun, t_span, y0, *, guard, rtol: float, atol: float) -> _Solution:
    """Integrate y' = fun(t, y) forward over t_span = (t0, t_bound) with RK45.

    The steps are those of scipy 1.17.1's solve_ivp(fun, t_span, y0,
    method="RK45", rtol=rtol, atol=atol), bit for bit: the same initial
    step (_initial_step), and per step the numpy operations of its
    RungeKutta._step_impl in the same order, since each dot and its order
    fix the bits. Around them the arithmetic is on Python floats (t, h,
    h_abs, the stage times t + c * h, the error norm), which give the same
    bits, and fun is called directly, without scipy's wrapping of each of a
    step's 6 evaluations. TestStepReplica compares the two.

    After each accepted step the solve calls guard(n, t_new, y_new, dense):
    n is the number of steps accepted so far in this solve, then come the
    step's end time, its new state and its dense output, a _Step holding
    what scipy's RkDenseOutput would, on the driver's Python floats. guard
    returns None to go on, or a time, where it cuts the phase, to end the
    solve at that step. Step sizes are chosen against t_bound either way.
    Returns a _Solution: the knots t, the states y as columns, success,
    status (0 at t_bound, 1 where guard cut, -1 on failure), message,
    nfev (the number of evaluations of fun), steps (the _Step of each
    accepted step, so len(steps) == len(t) - 1) and t_cut (guard's time,
    or None at t_bound or on failure). A step size that falls below
    10 float spacings of t, or is nan (from a nan derivative, on which
    scipy's loop would spin forever), fails the solve.

    Raises:
        ValueError: t0 is not below t_bound.
        FloatingPointError: the derivative at t0 has an infinite
            component (an overflow in fun, which Python floats round to inf
            without an error). It is checked once per solve, not per stage.
    """
    t, t_bound = map(float, t_span)
    if not t < t_bound:
        raise ValueError(f"solve_ivp integrates forward only, got t_span {t_span!r}")
    y = np.asarray(y0, dtype=float)
    f = np.asarray(fun(t, y))
    if np.isinf(f).any():
        raise FloatingPointError("overflow encountered in the start derivative")
    h_abs = float(_initial_step(fun, t, y, f, t_bound, rtol, atol))
    nfev = 2
    K = np.empty((7, y.size))
    stages = [(c, K[:s].T, a) for s, (c, a) in enumerate(_STAGES, 1)]  # views of K's rows
    K_head = K[:-1].T
    n_root = y.size ** 0.5
    ts, ys, steps, t_cut = [t], [y], [], None
    status, message = 0, "The solver successfully reached the end of the integration interval."
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        K[0] = f  # no stage writes row 0, so a retry keeps it
        step_rejected = False
        while h_abs >= min_step:  # false for a nan step size too
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            for s, (c, K_s, a) in enumerate(stages, 1):
                K[s] = fun(t + c * h, y + K_s.dot(a) * h)
            y_new = y + h * K_head.dot(_B)
            K[-1] = f_new = fun(t + h, y_new)
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = K.T.dot(_E) * h / scale
            error_norm = math.sqrt(err.dot(err)) / n_root  # np.linalg.norm's own path
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
        else:
            status, message = -1, "Required step size is less than spacing between numbers."
            break
        factor = MAX_FACTOR if error_norm == 0 else min(
            MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
        h_abs *= min(1, factor) if step_rejected else factor
        steps.append(_Step(t, h, y, K.T.dot(_P)))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        t_cut = guard(len(steps), t, y, steps[-1])
        if t_cut is not None:
            status, message = 1, "A termination event occurred."
            break
    return _Solution(np.array(ts), np.array(ys).T, status >= 0, status, message, nfev,
                     steps, t_cut)


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    Samples are taken at every multiple k * output_dt that does not pass the
    horizon, plus the horizon itself when it is not such a multiple.
    open_loop_u, when set, fixes the input to that constant and bypasses
    the controller entirely. event_time_tol may be any positive value: a
    switch is located to within it, or to adjacent floats when it is below
    the float spacing there. rtol must be at least 100 times the machine
    epsilon (2.220446049250313e-14), the floor of the solver's error
    control (scipy's RK45 raises a smaller one to it, with a warning). The
    run-length cap MAX_STEPS is a module
    constant, not a setting: horizon / output_dt (the grid rows) and the
    horizon in days must not pass it, and simulate raises IntegrationError
    once the solver has accepted more than MAX_STEPS steps in the run. That
    one rule is the grid's only size rule: an output_dt so small that
    horizon / output_dt rounds to inf passes MAX_STEPS too. The solver
    chooses its step sizes with no cap, yet a horizon of 1e300 days with
    one grid row would still grind through the whole step budget, hence the
    rule on days. Each rule here is checked only here: the CLI passes
    --open-loop through as open_loop_u unchecked.
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
        if max(self.horizon, self.horizon / self.output_dt) > MAX_STEPS:
            raise ValueError(
                f"run too long: max(horizon, horizon / output_dt) is above MAX_STEPS = "
                f"{MAX_STEPS}, got horizon {self.horizon!r}, output_dt {self.output_dt!r}")
        for name in ("rtol", "atol", "event_time_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.rtol < 100 * sys.float_info.epsilon:  # the solver's floor
            raise ValueError("rtol must be >= 100 * machine epsilon = "
                             f"{100 * sys.float_info.epsilon!r}, got {self.rtol!r}")
        if self.open_loop_u not in (None, 0, 1):
            raise ValueError(f"open_loop_u must be 0, 1 or None, got {self.open_loop_u!r}")


@dataclass(frozen=True)
class SwitchEvent:
    """One located input switch: time (days) and the value switched to."""

    t: float
    u_new: int


class _Samples(Sequence):
    """A run's samples as columns, read as a sequence of State rows.

    t is the (n,) array of sample times and y the (6, n) array of states in
    the order S, I_A, I_S, R, D, psi, both float64 and read-only. An int
    index (negative too) builds one State, a slice a tuple of States, and
    iteration yields States: rows exist only for a reader who asks for them.
    Equality compares the columns, the hash agrees with it (0.0 and -0.0
    alike), and repr is that of the tuple of rows.
    """

    __slots__ = ("t", "y")

    def __init__(self, t: np.ndarray, y: np.ndarray) -> None:
        t.flags.writeable = y.flags.writeable = False
        self.t, self.y = t, y

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(_Samples(self.t[key], self.y[:, key]))
        i = operator.index(key)
        return State(*self.y[:, i].tolist(), self.t[i].item())

    def __iter__(self):
        for *y, t in zip(*self.y.tolist(), self.t.tolist()):
            yield State(*y, t)

    def __eq__(self, other) -> bool:
        return (isinstance(other, _Samples) and np.array_equal(self.t, other.t)
                and np.array_equal(self.y, other.y))

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which == already equates
        return hash(((self.t + 0.0).tobytes(), (self.y + 0.0).tobytes()))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution plus the exact switching record.

    samples hold the state at every output-grid multiple and at every event
    instant, strictly increasing in time, ending at the horizon. They are
    stored as columns (samples.t and samples.y, see _Samples) and read as a
    sequence of State rows. A tuple or list of States given here, as a
    hand-made trajectory or dataclasses.replace passes it, is stacked into
    columns once; every value is stored as float64, so an int field reads
    back, prints and is written to the CSV as a float. u0 is the input value
    before the first event (always 0 for closed-loop runs); the full input
    path is piecewise constant and right-continuous.
    """

    samples: Sequence[State]
    events: tuple[SwitchEvent, ...]
    u0: int

    def __post_init__(self) -> None:
        if not isinstance(self.samples, _Samples):  # State rows, stacked once
            cols = np.array([(s.t, *s.as_tuple()) for s in self.samples], float).reshape(-1, 7).T
            object.__setattr__(self, "samples", _Samples(cols[0], cols[1:]))

    @property
    def horizon(self) -> float:
        return self.samples.t[-1].item()

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
        PreconditionError: unordered pair, or closed-loop start set violated.
        IntegrationError: the integrator failed inside a phase, hit any
            ArithmeticError (a floating-point overflow, invalid operation or
            division by zero, numpy's or Python's, at a trial stage too),
            or accepted more than MAX_STEPS steps over the run (so a
            chattering run ends here too).
        ValueError: neither cp nor cfg.open_loop_u provided, or rho >= 1,
            for which the symptomatic removal rate alpha_S / (1 - rho) is
            undefined (checked once, after the closed-loop start set).
    """
    pm = scenario.params
    ini = scenario.init
    N = scenario.population()
    open_loop = cfg.open_loop_u is not None
    if not open_loop:
        if cp is None:
            raise ValueError("closed-loop run needs threshold parameters, or set cfg.open_loop_u")
        _require_ordered(cp, PreconditionError)
        if ini.IS0 > cp.on_threshold():
            raise PreconditionError(
                f"I_S(0) = {ini.IS0!r} exceeds the on threshold {cp.on_threshold()!r}"
            )
        if ini.D0 != 0.0:
            raise PreconditionError(f"closed-loop runs require D0 = 0, got {ini.D0!r}")
        if ini.psi0 != 1.0:
            raise PreconditionError(f"closed-loop runs require psi0 = 1, got {ini.psi0!r}")
    if pm.rho >= 1.0:
        raise ValueError("rho must be < 1 to form the symptomatic removal rate")

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
    grid = np.arange(n_whole + 1) * cfg.output_dt
    grid = np.append(grid[grid < cfg.horizon], cfg.horizon)

    y_cur = np.array([ini.S0, ini.IA0, ini.IS0, ini.R0, ini.D0, ini.psi0], dtype=float)
    t_blocks: list = [[0.0]]  # the sample columns, one block per piece
    y_blocks: list = [y_cur[:, None]]
    gi = 1  # grid[0] = 0 is covered by the initial column
    max_is = float(ini.IS0)
    t_cur = 0.0
    steps_left = MAX_STEPS  # accepted steps the run may still take

    while t_cur < cfg.horizon:
        def rhs(t, y, _u=u):
            S, I_A, I_S, _, D, psi = y.tolist()
            return derivatives(S, I_A, I_S, D, psi, _u, pm, N)

        def guard(n, t_new, y_new, dense, _u=u):
            if n > steps_left:
                raise IntegrationError(f"more than MAX_STEPS = {MAX_STEPS} solver steps "
                                       f"by t = {t_new!r}")
            return None if open_loop else _switch_time(
                dense, t_new, y_new, _u, cp, cfg.event_time_tol)

        try:
            # an overflow or nan would otherwise only warn, and RK45 keeps stepping on
            # nan; a Python float division by zero raises ZeroDivisionError on its own
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                sol = solve_ivp(rhs, (t_cur, cfg.horizon), y_cur, guard=guard,
                                rtol=cfg.rtol, atol=cfg.atol)
        except ArithmeticError as exc:
            raise IntegrationError(f"floating-point error after t = {t_cur!r}: {exc}") from exc
        if not sol.success:
            raise IntegrationError(f"integrator failed near t = {sol.t[-1].item()!r}: {sol.message}")

        # the solve ends at the first step that switches, or else at the
        # horizon, where the last step may switch too
        t_end = cfg.horizon if sol.t_cut is None else sol.t_cut
        # grid columns strictly inside the phase, then the closing column,
        # which also starts the next phase
        gj = bisect_left(grid, t_end, gi)
        ts = grid[gi:gj]
        ys = _dense_rows(sol.steps, sol.t, ts)
        y_end = _dense_at(sol.steps[-1], t_end)
        t_blocks += (ts, [t_end])
        y_blocks += (ys, y_end[:, None])
        steps_left -= len(sol.steps)
        phase_is = np.concatenate((sol.y[2][sol.t <= t_end], ys[2], y_end[2:3]))
        max_is = max(max_is, float(phase_is.max()))
        if sol.t_cut is None:
            break
        gi = bisect_right(grid, t_end, gj)  # the closing column takes an equal grid time's place
        u = 1 - u
        events.append(SwitchEvent(t=t_end, u_new=u))
        y_cur = y_end
        t_cur = t_end

    del sol  # the last phase's steps, freed before the blocks are joined
    samples = _Samples(np.concatenate(t_blocks), np.concatenate(y_blocks, axis=1))
    traj = Trajectory(samples=samples, events=tuple(events), u0=u0)

    phases = traj._phases()
    pandemic_end = max((start for start, _, u in phases if u == 0), default=0.0)
    threshold = scenario.capacity.phi_plus() if open_loop else cp.on_threshold()
    report = RunReport(
        D_max=y_end[4].item(),
        total_infected_proxy=N - ini.R0 - y_end[0].item(),
        input_cost=input_cost(traj, cfg.horizon),
        switch_count=len(events),
        # the pieces between two events: the first starts at 0, the last ends at the horizon
        min_observed_dwell=min((end - start for start, end, _ in phases[1:-1]), default=math.inf),
        pandemic_end=pandemic_end,
        max_IS=max_is,
        icu_bound_satisfied=max_is < scenario.capacity.phi_plus(),
        pandemic_over=bool(np.all(samples.y[2][samples.t >= pandemic_end] < threshold)),
    )
    return traj, report



def _dense_at(dense, t: float) -> np.ndarray:
    """The state at time t on one RK45 step's dense output, bit for bit dense(t).

    The same scalar arithmetic as scipy's RkDenseOutput: x = (t - t_old) / h,
    its powers x .. x**4 by successive products (as np.cumprod forms them),
    one gemv against Q, scaled by h and added to y_old; without the array
    wrapping of a scipy call, which costs about four times as much.
    """
    h = dense.h
    x = (t - dense.t_old) / h
    x2 = x * x
    x3 = x2 * x
    return h * np.dot(dense.Q, np.array((x, x2, x3, x3 * x))) + dense.y_old


def _extrema(dense) -> list[float]:
    """The times of the extrema of I_S strictly inside one RK45 step, in order.

    On the step, I_S = y_old[2] + h * (a1 x + a2 x**2 + a3 x**3 + a4 x**4)
    for x = (t - t_old) / h in [0, 1], with (a1, a2, a3, a4) = Q[2]; its
    extrema are where the slope cubic changes sign. Each real root x in
    (0, 1) gives t = t_old + x * h, and every complex root is dropped: a
    complex pair is no sign change of the slope, nor is a double root. Two
    real roots close enough to come out complex (apart by about sqrt(eps)
    or less, eps the machine epsilon) enclose a bump of I_S of the order of
    h * size * eps**1.5 (size = |a1| + |a2| + |a3| + |a4|), far below
    _switch_time's slack, so no crossing it resolves is lost.
    """
    a1, a2, a3, a4 = dense.Q[2].tolist()
    h, t_old = dense.h, dense.t_old
    roots = np.roots((4 * a4, 3 * a3, 2 * a2, a1)).tolist()
    return [t_old + x * h
            for x in sorted(r.real for r in roots if r.imag == 0.0 and 0.0 < r.real < 1.0)]


def _switch_time(dense, t_new: float, y_new, u: int, cp: ControllerParams,
                 tol: float) -> float | None:
    """Where the relay leaves mode u on one RK45 step ending at (t_new, y_new), or None.

    The armed threshold is the on threshold while relaxed (u = 0, reached
    from below) and the off threshold while intervening (u = 1, from
    above); the step starts where the relay holds u. The step fires at its
    knot, tested on the solver's own state y_new, or at an extremum of its
    I_S interpolant (see _extrema). Two filters skip the root solve, each a
    triangle-inequality bound on the coefficients a1 .. a4 of that
    polynomial, widened by far more than the rounding of _dense_at, that of
    x included, so it may let a step through but never drops one that
    needs it:
    - the knot does not fire and I_S stays within y0 +- h * size, with
      size = |a1| + |a2| + |a3| + |a4|, clear of the threshold by slack, so
      no time in the step reaches it: None;
    - the knot fires and |a1| > 2|a2| + 3|a3| + 4|a4| + 1e-12 * size, so
      the slope a1 + 2 a2 x + 3 a3 x**2 + 4 a4 x**3 keeps the sign of a1 on
      [0, 1]: the step is monotone and the crossed times are one interval
      ending at the knot.
    On the closed_loop inputs of perfbench seeds 1-3 all but 37 of 69,457
    steps are settled by one of the two.
    Otherwise the extrema are tried in order, and the first where the relay
    leaves mode u ends the bracket; with none, the knot does, and a knot
    that does not fire leaves None. Every extremum before the bracket's end
    stays clear, so the crossed times up to it are one interval, and
    controller._bisect locates its start from t_old, to within tol or to
    adjacent floats. The result is the bracket's crossed end.

    Whether the relay leaves mode u at a time t (an extremum or a midpoint)
    is decided on I_S by Horner's rule on Python floats, with _dense_at's x.
    That value and _dense_at's differ by a few ulps of |y0| + h * size,
    about a thousandth of slack, so a Horner value more than slack from the
    threshold is on the same side as _dense_at's; only one within slack
    calls _dense_at, and every decision is the one _dense_at gives. cp is
    ordered, as simulate requires, so while intervening the relay leaves
    mode 1 exactly where I_S is at or below the off threshold.
    """
    a1, a2, a3, a4 = dense.Q[2].tolist()
    h, t_old, y0 = dense.h, dense.t_old, dense.y_old.item(2)
    size = abs(a1) + abs(a2) + abs(a3) + abs(a4)
    slack = 1e-12 * (abs(y0) + (abs(t_old) + h) * size)
    threshold = cp.on_threshold() if u == 0 else cp.off_threshold()
    at_knot = control_update(y_new.item(2), u, cp) != u
    if not at_knot and (y0 + h * size + slack < threshold if u == 0
                        else y0 - h * size - slack > threshold):
        return None

    def crossed(t):
        x = (t - t_old) / h  # _dense_at's x
        gap = y0 + h * (x * (a1 + x * (a2 + x * (a3 + x * a4)))) - threshold
        if abs(gap) > slack:  # Horner and _dense_at agree on the side
            return (gap > 0.0) == (u == 0)
        return control_update(float(_dense_at(dense, t)[2]), u, cp) != u

    end = t_new if at_knot else None
    # a step that fires at its knot and whose slope keeps a1's sign ends there
    if not (at_knot and abs(a1) > 2 * abs(a2) + 3 * abs(a3) + 4 * abs(a4) + 1e-12 * size):
        end = next((t for t in _extrema(dense) if crossed(t)), end)
    return None if end is None else _bisect(t_old, end, crossed, tol)[1]


def _dense_rows(steps: list, knots: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The states at sorted times ts as columns, bit for bit OdeSolution(knots, steps)(ts).

    Each time goes to the step OdeSolution picks: a time on a knot to the
    step that ends there. OdeSolution evaluates each step's k times with one
    (6, 4) @ (4, k) product; every step holding k times is done here in one
    stacked (m, 6, 4) @ (m, 4, k) product, which gives the same bits.
    """
    seg, first, count = np.unique(
        np.searchsorted(knots, ts) - 1, return_index=True, return_counts=True)
    ys = np.empty((6, len(ts)))
    for k in np.unique(count).tolist():
        pick = count == k
        dense = [steps[i] for i in seg[pick].tolist()]
        idx = first[pick][:, None] + np.arange(k)  # (m, k) row positions
        h = np.array([d.h for d in dense])[:, None]
        x = (ts[idx] - np.array([d.t_old for d in dense])[:, None]) / h
        p = np.cumprod(np.broadcast_to(x[:, None, :], (len(dense), 4, k)), axis=1)
        y = h[:, :, None] * (np.array([d.Q for d in dense]) @ p)
        ys[:, idx] = (y + np.array([d.y_old for d in dense])[:, :, None]).transpose(1, 0, 2)
    return ys


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

    Each check is one mask over the sample columns; no State row is built.
    Returns a report, in which each failed check lists (time, magnitude).

    Raises:
        ValueError: cp is an unordered pair (controller._require_ordered),
            for which check h's dwell bound is negative or undefined.
    """
    if cp is not None:
        _require_ordered(cp)
    pm = scenario.params
    total = scenario.population()
    tol_c = 1e-6 * total if tol_compartment is None else tol_compartment
    t, (S, I_A, I_S, R, D, psi) = traj.samples.t, traj.samples.y
    psi0 = float(psi[0])
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

"""Independent reference solution for output checks.

Integrates ``icufunnel.model.derivatives`` with scipy's DOP853 pair
(Dormand & Prince, 1980) at rtol = atol = 1e-12. Each mode phase of the
relay carries one terminal, directional guard event, so the solver itself
locates every switching instant (Shampine, Gladwell & Brankin, 1991) and
no phase is integrated past its switch. This shares no code with
``icufunnel.simulator`` and is never timed.

The solver only sees a crossing as a sign change between step ends, and
at these tolerances it takes steps of several days where the solution is
smooth, so a brief excursion over a threshold can fall inside one step.
MAX_STEP_DAYS caps the step at the simulator's own one day, so every
excursion the simulator can see, the reference sees too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from icufunnel.model import derivatives

RTOL = 1e-12
ATOL = 1e-12
MAX_STEP_DAYS = 1.0


@dataclass(frozen=True)
class Reference:
    """Switch record, states at the requested times, and the ICU verdict."""

    events: tuple[tuple[float, int], ...]  # (time, input switched to)
    times: np.ndarray                      # requested check times
    states: np.ndarray                     # shape (len(times), 6)
    reached_phi_plus: bool                 # I_S touched phi_plus somewhere


def _guard(threshold: float, direction: float, terminal: bool):
    def g(t, y):
        return y[2] - threshold
    g.terminal = terminal
    g.direction = direction
    return g


def reference_run(scenario, horizon: float, times, cp=None, open_loop_u=None) -> Reference:
    """Closed loop when ``cp`` is given, else the fixed input ``open_loop_u``.

    The relay starts from u(0-) = 0 and switches on at a start on the on
    threshold, as the package's controller does.
    """
    pm = scenario.params
    ini = scenario.init
    N = scenario.population()
    phi_plus = scenario.capacity.phi_plus()
    times = np.asarray(times, dtype=float)
    states = np.full((times.size, 6), np.nan)
    y = np.array([ini.S0, ini.IA0, ini.IS0, ini.R0, ini.D0, ini.psi0], dtype=float)
    t = 0.0
    events: list[tuple[float, int]] = []
    if cp is None:
        u = int(open_loop_u)
    else:
        u = 1 if ini.IS0 >= cp.on_threshold() else 0
        if u == 1:
            events.append((0.0, 1))
    reached = ini.IS0 >= phi_plus
    capacity = _guard(phi_plus, 1.0, terminal=False)

    while t < horizon:
        guards = [capacity]
        if cp is not None:
            if u == 0:
                guards.append(_guard(cp.on_threshold(), 1.0, terminal=True))
            else:
                guards.append(_guard(cp.off_threshold(), -1.0, terminal=True))

        def rhs(_t, yy, _u=u):
            return derivatives(yy[0], yy[1], yy[2], yy[4], yy[5], _u, pm, N)

        sol = solve_ivp(rhs, (t, horizon), y, method="DOP853", rtol=RTOL, atol=ATOL,
                        max_step=MAX_STEP_DAYS, events=guards, dense_output=True)
        if not sol.success and sol.status != 1:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        reached = reached or sol.t_events[0].size > 0
        t_end = float(sol.t[-1])
        inside = (times >= t) & (times <= t_end)
        if inside.any():
            states[inside] = sol.sol(times[inside]).T
        if sol.status == 1:
            t = float(sol.t_events[1][0])
            y = np.asarray(sol.y_events[1][0], dtype=float)
            u = 1 - u
            events.append((t, u))
        else:
            t = horizon
    return Reference(events=tuple(events), times=times, states=states,
                     reached_phi_plus=bool(reached))

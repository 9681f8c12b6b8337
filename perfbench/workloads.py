"""The three benchmark workloads: inputs from a seed, one operation, checks.

Every workload is a fixed list of inputs generated from the seed alone; the
package only ever sees those generated inputs. The timed loop cycles over
the list. Operations call icufunnel through its module attributes at call
time, so the tracer's wrappers see them.

closed_loop
    The bundled city at horizon 1000 with its [sim] defaults. Inputs: the
    two reference pairs (10, 8) and (10, 20), plus 16 seeded pairs (the
    sweep) with eps_plus in [6, 14] and eps_minus in [4, 28], one point in
    each cell of a fixed Latin-square design, so every seed covers both
    ranges evenly with the same mix of cheap and costly runs. Run costs
    cluster by switch count; 18 distinct runs keep the median inside one
    cluster. One operation is
    what CLI ``simulate`` does, plus validation. Runs make 14-44 switches;
    the simulator re-integrates to the horizon after each, so phase
    integration and event location do almost all the work.
open_loop_fine
    Seeded perturbations (x0.9 to x1.1, clipped to [0, 1]) of the city's
    beta_*, psi_bar and gamma_* rates, which leave its A1.3 and A2.4
    equalities intact; the fixed input alternates 0, 1. output_dt = 0.1,
    so 10,001 samples per run. One phase, no guard: event location is
    idle and per-sample work (dense rows, validation, CSV) is about half.
certify
    Seeded +-2% perturbations of the interior scenario (D0 = 0, psi0 = 1
    kept). One operation derives the constants, checks Sigma_rob, builds
    and checks a pair, runs the q monotonicity scan, the dwell bounds and
    the robustness probe. No ODE work: constants, controller and analysis.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

import icufunnel.analysis as analysis
import icufunnel.cli as cli
import icufunnel.constants as constants
import icufunnel.controller as controller
import icufunnel.simulator as simulator
from icufunnel.model import CapacityPolicy, EpidemicParams, InitialState, Scenario

from .reference import reference_run

NAMES = ("closed_loop", "open_loop_fine", "certify")

# criterion 7's tolerances: event times in days, states relative to N
EVENT_T_TOL = 1e-3
STATE_TOL_REL = 1e-4
Q_LEFT_TOL_REL = 1e-9
AUDIT_HORIZON = 400.0

SWEEP_POINTS = 16
OPEN_LOOP_INPUTS = 9
CERTIFY_INPUTS = 26

INTERIOR = {
    "params": dict(beta_A=0.37, beta_S=0.43, alpha_A=0.095, alpha_S=0.085, p=0.02,
                   rho=0.15, gamma_0=1.0, gamma_1=1.0, psi_bar=0.9, gamma_K=1.0),
    "init": dict(S0=49900.0, IA0=90.0, IS0=1.5, R0=50000.0),
    "capacity": dict(n_icu=40.0, xi=0.1),
}
OPEN_LOOP_RATES = ("beta_A", "beta_S", "psi_bar", "gamma_0", "gamma_1", "gamma_K")


def scenario_dict(sc: Scenario) -> dict:
    return {"params": vars(sc.params).copy(), "init": vars(sc.init).copy(),
            "capacity": vars(sc.capacity).copy()}


def scenario_from_dict(d: dict) -> Scenario:
    return Scenario(params=EpidemicParams(**d["params"]), init=InitialState(**d["init"]),
                    capacity=CapacityPolicy(**d["capacity"]))


def digest(inputs: list[dict]) -> str:
    """sha256 of the inputs, floats written with repr (exact)."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _city():
    return cli.load_scenario_file(cli.bundled_scenario_path())


def generate(name: str, seed: int) -> list[dict]:
    """The workload's inputs as plain data. Depends on the seed alone."""
    rng = np.random.default_rng(seed)
    if name == "closed_loop":
        # Latin hypercube with a fixed space-filling pairing of the cells; the
        # seed places each point inside its cell, so each coordinate is still
        # uniform over its range but every seed gets the same mix of cheap
        # and expensive runs.
        cells = np.arange(SWEEP_POINTS)
        pairing = (5 * cells + 1) % SWEEP_POINTS
        eps_plus = 6.0 + 8.0 * (cells + rng.uniform(0.0, 1.0, SWEEP_POINTS)) / SWEEP_POINTS
        eps_minus = 4.0 + 24.0 * (pairing + rng.uniform(0.0, 1.0, SWEEP_POINTS)) / SWEEP_POINTS
        pairs = [(10.0, 8.0), (10.0, 20.0)] + list(zip(eps_plus.tolist(), eps_minus.tolist()))
        return [{"eps_plus": ep, "eps_minus": em} for ep, em in pairs]
    if name == "open_loop_fine":
        base = scenario_dict(_city().scenario)
        out = []
        for k in range(OPEN_LOOP_INPUTS):
            d = json.loads(json.dumps(base))
            for key in OPEN_LOOP_RATES:
                d["params"][key] = min(1.0, d["params"][key] * float(rng.uniform(0.9, 1.1)))
            out.append({"scenario": d, "u": k % 2})
        return out
    if name == "certify":
        out = []
        for _ in range(CERTIFY_INPUTS):
            d = {group: {k: v * float(rng.uniform(0.98, 1.02)) for k, v in values.items()}
                 for group, values in INTERIOR.items()}
            d["params"] = {k: min(1.0, v) for k, v in d["params"].items()}
            d["init"].update(D0=0.0, psi0=1.0)
            out.append({"scenario": d})
        return out
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# -- simulation workloads ------------------------------------------------------


@dataclass
class SimCase:
    label: str
    scenario: Scenario
    cp: object  # ControllerParams or None
    cfg: object  # SimConfig
    dc: object  # DerivedConstants, for validation
    in_sigma: bool
    check_times: np.ndarray = field(default=None)
    reference: object = None


@dataclass
class SimOutcome:
    """Failure reasons of one operation, and its worst errors (nan if none compared)."""

    failures: list[str]
    event_t_err: float = float("nan")
    state_err_rel: float = float("nan")


def _integer_day_times(cfg) -> np.ndarray:
    # the simulator's own grid expression, keeping only whole days
    per_day = round(1.0 / cfg.output_dt)
    n_whole = int(np.floor(cfg.horizon / cfg.output_dt + 1e-12))
    return np.array([k * cfg.output_dt for k in range(0, n_whole + 1, per_day)])


def sim_cases(name: str, inputs: list[dict]) -> list[SimCase]:
    cases = []
    if name == "closed_loop":
        sf = _city()
        sc = sf.scenario
        dc = constants.derive_constants(sc)
        in_sigma = constants.check_sigma(sc, dc).in_sigma
        cfg = sf.sim_config()
        for inp in inputs:
            cp = controller.ControllerParams(eps_plus=inp["eps_plus"], eps_minus=inp["eps_minus"],
                                             phi_plus=sc.capacity.phi_plus())
            cases.append(SimCase(f"pair({inp['eps_plus']:.4g}, {inp['eps_minus']:.4g})",
                                 sc, cp, cfg, dc, in_sigma))
    else:
        base_cfg = _city().sim_config()
        for k, inp in enumerate(inputs):
            sc = scenario_from_dict(inp["scenario"])
            dc = constants.derive_constants(sc)
            cfg = simulator.SimConfig(horizon=base_cfg.horizon, output_dt=0.1, rtol=base_cfg.rtol,
                                      atol=base_cfg.atol, event_time_tol=base_cfg.event_time_tol,
                                      open_loop_u=inp["u"])
            cases.append(SimCase(f"open{k}(u={inp['u']})", sc, None, cfg, dc,
                                 constants.check_sigma(sc, dc).in_sigma))
    for case in cases:
        case.check_times = _integer_day_times(case.cfg)
        case.reference = reference_run(case.scenario, case.cfg.horizon, case.check_times,
                                       cp=case.cp, open_loop_u=case.cfg.open_loop_u)
    return cases


def sim_op(case: SimCase):
    """One operation: simulate, validate, and render what CLI simulate writes."""
    traj, report = simulator.simulate(case.scenario, case.cp, case.cfg)
    validation = simulator.validate_trajectory(traj, case.scenario, case.dc, case.cp)
    texts = (cli.trajectory_csv_text(traj), cli.events_csv_text(traj),
             cli.run_report_text(report))
    return traj, report, validation, texts


def check_sim(case: SimCase, result) -> SimOutcome:
    """Classify one simulation operation against the reference.

    Fails on: a different event count or switch direction, an event time
    off by more than EVENT_T_TOL days, an integer-day state off by more
    than STATE_TOL_REL * N, validation checks a, b, f or h failing, checks
    c-e failing where check_sigma holds, or rendered text that does not
    match the trajectory.
    """
    traj, report, validation, texts = result
    ref = case.reference
    N = case.scenario.population()
    failures: list[str] = []

    got = [(ev.t, ev.u_new) for ev in traj.events]
    event_err = 0.0
    if len(got) != len(ref.events):
        failures.append(f"event count {len(got)} != reference {len(ref.events)}")
    else:
        for (t, u), (t_ref, u_ref) in zip(got, ref.events):
            event_err = max(event_err, abs(t - t_ref))
            if u != u_ref:
                failures.append(f"switch at t={t!r} to u={u}, reference u={u_ref}")
        if event_err > EVENT_T_TOL:
            failures.append(f"event time off by {event_err!r} days")

    by_t = {s.t: s for s in traj.samples}
    rows = [by_t.get(float(t)) for t in case.check_times]
    state_err = float("nan")
    if any(r is None for r in rows):
        failures.append("integer-day samples missing from the trajectory")
    else:
        got_states = np.array([r.as_tuple()[:5] for r in rows])
        state_err = float(np.max(np.abs(got_states - ref.states[:, :5]))) / N
        if not state_err <= STATE_TOL_REL:
            failures.append(f"integer-day state off by {state_err!r} N")

    required = ["a", "b", "f", "h"] + (["c", "d", "e"] if case.in_sigma else [])
    for name in required:
        if not validation.check(name).passed:
            failures.append(f"validation check {name} failed")

    traj_csv, events_csv, report_txt = texts
    if traj_csv.count("\n") != len(traj.samples) + 1:
        failures.append("trajectory CSV row count differs from the samples")
    if events_csv.count("\n") != len(traj.events) + 1:
        failures.append("events CSV row count differs from the events")
    if f"max_IS = {report.max_IS!r}\n" not in report_txt:
        failures.append("report text does not carry max_IS")

    return SimOutcome(failures=failures, event_t_err=event_err if got else float("nan"),
                      state_err_rel=state_err)


# -- certify -------------------------------------------------------------------

CERTIFY_ALLOWED = (controller.InfeasibleError, simulator.PreconditionError,
                   constants.DerivationError)


@dataclass
class CertifyResult:
    scenario: Scenario
    dc: object = None
    in_sigma_rob: bool = False
    cp: object = None
    cz: object = None
    error: BaseException | None = None  # one of CERTIFY_ALLOWED


def certify_cases(inputs: list[dict]) -> list[Scenario]:
    return [scenario_from_dict(inp["scenario"]) for inp in inputs]


def certify_op(sc: Scenario) -> CertifyResult:
    """One operation of the certify pipeline, in the order a user runs it."""
    res = CertifyResult(scenario=sc)
    try:
        res.dc = constants.derive_constants(sc)
        res.in_sigma_rob = constants.check_sigma_rob(sc, res.dc).in_sigma_rob
        if res.in_sigma_rob:
            res.cp = controller.find_feasible_eps(sc, res.dc)
            res.cz = controller.in_CZ(res.cp, sc, res.dc)
        analysis.q_monotonicity_check(sc, res.dc, grid=10_000)
        if res.cp is not None:
            # worst mild-case count at switch-off allowed by check e
            controller.dwell_lower_bounds(res.cp, res.dc, res.dc.zeta * res.cp.eps_minus)
            analysis.robustness_probe(sc, res.cp, delta=1e-3, samples=256)
    except CERTIFY_ALLOWED as exc:
        res.error = exc
    return res


def check_certify(res: CertifyResult) -> list[str]:
    """A certified pair must pass in_CZ and q(M2/M1) must equal M3."""
    failures = []
    if res.cp is None:
        return failures
    if not res.cz.in_cz:
        failures.append("constructed pair fails in_CZ")
    dc = res.dc
    q_left = controller.q_eval(dc.M2 / dc.M1, dc, res.scenario)
    if not abs(q_left - dc.M3) <= Q_LEFT_TOL_REL * abs(dc.M3):
        failures.append(f"q(M2/M1) = {q_left!r} but M3 = {dc.M3!r}")
    return failures


def icu_audit(res: CertifyResult) -> bool:
    """True when the certified pair's closed loop reaches phi_plus by day 400."""
    ref = reference_run(res.scenario, AUDIT_HORIZON, [], cp=res.cp)
    return ref.reached_phi_plus

"""Command-line front end: scenario files, command dispatch, CSV emission.

Exit codes follow one contract everywhere: 0 success or positive verdict,
1 negative analysis verdict (membership fails, infeasible, run failed),
2 usage or scenario-file errors.

Every number is serialized with repr(), the shortest decimal form that
parses back to the identical float, so identical inputs give byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import io
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .analysis import RobustnessResult, SweepResult, robustness_probe, sweep_eps_minus
from .constants import (
    AssumptionReport,
    DerivationError,
    DerivedConstants,
    check_sigma,
    check_sigma_rob,
    derive_constants,
)
from .controller import (
    ControllerParams,
    InfeasibleError,
    dwell_lower_bounds,
    find_feasible_eps,
    find_max_slack_eps,
    in_CZ,
)
from .model import SCENARIO_KEYS, Scenario
from .simulator import (
    PreconditionError,
    RunReport,
    SimConfig,
    Trajectory,
    simulate,
)

__all__ = [
    "ScenarioFile",
    "ScenarioFileError",
    "load_scenario_file",
    "scenario_file_text",
    "bundled_scenario_path",
    "trajectory_csv_text",
    "events_csv_text",
    "run_report_text",
    "main",
]

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2

_CONTROLLER_KEYS = ("eps_plus", "eps_minus")
_SIM_KEYS = ("horizon", "output_dt", "rtol", "atol", "event_time_tol")


class ScenarioFileError(ValueError):
    """The scenario file is unreadable, malformed, or invalid."""


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario file: the scenario plus optional controller/sim data.

    sim holds exactly the keys the [sim] section set; they are checked when
    sim_config builds a SimConfig from them.
    """

    scenario: Scenario
    eps_plus: float | None = None
    eps_minus: float | None = None
    sim: dict[str, float] = field(default_factory=dict)

    def sim_config(
        self,
        open_loop_u: int | None = None,
        horizon: float | None = None,
    ) -> SimConfig:
        """SimConfig from the file's [sim] section; arguments override."""
        overrides = {"horizon": horizon, "open_loop_u": open_loop_u}
        overrides = {k: v for k, v in overrides.items() if v is not None}
        return SimConfig(**{**self.sim, **overrides})


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ScenarioFileError(
            f"invalid number for key '{key}' in [{section}]: {raw!r}"
        ) from None


def load_scenario_file(path: str | Path) -> ScenarioFile:
    """Parse and validate a scenario file.

    Raises:
        ScenarioFileError: unreadable file, malformed syntax, unknown
            section or key, missing required key, non-numeric value, or
            out-of-range scenario data. The message names the offender.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (beta_A, not beta_a)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ScenarioFileError(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        raise ScenarioFileError(str(exc)) from None

    sections = set(parser.sections())
    unknown_sections = sections - {"scenario", "controller", "sim"}
    if unknown_sections:
        raise ScenarioFileError(f"unknown section [{sorted(unknown_sections)[0]}]")
    if "scenario" not in sections:
        raise ScenarioFileError("missing required section [scenario]")

    values: dict[str, float] = {}
    for section, required, allowed in (
        ("scenario", SCENARIO_KEYS, SCENARIO_KEYS),
        ("controller", _CONTROLLER_KEYS, _CONTROLLER_KEYS),
        ("sim", (), _SIM_KEYS),
    ):
        if section not in sections:
            continue
        proxy = parser[section]
        for key in proxy:
            if key not in allowed:
                raise ScenarioFileError(f"unknown key '{key}' in [{section}]")
        for key in required:
            if key not in proxy:
                raise ScenarioFileError(f"missing required key '{key}' in [{section}]")
        for key in proxy:
            values[key] = _parse_float(section, key, proxy[key])

    try:
        scenario = Scenario.from_values(values)
    except ValueError as exc:
        raise ScenarioFileError(f"invalid scenario: {exc}") from None

    return ScenarioFile(
        scenario=scenario,
        eps_plus=values.get("eps_plus"),
        eps_minus=values.get("eps_minus"),
        sim={k: values[k] for k in _SIM_KEYS if k in values},
    )


def scenario_file_text(
    scenario: Scenario,
    eps_plus: float | None = None,
    eps_minus: float | None = None,
    sim: SimConfig | None = None,
) -> str:
    """Serialize a scenario (and optional controller/sim data) to file text.

    Round-trip exact: load_scenario_file on the result reproduces the
    identical Scenario value.
    """
    lines = ["[scenario]"]
    lines += [f"{k} = {v!r}" for k, v in scenario.values().items()]
    if eps_plus is not None and eps_minus is not None:
        lines += ["", "[controller]", f"eps_plus = {eps_plus!r}", f"eps_minus = {eps_minus!r}"]
    if sim is not None:
        lines += ["", "[sim]"]
        lines += [f"{k} = {getattr(sim, k)!r}" for k in _SIM_KEYS]
    return "\n".join(lines) + "\n"


def bundled_scenario_path(name: str = "example_city") -> Path:
    """Filesystem path of a scenario file shipped with the package."""
    return Path(str(resources.files("icufunnel") / "scenarios" / f"{name}.ini"))


# ---------------------------------------------------------------------------
# report and CSV rendering


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def assumption_report_text(report: AssumptionReport) -> str:
    lines = []
    for c in report.conditions:
        verdict = "PASS" if c.passed else "FAIL"
        note = " (vacuous)" if c.vacuous else ""
        lines.append(
            f"{c.name:<9}{verdict}{note}  {c.description}"
            f"  [lhs={_fmt(c.lhs)}, rhs={_fmt(c.rhs)}]"
        )
    lines.append(f"Sigma membership: {'PASS' if report.in_sigma else 'FAIL'}")
    if report.has_a6:
        lines.append(
            f"Sigma_rob membership: {'PASS' if report.in_sigma_rob else 'FAIL'}"
        )
    return "\n".join(lines) + "\n"


def run_report_text(report: RunReport) -> str:
    lines = [
        f"{f.name} = {_fmt(getattr(report, f.name))}"
        for f in dataclasses.fields(RunReport)
    ]
    return "\n".join(lines) + "\n"


def trajectory_csv_text(traj: Trajectory) -> str:
    lines = ["t,S,I_A,I_S,R,D,psi,u"]
    for s in traj.samples:
        lines.append(
            f"{s.t!r},{s.S!r},{s.I_A!r},{s.I_S!r},{s.R!r},{s.D!r},{s.psi!r},{traj.u_at(s.t)}"
        )
    return "\n".join(lines) + "\n"


def events_csv_text(traj: Trajectory) -> str:
    lines = ["t,u_new"] + [f"{ev.t!r},{ev.u_new}" for ev in traj.events]
    return "\n".join(lines) + "\n"


def sweep_csv_text(result: SweepResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["eps_minus", "D_max", "switch_count", "pandemic_end",
                     "input_cost", "max_IS", "error"])
    for row in result.rows:
        writer.writerow([
            repr(row.eps_minus), repr(row.D_max), str(row.switch_count),
            repr(row.pandemic_end), repr(row.input_cost), repr(row.max_IS),
            row.error or "",
        ])
    return buf.getvalue()


def robustness_text(result: RobustnessResult) -> str:
    lines = [
        f"delta = {result.delta!r}",
        f"samples = {result.samples}",
        f"pass_fraction = {result.pass_fraction!r}",
        f"certified_delta = {result.certified_delta!r}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _resolve_cp(sf: ScenarioFile, args) -> ControllerParams | None:
    ep = getattr(args, "eps_plus", None)
    em = getattr(args, "eps_minus", None)
    ep = sf.eps_plus if ep is None else ep
    em = sf.eps_minus if em is None else em
    if ep is None or em is None:
        return None
    return ControllerParams(
        eps_plus=ep, eps_minus=em, phi_plus=sf.scenario.capacity.phi_plus(),
    )


def cmd_check(args) -> int:
    sf = load_scenario_file(args.scenario)
    try:
        dc = derive_constants(sf.scenario)
    except DerivationError as exc:
        print(f"derivation failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    report = check_sigma_rob(sf.scenario, dc)
    print(assumption_report_text(report), end="")
    return EXIT_OK if report.in_sigma else EXIT_VERDICT


def cmd_constants(args) -> int:
    sf = load_scenario_file(args.scenario)
    dc = derive_constants(sf.scenario)
    for f in dataclasses.fields(DerivedConstants):
        print(f"{f.name} = {_fmt(getattr(dc, f.name))}")
    a3 = next(c for c in check_sigma(sf.scenario, dc).conditions if c.name == "A3")
    print(f"A3_bound_computed = {_fmt(a3.rhs)}")
    print("A3_bound_reference = 23.9")
    print(f"A3_satisfied = {a3.passed}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    sf = load_scenario_file(args.scenario)
    if args.open_loop is not None and args.open_loop not in (0, 1):
        raise ValueError(f"--open-loop takes 0 or 1, got {args.open_loop!r}")
    cfg = sf.sim_config(open_loop_u=args.open_loop, horizon=args.horizon)
    cp = _resolve_cp(sf, args)
    if args.open_loop is None and cp is None:
        raise ValueError(
            "closed-loop run needs eps_plus and eps_minus "
            "(a [controller] section or --eps-plus/--eps-minus)"
        )
    traj, report = simulate(sf.scenario, cp, cfg)
    if args.out:
        Path(args.out).write_text(trajectory_csv_text(traj), encoding="utf-8")
    if args.events_out:
        Path(args.events_out).write_text(events_csv_text(traj), encoding="utf-8")
    text = run_report_text(report)
    if args.report_out:
        Path(args.report_out).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def cmd_dwell(args) -> int:
    sf = load_scenario_file(args.scenario)
    dc = derive_constants(sf.scenario)
    cp = _resolve_cp(sf, args)
    if cp is None:
        raise ValueError(
            "dwell needs eps_plus and eps_minus "
            "(a [controller] section or --eps-plus/--eps-minus)"
        )
    bounds = dwell_lower_bounds(cp, dc, args.ia_at_switch)
    print(f"down_bound = {bounds.down_bound!r}")
    suffix = "" if bounds.up_is_informative else "  (no information)"
    print(f"up_bound = {bounds.up_bound!r}{suffix}")
    return EXIT_OK


def cmd_feasible(args) -> int:
    sf = load_scenario_file(args.scenario)
    dc = derive_constants(sf.scenario)
    cp = find_feasible_eps(sf.scenario, dc, grid=args.grid)
    cz = in_CZ(cp, sf.scenario, dc)
    print(f"eps_plus = {cp.eps_plus!r}")
    print(f"eps_minus = {cp.eps_minus!r}")
    print(f"phi_plus = {cp.phi_plus!r}")
    print(f"in_CZ = {cz.in_cz}")
    return EXIT_OK if cz.in_cz else EXIT_VERDICT


def cmd_robust(args) -> int:
    sf = load_scenario_file(args.scenario)
    dc = derive_constants(sf.scenario)
    cp = _resolve_cp(sf, args)
    if cp is None:
        cp = find_max_slack_eps(sf.scenario, dc)
    result = robustness_probe(
        sf.scenario, cp, delta=args.delta, samples=args.samples, seed=args.seed,
    )
    print(f"eps_plus = {cp.eps_plus!r}")
    print(f"eps_minus = {cp.eps_minus!r}")
    print(robustness_text(result), end="")
    return EXIT_OK if result.pass_fraction == 1.0 else EXIT_VERDICT


def cmd_sweep(args) -> int:
    sf = load_scenario_file(args.scenario)
    ep = args.eps_plus if args.eps_plus is not None else sf.eps_plus
    if ep is None:
        raise ValueError("sweep needs eps_plus (a [controller] section or --eps-plus)")
    tokens = [tok.strip() for tok in args.eps_minus_list.split(",")]
    ems = [float(tok) for tok in tokens if tok]
    if not ems:
        raise ValueError("--eps-minus-list must contain at least one value")
    result = sweep_eps_minus(sf.scenario, ep, ems, sf.sim_config())
    text = sweep_csv_text(result)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK if all(r.error is None for r in result.rows) else EXIT_VERDICT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icufunnel",
        description=(
            "Simulate and analyze relay-controlled epidemic interventions "
            "under an ICU capacity bound."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str):
        p = sub.add_parser(name, help=help_)
        p.add_argument("scenario", help="path to a scenario file")
        p.set_defaults(func=func)
        return p

    add("check", cmd_check, "evaluate admissibility conditions A1-A3 and A6")
    add("constants", cmd_constants, "print all derived constants")

    p = add("simulate", cmd_simulate, "run one simulation and emit CSV/report")
    p.add_argument("--open-loop", nargs="?", const=0, type=int, default=None,
                   metavar="U", help="fixed input (default 0 when given)")
    p.add_argument("--eps-plus", type=float, default=None)
    p.add_argument("--eps-minus", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--out", default=None, help="trajectory CSV path")
    p.add_argument("--events-out", default=None, help="events CSV path")
    p.add_argument("--report-out", default=None, help="report text path")

    p = add("dwell", cmd_dwell, "print dwell-time lower bounds")
    p.add_argument("--eps-plus", type=float, default=None)
    p.add_argument("--eps-minus", type=float, default=None)
    p.add_argument("--ia-at-switch", type=float, default=0.0,
                   help="mild-case count at the switch-off instant")

    p = add("feasible", cmd_feasible, "construct an admissible threshold pair")
    p.add_argument("--grid", type=int, default=10_000)

    p = add("robust", cmd_robust,
            "sample scenario perturbations; with no pair given, probe the "
            "find_max_slack_eps pair (certified by A4/A5, not proven sound)")
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps-plus", type=float, default=None)
    p.add_argument("--eps-minus", type=float, default=None)

    p = add("sweep", cmd_sweep, "closed-loop summary per off-threshold value")
    p.add_argument("--eps-plus", type=float, default=None)
    p.add_argument("--eps-minus-list", required=True,
                   help="comma-separated off-threshold values, e.g. 8,20")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VERDICT
    except (PreconditionError, DerivationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())

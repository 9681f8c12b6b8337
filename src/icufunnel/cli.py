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

import numpy as np

from .analysis import SweepResult, SweepRow, robustness_probe, sweep_eps_minus
from .constants import (
    AssumptionReport,
    DerivationError,
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

# The [controller] and [sim] keys are the dataclass fields, less phi_plus (the
# scenario's capacity sets it) and open_loop_u (only --open-loop sets it).
_CONTROLLER_KEYS = tuple(
    f.name for f in dataclasses.fields(ControllerParams) if f.name != "phi_plus"
)
_SIM_KEYS = tuple(f.name for f in dataclasses.fields(SimConfig) if f.name != "open_loop_u")


class ScenarioFileError(ValueError):
    """The scenario file is unreadable, malformed, or invalid."""


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario file: the scenario plus optional controller/sim data.

    sim holds exactly the keys the [sim] section set; load_scenario_file has
    checked that they make a valid SimConfig.
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


def load_scenario_file(path: str | Path) -> ScenarioFile:
    """Parse and validate a scenario file.

    Raises:
        ScenarioFileError: unreadable file, malformed syntax, unknown
            section or key, missing required key, non-numeric value,
            out-of-range scenario data, or [sim] values that SimConfig
            rejects. The message names the offender.
    """
    # configparser copies the keys of its default section into every section;
    # no header can name "" ("[]" is not one), so [DEFAULT] is an ordinary, unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keys are case-sensitive (beta_A, not beta_a)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ScenarioFileError(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        # a syntax error's message spans lines (file and line number, then the text)
        raise ScenarioFileError(" ".join(part.strip() for part in str(exc).splitlines())) from None

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
        for key, raw in proxy.items():
            try:
                values[key] = float(raw)
            except ValueError:
                raise ScenarioFileError(
                    f"invalid number for key '{key}' in [{section}]: {raw!r}"
                ) from None

    try:
        scenario = Scenario.from_values(values)
    except ValueError as exc:
        raise ScenarioFileError(f"invalid scenario: {exc}") from None

    sim = {k: values[k] for k in _SIM_KEYS if k in values}
    try:
        SimConfig(**sim)
    except ValueError as exc:
        raise ScenarioFileError(str(exc)) from None

    return ScenarioFile(
        scenario=scenario,
        eps_plus=values.get("eps_plus"),
        eps_minus=values.get("eps_minus"),
        sim=sim,
    )


def scenario_file_text(
    scenario: Scenario,
    eps_plus: float | None = None,
    eps_minus: float | None = None,
    sim: SimConfig | None = None,
) -> str:
    """Serialize a scenario (and optional controller/sim data) to file text.

    Round-trip exact: load_scenario_file on the result reproduces the
    identical Scenario value, and the pair when both halves are given.

    Raises:
        ValueError: exactly one half of the threshold pair is given, which
            the text could not carry.
    """
    if (eps_plus is None) != (eps_minus is None):
        raise ValueError("a [controller] section needs both eps_plus and eps_minus")
    text = "[scenario]\n" + "".join(f"{k} = {v!r}\n" for k, v in scenario.values().items())
    if eps_plus is not None:
        text += f"\n[controller]\neps_plus = {eps_plus!r}\neps_minus = {eps_minus!r}\n"
    if sim is not None:
        text += "\n[sim]\n" + _record_text(sim, _SIM_KEYS)
    return text


def bundled_scenario_path() -> Path:
    """Filesystem path of the scenario file shipped with the package, the example city."""
    return Path(str(resources.files("icufunnel") / "scenarios" / "example_city.ini"))


# ---------------------------------------------------------------------------
# report and CSV rendering


def _record_text(record, names: Sequence[str] | None = None) -> str:
    """One `name = repr(value)` line per field of a dataclass record, or per name."""
    if names is None:
        names = [f.name for f in dataclasses.fields(record)]
    return "".join(f"{name} = {getattr(record, name)!r}\n" for name in names)


def assumption_report_text(report: AssumptionReport) -> str:
    lines = []
    for c in report.conditions:
        verdict = "PASS" if c.passed else "FAIL"
        note = " (vacuous)" if c.vacuous else ""
        lines.append(
            f"{c.name:<9}{verdict}{note}  {c.description}  [lhs={c.lhs!r}, rhs={c.rhs!r}]"
        )
    lines.append(f"Sigma membership: {'PASS' if report.in_sigma else 'FAIL'}")
    if report.has_a6:
        lines.append(
            f"Sigma_rob membership: {'PASS' if report.in_sigma_rob else 'FAIL'}"
        )
    return "\n".join(lines) + "\n"


def run_report_text(report: RunReport) -> str:
    return _record_text(report)


def trajectory_csv_text(traj: Trajectory) -> str:
    samples = traj.samples
    starts, _, us = zip(*traj._phases())
    # a sample's input is that of the last piece started at or before it;
    # piece 0 starts at 0, so counting the later starts gives its index
    inputs = np.array(us)[np.searchsorted(np.array(starts[1:], float), samples.t, side="right")]
    lines = ["t,S,I_A,I_S,R,D,psi,u"] + [
        f"{t!r},{S!r},{I_A!r},{I_S!r},{R!r},{D!r},{psi!r},{u}" for t, S, I_A, I_S, R, D, psi, u
        in zip(samples.t.tolist(), *samples.y.tolist(), inputs.tolist())
    ]
    return "\n".join(lines) + "\n"


def events_csv_text(traj: Trajectory) -> str:
    lines = ["t,u_new"] + [f"{ev.t!r},{ev.u_new}" for ev in traj.events]
    return "\n".join(lines) + "\n"


def sweep_csv_text(result: SweepResult) -> str:
    # str() of a float is its repr, and csv writes None as an empty cell
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(f.name for f in dataclasses.fields(SweepRow))
    writer.writerows(dataclasses.astuple(row) for row in result.rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands


def _flag_or_file(sf: ScenarioFile, args, key: str) -> float | None:
    """A [controller] value from its command-line flag, else from the file."""
    flag = getattr(args, key, None)
    return getattr(sf, key) if flag is None else flag


def _resolve_cp(sf: ScenarioFile, args, required: bool = True) -> ControllerParams | None:
    """The threshold pair from the flags or the file.

    None when neither half is given and the pair is not required; half a
    pair is refused either way, never dropped for a fallback pair.
    """
    ep, em = (_flag_or_file(sf, args, key) for key in _CONTROLLER_KEYS)
    if ep is None or em is None:
        if required or (ep, em) != (None, None):
            raise ValueError(
                f"{args.command} needs eps_plus and eps_minus "
                "(a [controller] section or --eps-plus/--eps-minus)"
            )
        return None
    return ControllerParams(
        eps_plus=ep, eps_minus=em, phi_plus=sf.scenario.capacity.phi_plus(),
    )


def cmd_check(sf: ScenarioFile, args) -> int:
    try:
        dc = derive_constants(sf.scenario)
    except DerivationError as exc:
        print(f"derivation failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    report = check_sigma_rob(sf.scenario, dc)
    print(assumption_report_text(report), end="")
    return EXIT_OK if report.in_sigma else EXIT_VERDICT


def cmd_constants(sf: ScenarioFile, args) -> int:
    dc = derive_constants(sf.scenario)
    a3 = next(c for c in check_sigma(sf.scenario, dc).conditions if c.name == "A3")
    print(_record_text(dc), end="")
    print(f"A3_bound_computed = {a3.rhs!r}")
    print(f"A3_satisfied = {a3.passed}")
    return EXIT_OK


def cmd_simulate(sf: ScenarioFile, args) -> int:
    cfg = sf.sim_config(open_loop_u=args.open_loop, horizon=args.horizon)
    cp = None if args.open_loop is not None else _resolve_cp(sf, args)  # unused in open loop
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


def cmd_dwell(sf: ScenarioFile, args) -> int:
    dc = derive_constants(sf.scenario)
    bounds = dwell_lower_bounds(_resolve_cp(sf, args), dc, args.ia_at_switch)
    print(f"down_bound = {bounds.down_bound!r}")
    suffix = "" if bounds.up_is_informative else "  (no information)"
    print(f"up_bound = {bounds.up_bound!r}{suffix}")
    return EXIT_OK


def cmd_feasible(sf: ScenarioFile, args) -> int:
    dc = derive_constants(sf.scenario)
    cp = find_feasible_eps(sf.scenario, dc, grid=args.grid)
    cz = in_CZ(cp, sf.scenario, dc)
    print(_record_text(cp), end="")
    print(f"in_CZ = {cz.in_cz}")
    return EXIT_OK if cz.in_cz else EXIT_VERDICT


def cmd_robust(sf: ScenarioFile, args) -> int:
    dc = derive_constants(sf.scenario)
    cp = _resolve_cp(sf, args, required=False) or find_max_slack_eps(sf.scenario, dc)
    result = robustness_probe(
        sf.scenario, cp, delta=args.delta, samples=args.samples, seed=args.seed,
    )
    print(_record_text(cp, _CONTROLLER_KEYS) + _record_text(result), end="")
    return EXIT_OK if result.pass_fraction == 1.0 else EXIT_VERDICT


def cmd_sweep(sf: ScenarioFile, args) -> int:
    ep = _flag_or_file(sf, args, "eps_plus")
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

    def add(name: str, func, help_: str, pair: Sequence[str] = ()):
        p = sub.add_parser(name, help=help_)
        p.add_argument("scenario", help="path to a scenario file")
        for key in pair:  # [controller] keys this command also takes as flags
            p.add_argument(f"--{key.replace('_', '-')}", type=float)
        p.set_defaults(func=func)
        return p

    add("check", cmd_check, "evaluate admissibility conditions A1-A3 and A6")
    add("constants", cmd_constants, "print all derived constants")

    p = add("simulate", cmd_simulate, "run one simulation and emit CSV/report", _CONTROLLER_KEYS)
    p.add_argument("--open-loop", nargs="?", const=0, type=int, default=None,
                   metavar="U", help="fixed input (default 0 when given)")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--out", default=None, help="trajectory CSV path")
    p.add_argument("--events-out", default=None, help="events CSV path")
    p.add_argument("--report-out", default=None, help="report text path")

    p = add("dwell", cmd_dwell, "print dwell-time lower bounds", _CONTROLLER_KEYS)
    p.add_argument("--ia-at-switch", type=float, default=0.0,
                   help="mild-case count at the switch-off instant")

    p = add("feasible", cmd_feasible, "construct an admissible threshold pair")
    p.add_argument("--grid", type=int, default=10_000)

    p = add("robust", cmd_robust,
            "sample scenario perturbations; with no pair given, probe the "
            "find_max_slack_eps pair (certified by A4/A5, not proven sound)",
            _CONTROLLER_KEYS)
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)

    p = add("sweep", cmd_sweep, "closed-loop summary per off-threshold value", ["eps_plus"])
    p.add_argument("--eps-minus-list", required=True,
                   help="comma-separated off-threshold values, e.g. 8,20")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(load_scenario_file(args.scenario), args)
    except InfeasibleError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VERDICT
    except (PreconditionError, DerivationError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (ValueError, OSError) as exc:  # ScenarioFileError, or an output path not written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

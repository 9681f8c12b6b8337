"""Check that the working tree gives the same bits as a parent commit.

Usage, from anywhere in a git checkout:

    python tools/same_bits.py [--parent REV]

The parent revision (``--parent``, default HEAD) is extracted with ``git
archive`` into a temporary directory, as ``tools/bench_pairs.py`` does. Each
side then runs in its own child interpreter, importing ``icufunnel`` and
``perfbench.workloads`` from its own tree, and hashes every input of
perfbench seeds 1-3:

* ``closed_loop`` and ``open_loop_fine``: the child runs the workload's
  operation (simulate, validate, render the three CLI texts) and hashes the
  sample rows ``(s.t, *s.as_tuple())``, the events, the ``RunReport`` and
  ``ValidationReport`` reprs and the three texts. It builds the cases with
  ``workloads.sim_cases`` but binds ``workloads.reference_run`` to a stub
  first, since no digest reads the reference run of a case;
* ``certify``: the child runs ``workloads.certify_op`` and hashes the reprs
  of what it returns (constants, ``in_sigma_rob``, pair, ``in_CZ`` report,
  error). It also hashes the ``RobustnessResult`` of the probe that
  ``certify_op`` runs and discards, so a change to the probe shows.

One more digest, ``in_step``, is not a perfbench workload: the benchmark's
closed-loop inputs reach the root solve of the in-step guard
(``simulator._extrema``) on only 37 of the 69,457 steps of seeds 1-3, and
none of those switches inside its step. It runs the same operation, and
hashes the same parts, on the bundled city with ``n_icu`` 40,000 at the
``SimConfig`` defaults, for each on threshold in ``IN_STEP_ON`` and each
``eps_minus`` in ``IN_STEP_EPS_MINUS``. The u = 0 phase peaks near 611.925 between knots no
higher than 611.59, so on = 611.5 switches at a knot without the root solve,
611.6 to 611.9 switch inside a step through it, and 611.95 and 612.0 reach
it and never switch.

Prints one sha256 digest per workload per side, and exits 1 when any
workload's digests differ. Standard library only in this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, extract, git  # noqa: E402

SEEDS = (1, 2, 3)
WORKLOADS = ("closed_loop", "open_loop_fine", "certify", "in_step")
IN_STEP_ON = (611.5, 611.6, 611.758, 611.9, 611.95, 612.0)
IN_STEP_EPS_MINUS = (1.0, 300.0)


def in_step_cases() -> list:
    """The in_step digest's runs, as perfbench simulation cases."""
    from icufunnel import Scenario, cli, constants, controller, simulator
    from perfbench import workloads

    city = cli.load_scenario_file(cli.bundled_scenario_path()).scenario
    sc = Scenario.from_values(dict(city.values(), n_icu=40_000.0))
    dc = constants.derive_constants(sc)
    in_sigma = constants.check_sigma(sc, dc).in_sigma
    phi_plus = sc.capacity.phi_plus()
    return [workloads.SimCase(f"in_step({on}, {em})", sc,
                              controller.ControllerParams(eps_plus=phi_plus - on, eps_minus=em,
                                                          phi_plus=phi_plus),
                              simulator.SimConfig(), dc, in_sigma)
            for on in IN_STEP_ON for em in IN_STEP_EPS_MINUS]


def side_digests() -> dict[str, str]:
    """Run in a child: one digest per workload, from the trees on sys.path."""
    from icufunnel import analysis
    from perfbench import workloads

    # No digest reads a case's DOP853 reference, which sim_cases builds for
    # every case at about three times the cost of the case's operation.
    workloads.reference_run = lambda *args, **kwargs: None
    out = {}
    for name in WORKLOADS:
        h = hashlib.sha256()
        if name == "certify":
            scenarios = [sc for seed in SEEDS
                         for sc in workloads.certify_cases(workloads.generate(name, seed))]
            for sc in scenarios:
                res = workloads.certify_op(sc)
                parts = [res.dc, res.in_sigma_rob, res.cp, res.cz, repr(res.error)]
                if res.cp is not None and res.error is None:
                    # the arguments certify_op passes
                    parts.append(analysis.robustness_probe(sc, res.cp, delta=1e-3, samples=256))
                h.update(repr(parts).encode())
        else:
            cases = in_step_cases() if name == "in_step" else [
                case for seed in SEEDS
                for case in workloads.sim_cases(name, workloads.generate(name, seed))]
            for case in cases:
                traj, report, validation, texts = workloads.sim_op(case)
                for part in ([(s.t, *s.as_tuple()) for s in traj.samples], traj.events,
                             report, validation):
                    h.update(repr(part).encode())
                for text in texts:
                    h.update(text.encode())
        out[name] = h.hexdigest()
    return out


def run_side(root: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))))
    proc = subprocess.run([sys.executable, __file__, "--child"], cwd=root, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"same_bits: the child in {root} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(side_digests()))
        return 0
    parent_rev = git("rev-parse", args.parent).decode().strip()
    with tempfile.TemporaryDirectory(prefix="same_bits-") as tmp:
        extract(parent_rev, Path(tmp))
        sides = {"parent": run_side(Path(tmp)), "change": run_side(ROOT)}
    for name in WORKLOADS:
        for side, digests in sides.items():
            print(f"{name} {side}: {digests[name]}")
    same = sides["parent"] == sides["change"]
    print("same bits" if same else "DIGESTS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

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
  ``ValidationReport`` reprs and the three texts;
* ``certify``: the child runs ``workloads.certify_op`` and hashes the reprs
  of what it returns (constants, ``in_sigma_rob``, pair, ``in_CZ`` report,
  error). It also hashes the ``RobustnessResult`` of the probe that
  ``certify_op`` runs and discards, so a change to the probe shows.

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
WORKLOADS = ("closed_loop", "open_loop_fine", "certify")


def side_digests() -> dict[str, str]:
    """Run in a child: one digest per workload, from the trees on sys.path."""
    from icufunnel import analysis
    from perfbench import workloads

    out = {}
    for name in WORKLOADS:
        h = hashlib.sha256()
        for seed in SEEDS:
            inputs = workloads.generate(name, seed)
            if name == "certify":
                for sc in workloads.certify_cases(inputs):
                    res = workloads.certify_op(sc)
                    parts = [res.dc, res.in_sigma_rob, res.cp, res.cz, repr(res.error)]
                    if res.cp is not None and res.error is None:
                        # the arguments certify_op passes
                        parts.append(analysis.robustness_probe(sc, res.cp, delta=1e-3, samples=256))
                    h.update(repr(parts).encode())
                continue
            for case in workloads.sim_cases(name, inputs):
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

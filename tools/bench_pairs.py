"""Benchmark a parent commit against the working tree, in alternating pairs.

Usage, from anywhere in a git checkout:

    python tools/bench_pairs.py --number 14 closed_loop=10 open_loop_fine=3 certify=3

Each WORKLOAD=PAIRS argument asks for that many pairs of runs of the
unmodified ``perfbench/run.py --workload WORKLOAD --seed S --seconds X
--trace 0``: one run from the parent revision (``--parent``, default HEAD),
extracted with ``git archive`` into a temporary directory, and one from the
working tree, uncommitted changes included. X is ``run_seconds`` of
``BENCHMARK.json``. Pair i of a workload uses seed FIRST_SEED + i, and which
side runs first alternates from pair to pair, so a drift in the load of the
machine falls on both sides alike.

The script writes ``BENCH_<number>.json`` at the root of the checkout: every
result line (the last stdout line of each run), and, per workload and
end-to-end metric, each side's median and quartiles and the number of
pairs the change won. A metric's better direction comes from
``BENCHMARK.json``. A run that exits non-zero or prints no result line
stops the script with its output. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 101


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(rev: str, dest: Path) -> None:
    """The tree of rev, written into dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from the checkout at root; returns its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit(f"bench_pairs: {' '.join(argv)} in {root} exited {proc.returncode}\n"
                 f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summary(runs: list[dict], workload: str, better: dict[str, str]) -> dict:
    """Per end-to-end metric: each side's spread and the pairs the change won."""
    side = {s: [r["result"]["metrics"] for r in runs
                if r["workload"] == workload and r["side"] == s] for s in ("parent", "change")}
    out = {}
    for name, direction in better.items():
        parent = [m[name]["value"] for m in side["parent"]]
        change = [m[name]["value"] for m in side["change"]]
        sign = 1.0 if direction == "lower" else -1.0
        out[name] = {
            "better": direction,
            "parent": spread(parent),
            "change": spread(change),
            "change_wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
            "pairs": len(parent),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pairs", nargs="+", metavar="WORKLOAD=PAIRS")
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    plan = [(w, int(n)) for w, n in (p.split("=", 1) for p in args.pairs)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    parent_rev = git("rev-parse", args.parent).decode().strip()

    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        parent_root = Path(tmp)
        extract(parent_rev, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        k = 0
        for workload, n in plan:
            for i in range(n):
                seed = FIRST_SEED + i
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                k += 1
                for s in order:
                    result = run(roots[s], workload, seed, seconds)
                    runs.append({"side": s, "workload": workload, "seed": seed, "result": result})
                    print(f"{workload} seed={seed} {s}: op_p50_s="
                          f"{result['metrics']['op_p50_s']['value']:.6g}", file=sys.stderr)

    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps({
        "description": (
            "Result lines (the last stdout line) of unmodified `python3 perfbench/run.py "
            f"--workload W --seed S --seconds {seconds:g} --trace 0`, from a `git archive` "
            "of the parent and from the working tree, in pairs on the same seed, alternating "
            "which side runs first; written by tools/bench_pairs.py. summary gives, per "
            "workload and end-to-end metric, each side's median and quartiles and the pairs "
            "the change won."),
        "parent": parent_rev,
        "change": "working tree on " + git("rev-parse", "HEAD").decode().strip(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "command": "python tools/bench_pairs.py " + " ".join(argv or sys.argv[1:]),
        "summary": {w: summary(runs, w, better) for w, _ in plan},
        "runs": runs,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

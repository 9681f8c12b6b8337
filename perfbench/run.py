"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 25 --trace 0

Workloads are ``closed_loop``, ``open_loop_fine`` and ``certify`` (see
``workloads.py`` for what each runs and why). The package is imported from
``src/`` of the checkout; without it the script exits with code 2.

Each run generates the inputs from the seed, computes the untimed reference
answers, runs one untimed warm-up operation, then runs whole rounds over the
inputs until the operations have taken ``--seconds`` seconds, timing each
operation and checking every output. Set-up is timed in fresh child
processes taken between operations, spread over the loop.

Operation times are wall times scaled to the unloaded speed of the machine,
measured by a fixed kernel run around each operation (``calibration.py``);
the raw wall-time medians are printed next to them. Set-up times are raw.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs whole
rounds, each input once with the tracer installed and once without, in
alternating order, and reports per-operation layer metrics plus the
tracer's overhead. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. In trace mode the spans and per-site counts are
also written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With n sorted samples that is the (n - 10)-th smallest, the
    100 * (n - 10) / n percentile. Below 11 samples there is no such
    percentile and the maximum is returned with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class SetupSampler:
    """Set-up timed in fresh interpreters, spread over the whole run.

    Single samples swing with the load on a shared machine, so they are
    taken one at a time between operations, evenly over the timed loop,
    and the report is their median. These are raw wall times: a fresh
    interpreter's imports do not slow down in step with the calibration
    kernel, and scaling by it made the medians spread more, not less. The
    first probe of a run also writes the bytecode cache and is discarded.
    """

    def __init__(self, samples: int = SETUP_SAMPLES) -> None:
        self.samples = samples
        self.rows: list[dict[str, float]] = []
        self._probe()

    def _probe(self) -> dict[str, float]:
        probe = Path(__file__).resolve().parent / "setup_probe.py"
        proc = subprocess.run([sys.executable, str(probe), str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              env=os.environ.copy(), check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        if not row.pop("icufunnel_file").startswith(str(SRC)):
            raise RuntimeError("set-up probe imported icufunnel from outside src/")
        return row

    def maybe_sample(self, loop_fraction: float) -> None:
        """Take the next sample once its share of the loop has passed."""
        if len(self.rows) < self.samples and len(self.rows) < self.samples * loop_fraction:
            self.rows.append(self._probe())

    def medians(self) -> dict[str, float]:
        while len(self.rows) < self.samples:
            self.rows.append(self._probe())
        return {key: statistics.median(r[key] for r in self.rows) for key in self.rows[0]}


def environment(inputs_digest: str) -> dict[str, object]:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "inputs_sha256": inputs_digest,
    }


@dataclass(frozen=True)
class OpTime:
    seconds: float  # at the calibration kernel's reference speed
    wall_s: float
    failed: bool


class Runner:
    """Runs one workload's operations and classifies every outcome."""

    def __init__(self, name: str, seed: int, cal) -> None:
        from perfbench import workloads as W
        self.W = W
        self.cal = cal
        self.name = name
        self.inputs = W.generate(name, seed)
        self.digest = W.digest(self.inputs)
        if name == "certify":
            self.cases = W.certify_cases(self.inputs)
        else:
            self.cases = W.sim_cases(name, self.inputs)
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []
        self.event_t_err: float | None = None  # worst over the run; None until compared
        self.state_err_rel: float | None = None
        self.audit: dict[int, bool] = {}  # input index -> reached phi_plus
        self.sim_totals = {"samples": 0, "events": 0, "horizon": 0.0, "ops": 0}

    def label(self, k: int) -> str:
        return self.cases[k].label if self.name != "certify" else f"scenario{k}"

    def run_op(self, k: int, tracer=None) -> OpTime:
        """Run and time one operation, then classify its outcome."""
        op = self.W.certify_op if self.name == "certify" else self.W.sim_op
        case = self.cases[k]
        result = error = None
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer)
            timed = stack.enter_context(self.cal.timed())
            if tracer is not None:
                stack.enter_context(tracer.op(self.attempted, self.label(k)))
            try:
                result = op(case)
            except Exception as exc:  # classified below as a failed operation
                error = exc
        self.attempted += 1
        reasons = [f"raised {type(error).__name__}: {error}"] if error else self.check(k, result)
        for reason in reasons:
            self.failures.append((k, reason))
        if tracer is not None and not reasons:
            self.count_sim(result)
        return OpTime(timed.seconds, timed.wall_s, bool(reasons))

    def check(self, k: int, result) -> list[str]:
        if self.name == "certify":
            reasons = self.W.check_certify(result)
            if result.cp is not None and not reasons and k not in self.audit:
                self.audit[k] = self.W.icu_audit(result)
            return reasons
        outcome = self.W.check_sim(self.cases[k], result)
        if not math.isnan(outcome.event_t_err):
            self.event_t_err = max(self.event_t_err or 0.0, outcome.event_t_err)
        if not math.isnan(outcome.state_err_rel):
            self.state_err_rel = max(self.state_err_rel or 0.0, outcome.state_err_rel)
        return outcome.failures

    def count_sim(self, result) -> None:
        if self.name == "certify":
            return
        traj = result[0]
        self.sim_totals["samples"] += len(traj.samples)
        self.sim_totals["events"] += len(traj.events)
        self.sim_totals["horizon"] += traj.horizon
        self.sim_totals["ops"] += 1


class LoopClock:
    """Operation time of the loop so far, at the kernel's reference speed.

    Counting calibrated operation time, not wall time, fixes how many whole
    rounds a run makes whatever the load on the machine, so the sample
    count behind the tail percentile does not change with it.
    """

    def __init__(self, seconds: float, setup: SetupSampler) -> None:
        self.seconds, self.setup = seconds, setup
        self.elapsed = 0.0

    def tick(self, op: OpTime) -> None:
        self.elapsed += op.seconds
        self.setup.maybe_sample(self.elapsed / self.seconds)

    def done(self) -> bool:
        return self.elapsed >= self.seconds


def run_untraced(runner: Runner, clock: LoopClock) -> list[OpTime]:
    """Whole rounds over the inputs until the loop's seconds have passed.

    Whole rounds keep every input's share of the samples equal, so the
    input mix behind the median and the tail is the same in every run.
    """
    times: list[OpTime] = []
    while True:
        for k in range(len(runner.cases)):
            times.append(runner.run_op(k))
            clock.tick(times[-1])
        if clock.done():
            return times


def run_traced(runner: Runner, clock: LoopClock, tracer) -> tuple[list[OpTime], list[OpTime]]:
    """Whole rounds: every input once traced and once untraced, order alternating."""
    plain: list[OpTime] = []
    traced: list[OpTime] = []
    rnd = 0
    while True:
        for k in range(len(runner.cases)):
            order = (False, True) if (rnd + k) % 2 == 0 else (True, False)
            for with_trace in order:
                t = runner.run_op(k, tracer if with_trace else None)
                (traced if with_trace else plain).append(t)
                clock.tick(t)
        rnd += 1
        if clock.done():
            return plain, traced


def fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one BLAS/OpenMP thread here and in every child; numpy is not loaded yet
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if not (SRC / "icufunnel" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'icufunnel'}; "
              "run from the root of an icufunnel source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import icufunnel
    if not icufunnel.__file__.startswith(str(SRC)):
        print(f"perfbench: icufunnel imported from {icufunnel.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import workloads
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    from perfbench.calibration import Calibration
    cal = Calibration()
    sampler = SetupSampler()
    runner = Runner(args.workload, args.seed, cal)
    env = environment(runner.digest)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={len(runner.cases)} inputs_sha256={runner.digest}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "inputs_sha256"))

    runner.run_op(0)  # warm-up: lazy imports and first-call costs, not reported
    runner.attempted = 0
    warm_failures = list(runner.failures)
    runner.failures.clear()

    clock = LoopClock(args.seconds, sampler)
    if args.trace == 0:
        times = run_untraced(runner, clock)
        metrics, lines = end_to_end(runner, times, sampler.medians())
    else:
        from perfbench.tracer import Tracer
        tracer = Tracer()
        plain, traced = run_traced(runner, clock, tracer)
        times = plain + traced
        metrics, lines = per_layer(runner, tracer, plain, traced, sampler.medians())
        write_trace(args, runner, tracer, env, metrics)
    failed = sum(t.failed for t in times)
    failed_total = failed + (1 if warm_failures else 0)
    for line in lines:
        print(line)
    for k, reason in (warm_failures + runner.failures)[:20]:
        print(f"FAILED {runner.label(k)}: {reason}")
    print(json.dumps({
        "correct": failed_total == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end(runner: Runner, times: list[OpTime], setup: dict):
    from perfbench.calibration import REFERENCE_S
    n = len(times)
    failed = sum(t.failed for t in times)
    seconds = [t.seconds for t in times]
    tail_s, tail_p = tail(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": setup["setup_s"],
        "op_p50_s": statistics.median(seconds),
        "op_tail_s": tail_s,
        "ops_per_s": (n - failed) / sum(seconds),
        "peak_rss_mb": rss_mb,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    if runner.name == "certify":
        certified = len(runner.audit)
        breached = sum(runner.audit.values())
        breach = (f"{breached / certified:.6g} ({breached}/{certified} certified pairs reach "
                  "phi_plus by day 400 in the reference run)") if certified else "no certified pair"
    else:
        breach = "n/a (certify only)"
    wall = [t.wall_s for t in times]
    lines = [
        "operation times are at the calibration kernel's reference speed, raw wall "
        "in brackets; set-up is raw wall",
        f"setup_s          {fmt(setup['setup_s'])} s  (median of {SETUP_SAMPLES} fresh "
        f"processes: import {fmt(setup['import_s'])} s, load {fmt(setup['load_s'])} s, "
        f"derive {fmt(setup['derive_s'])} s)",
        f"op_p50_s         {fmt(values['op_p50_s'])} s  "
        f"[{fmt(statistics.median(wall))} s]  (n={n})",
        f"op_tail_s        {fmt(tail_s)} s  (p{tail_p:.1f}, {min(TAIL_BEYOND, n - 1)} "
        "samples beyond)",
        f"ops_per_s        {fmt(values['ops_per_s'])} ops/s",
        f"calibration      kernel median {fmt(statistics.median(runner.cal.kernels))} s over "
        f"{len(runner.cal.kernels)} runs, reference {fmt(REFERENCE_S)} s",
        f"failed_frac      {fmt(failed / n)}  ({failed}/{n})",
        f"peak_rss_mb      {fmt(rss_mb)} MB",
        f"icu_breach_frac  {breach}",
    ]
    return metrics, lines


# unit of every metric, as BENCHMARK.json declares it
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "ops/s",
             "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "model.rhs_evals": "count", "model.rhs_s": "s",
    "simulator.phases": "count", "simulator.integrated_days": "days",
    "simulator.useful_days_frac": "frac", "simulator.solver_steps": "count",
    "simulator.solve_s": "s", "simulator.dense_evals": "count", "simulator.dense_s": "s",
    "simulator.simulate_self_s": "s", "simulator.samples": "count",
    "simulator.events": "count", "simulator.validate_s": "s",
    "simulator.event_t_err_days": "days", "simulator.state_err_rel": "frac",
    "cli.render_s": "s", "cli.render_bytes": "bytes",
    "icufunnel.import_s": "s", "cli.load_s": "s",
    "constants.derive_calls": "count", "constants.derive_s": "s", "constants.check_s": "s",
    "controller.q_evals": "count", "controller.q_s": "s", "controller.feasible_s": "s",
    "controller.in_cz_calls": "count", "controller.in_cz_s": "s",
    "analysis.probe_s": "s", "analysis.probe_scenarios": "count", "analysis.qmono_s": "s",
    "trace.overhead_frac": "frac", "trace.unobserved_hooks": "count",
}


def per_layer(runner: Runner, tracer, plain: list[OpTime], traced: list[OpTime], setup: dict):
    from perfbench.tracer import NOT_OBSERVED, layer_metrics
    n = len(traced)
    values = layer_metrics(tracer, n, runner.sim_totals["horizon"])
    sims = runner.sim_totals["ops"]
    sim_values = {
        "simulator.samples": runner.sim_totals["samples"] / sims if sims else NOT_OBSERVED,
        "simulator.events": runner.sim_totals["events"] / sims if sims else NOT_OBSERVED,
        "simulator.event_t_err_days": (NOT_OBSERVED if runner.event_t_err is None
                                       else runner.event_t_err),
        "simulator.state_err_rel": (NOT_OBSERVED if runner.state_err_rel is None
                                    else runner.state_err_rel),
    }
    values.update(sim_values)
    values["icufunnel.import_s"] = setup["import_s"]
    values["cli.load_s"] = setup["load_s"]
    values["trace.overhead_frac"] = (sum(t.seconds for t in traced)
                                     / sum(t.seconds for t in plain) - 1.0)
    unobserved = sorted(k for k, v in values.items() if v == NOT_OBSERVED)
    values["trace.unobserved_hooks"] = len(unobserved)

    lines = [f"traced ops {n}, untraced ops {len(plain)}, per-operation means"]
    for name, unit in LAYER_UNITS.items():
        v = values[name]
        lines.append(f"{name:<28} {fmt(v)}" + ("" if v == NOT_OBSERVED else f" {unit}"))
    for site in tracer.missing:
        lines.append(f"missing hook: {site} (attribute not found; its metrics read "
                     f"'{NOT_OBSERVED}')")
    lines.extend(reference_rows(runner, tracer))
    # the JSON line carries numbers only: an unobserved metric is 0 there and
    # listed by name above and in trace.unobserved_hooks
    metrics = {name: {"value": 0 if values[name] == NOT_OBSERVED else values[name],
                      "unit": unit} for name, unit in LAYER_UNITS.items()}
    return metrics, lines


def reference_rows(runner: Runner, tracer) -> list[str]:
    """Exact counts of one traced run of each closed-loop reference pair."""
    if runner.name != "closed_loop":
        return []
    from perfbench.tracer import Tracer
    rows = []
    for k in (0, 1):
        one = Tracer()
        with one:
            runner.W.sim_op(runner.cases[k])
        rhs = sum(one.stats[s].calls for s in one.stats if s.endswith(".derivatives"))
        phases = sum(one.stats[s].calls for s in one.stats if s.endswith(".solve_ivp"))
        rows.append(f"reference {runner.cases[k].label}: phases {phases}, integrated days "
                    f"{one.solver['integrated_days']:.0f}, rhs evals {rhs}, solver steps "
                    f"{one.solver['steps']}")
    return rows


def write_trace(args, runner: Runner, tracer, env: dict, metrics: dict) -> None:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload, "seed": args.seed, "env": env,
        "missing_hooks": tracer.missing,
        "sites": {site: vars(st) for site, st in tracer.stats.items()},
        "spans": [dict(zip(("id", "parent", "op", "name", "start", "end"), s))
                  for s in tracer.spans],
        "metrics": metrics,
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())

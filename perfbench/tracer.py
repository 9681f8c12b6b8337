"""Per-layer tracing by wrapping icufunnel's module attributes from outside.

Nothing in ``src/`` is patched on disk or edited. While a :class:`Tracer` is
installed, selected module attributes (``icufunnel.simulator.solve_ivp``,
``icufunnel.simulator.derivatives``, ``icufunnel.analysis.q_eval``, ...) are
replaced by timing wrappers; uninstalling restores the originals. A call
site is "module.attribute", so the same function reached through two modules
is counted at each site.

Coarse calls (one simulate, one solver phase, one probe) are recorded as
spans with their parent span and operation id. Hot calls (the right-hand
side, dense-output evaluations, q, derive_constants inside the probe) are
only counted: per site the tracer keeps calls, inclusive time and self time
(inclusive minus the time covered by traced calls nested inside it). Spans
and counts stay in memory until the benchmark writes them out.

A layer metric whose sites were never called reads "not observed", never 0,
and a site whose attribute no longer exists is reported as a missing hook.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass

# (site, layer metric prefix, kind). SPAN calls are recorded one by one;
# COUNT calls are only counted; LEAF is a COUNT call that reaches no other
# hook, so it skips the nesting bookkeeping on the hot path.
SPAN, COUNT, LEAF = "span", "count", "leaf"
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("icufunnel.simulator.derivatives", "model.rhs", LEAF),
    ("icufunnel.simulator.solve_ivp", "simulator.solve", SPAN),
    ("icufunnel.simulator.simulate", "simulator.simulate", SPAN),
    ("icufunnel.simulator.validate_trajectory", "simulator.validate", SPAN),
    ("icufunnel.cli.trajectory_csv_text", "cli.render", SPAN),
    ("icufunnel.cli.events_csv_text", "cli.render", SPAN),
    ("icufunnel.cli.run_report_text", "cli.render", SPAN),
    ("icufunnel.constants.derive_constants", "constants.derive", LEAF),
    ("icufunnel.analysis.derive_constants", "constants.derive", LEAF),
    ("icufunnel.constants.check_sigma_rob", "constants.check", LEAF),
    ("icufunnel.analysis.check_sigma_rob", "constants.check", LEAF),
    ("icufunnel.controller.check_sigma", "constants.check", LEAF),
    ("icufunnel.controller.q_eval", "controller.q", LEAF),
    ("icufunnel.analysis.q_eval", "controller.q", LEAF),
    ("icufunnel.controller.find_feasible_eps", "controller.feasible", SPAN),
    ("icufunnel.controller.in_CZ", "controller.in_cz", COUNT),
    ("icufunnel.analysis.in_CZ", "controller.in_cz", COUNT),
    ("icufunnel.controller.dwell_lower_bounds", "controller.dwell", SPAN),
    ("icufunnel.analysis.robustness_probe", "analysis.probe", SPAN),
    ("icufunnel.analysis.q_monotonicity_check", "analysis.qmono", SPAN),
)
DENSE_SITE = "OdeSolution.__call__"  # the `sol` of each solve_ivp result


@dataclass
class SiteStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Installs the hooks, accumulates spans and per-site counts."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        self.stats: dict[str, SiteStats] = {}
        self.spans: list[tuple[int, int | None, int | None, str, float, float]] = []
        self.solver = {"steps": 0, "integrated_days": 0.0}
        self.render_bytes = 0
        self.missing: list[str] = []
        self.op_id: int | None = None
        self._frames: list[list[float]] = []  # [time covered by nested hooks]
        self._span_ids: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._resolve_missing()

    def _resolve_missing(self) -> None:
        for site, _, _ in self.hooks:
            module, attr = site.rsplit(".", 1)
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.missing.append(site)
                continue
            if not callable(getattr(mod, attr, None)):
                self.missing.append(site)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for site, _, kind in self.hooks:
            if site in self.missing:
                continue
            module, attr = site.rsplit(".", 1)
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(site, original, kind, self._post_for(site)))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ------------------------------------------------------------

    def _post_for(self, site: str):
        if site.endswith(".solve_ivp"):
            return self._after_solve
        if site.startswith("icufunnel.cli."):
            return self._after_render
        return None

    def _after_solve(self, result):
        self.solver["steps"] += len(result.t) - 1
        self.solver["integrated_days"] += float(result.t[-1] - result.t[0])
        if getattr(result, "sol", None) is not None:
            result.sol = self._wrap(DENSE_SITE, result.sol, LEAF, None)
        return result

    def _after_render(self, text):
        self.render_bytes += len(text.encode("utf-8"))
        return text

    def _wrap(self, site: str, fn, kind: str, post):
        stats = self.stats.setdefault(site, SiteStats())
        frames = self._frames
        span_ids = self._span_ids
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        span = kind == SPAN

        def leaf(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur
                if frames:
                    frames[-1][0] += dur

        if kind == LEAF and post is None:
            leaf.__wrapped__ = fn
            return leaf

        def traced(*args, **kwargs):
            span_id = None
            parent = span_ids[-1] if span_ids else None
            if span:
                span_id = len(spans)
                spans.append(None)  # reserved, filled on exit
                span_ids.append(span_id)
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                dur = t1 - t0
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                if span:
                    span_ids.pop()
                    spans[span_id] = (span_id, parent, tracer.op_id, site, t0, t1)
            return post(result) if post is not None else result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def op(self, op_id: int, label: str):
        """One benchmark operation as the root span of the calls inside it."""
        self.op_id = op_id
        span_id = len(self.spans)
        self.spans.append(None)
        self._span_ids.append(span_id)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._span_ids.pop()
            self.spans[span_id] = (span_id, None, op_id, "op:" + label, t0, t1)
            self.op_id = None


# -- layer metrics -----------------------------------------------------------

NOT_OBSERVED = "not observed"


def _sites(prefix: str) -> list[str]:
    return [site for site, p, _ in HOOKS if p == prefix]


def layer_metrics(tracer: Tracer, n_ops: int, horizon_days: float) -> dict[str, object]:
    """Per-operation layer metrics from the traced calls.

    Values are totals divided by ``n_ops``; a metric whose call sites were
    never hit is the string NOT_OBSERVED. ``horizon_days`` is the summed
    horizon of the traced simulations, for the useful-days ratio.
    """
    def site_sum(sites, field):
        hit = [tracer.stats[s] for s in sites if s in tracer.stats and tracer.stats[s].calls]
        if not hit:
            return None
        return sum(getattr(st, field) for st in hit)

    def per_op(value):
        return NOT_OBSERVED if value is None else value / n_ops

    out: dict[str, object] = {}
    rhs = _sites("model.rhs")
    solve = _sites("simulator.solve")
    out["model.rhs_evals"] = per_op(site_sum(rhs, "calls"))
    out["model.rhs_s"] = per_op(site_sum(rhs, "total_s"))
    phases = site_sum(solve, "calls")
    out["simulator.phases"] = per_op(phases)
    days = tracer.solver["integrated_days"] if phases else None
    out["simulator.integrated_days"] = per_op(days)
    out["simulator.useful_days_frac"] = (
        NOT_OBSERVED if not days else horizon_days / days
    )
    out["simulator.solver_steps"] = per_op(tracer.solver["steps"] if phases else None)
    out["simulator.solve_s"] = per_op(site_sum(solve, "self_s"))
    out["simulator.dense_evals"] = per_op(site_sum([DENSE_SITE], "calls"))
    out["simulator.dense_s"] = per_op(site_sum([DENSE_SITE], "total_s"))
    out["simulator.simulate_self_s"] = per_op(site_sum(_sites("simulator.simulate"), "self_s"))
    out["simulator.validate_s"] = per_op(site_sum(_sites("simulator.validate"), "total_s"))
    render = _sites("cli.render")
    out["cli.render_s"] = per_op(site_sum(render, "total_s"))
    out["cli.render_bytes"] = per_op(tracer.render_bytes if site_sum(render, "calls") else None)
    derive = _sites("constants.derive")
    out["constants.derive_calls"] = per_op(site_sum(derive, "calls"))
    out["constants.derive_s"] = per_op(site_sum(derive, "total_s"))
    out["constants.check_s"] = per_op(site_sum(_sites("constants.check"), "total_s"))
    out["controller.q_evals"] = per_op(site_sum(_sites("controller.q"), "calls"))
    out["controller.q_s"] = per_op(site_sum(_sites("controller.q"), "total_s"))
    out["controller.feasible_s"] = per_op(site_sum(_sites("controller.feasible"), "total_s"))
    out["controller.in_cz_calls"] = per_op(site_sum(_sites("controller.in_cz"), "calls"))
    out["controller.in_cz_s"] = per_op(site_sum(_sites("controller.in_cz"), "total_s"))
    out["analysis.probe_s"] = per_op(site_sum(_sites("analysis.probe"), "total_s"))
    out["analysis.probe_scenarios"] = per_op(
        site_sum(["icufunnel.analysis.derive_constants"], "calls")
    )
    out["analysis.qmono_s"] = per_op(site_sum(_sites("analysis.qmono"), "total_s"))
    return out

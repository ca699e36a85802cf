"""Per-layer spans recorded from outside the program.

Callers import sheetplan functions by name, so a layer boundary is wrapped
at the name each calling module holds (`pipeline.solve_equilibrium` and
`optimizer.solve_equilibrium` separately), never inside `src/`. Geometry
helpers run once per candidate and are left unwrapped: their time stays
in their callers' self time.

Spans are kept in memory with their raw `perf_counter` readings and
aggregated after the pass, once the readings can be converted to reference
seconds (refclock.py).
"""
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from sheetplan import cli, equilibrium, kernels, optimizer, pipeline, planner

FULL_SOLVE = "equilibrium.solve"


def _solve_span(args, kwargs):
    fast = kwargs.get("fast", args[1] if len(args) > 1 else False)
    return "equilibrium.solve_fast" if fast else FULL_SOLVE


def _named(name):
    return lambda args, kwargs: name


# The full solves that make a pipeline's timeline samples; untraced runs
# time these alone to report solve latency.
SOLVE_PROBE = (pipeline, "solve_equilibrium", _solve_span)

# (module, attribute, span name or function of the call's arguments)
BOUNDARIES = (
    (kernels, "lowest_point", _named("kernels.lowest_point")),
    (kernels, "lowest_point_grid", _named("kernels.lowest_point_grid")),
    (equilibrium, "solve_equilibrium", _solve_span),
    (equilibrium, "oracle_equilibrium", _named("equilibrium.oracle")),
    SOLVE_PROBE,
    (optimizer, "solve_equilibrium", _solve_span),
    (planner, "solve_equilibrium", _solve_span),
    (cli, "solve_equilibrium", _solve_span),
    (optimizer, "inverse_kinematics", _named("equilibrium.inverse_kinematics")),
    (pipeline, "optimize_formation", _named("optimizer.optimize_formation")),
    (pipeline, "crossing_pose", _named("planner.crossing_pose")),
    (pipeline, "_crossing_schedule", _named("planner.crossing_schedule")),
    (pipeline, "_bypass_profile", _named("planner.bypass_profile")),
    (pipeline, "_sample_segments", _named("pipeline.sample")),
    (cli, "run_pipeline", _named("pipeline.run_pipeline")),
    (cli, "export_report", _named("pipeline.export_report")),
    (cli, "load_scenario", _named("scenario.load_scenario")),
)


class Trace:
    """The spans of one pass: name, parent, start, end and robot count."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans = []                  # [name, parent index, t0, t1, n]
        self.grid_points = 0
        self.evaluations = 0
        self._stack = []                 # indices of the open spans

    def _wrap(self, fn, span):
        def traced(*args, **kwargs):
            name = span(args, kwargs)
            parent = self._stack[-1] if self._stack else None
            record = [name, parent, 0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if name == FULL_SOLVE:
                record[4] = args[0].n
            elif name == "kernels.lowest_point_grid":
                self.grid_points += len(args[2])
            elif name == "optimizer.optimize_formation":
                self.evaluations += result.evaluations
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self.boundaries]
        try:
            for (mod, attr, span), (_, _, fn) in zip(self.boundaries, saved):
                setattr(mod, attr, self._wrap(fn, span))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def full_solves(self):
        """(start, end) perf_counter readings of each full solve."""
        return [(t0, t1) for name, _, t0, t1, _ in self.spans if name == FULL_SOLVE]

    def counts(self):
        """The counts that must repeat exactly between traced passes."""
        calls = defaultdict(int)
        for name, parent, *_ in self.spans:
            calls[name if parent is None else f"{self.spans[parent][0]}>{name}"] += 1
        return {
            "calls": dict(sorted(calls.items())),
            "grid_points": self.grid_points,
            "evaluations": self.evaluations,
        }

    def layer_metrics(self, to_ref, pass_s):
        """Per-layer metrics of this pass; `pass_s` is its reference time."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        edge_calls = defaultdict(int)            # (parent, child) -> calls
        edge_total = defaultdict(float)          # (parent, child) -> seconds
        solve_ms_by_n = defaultdict(list)
        durations = [to_ref(t1) - to_ref(t0) for _, _, t0, t1, _ in self.spans]
        for (name, parent, _, _, n), dt in zip(self.spans, durations):
            calls[name] += 1
            total[name] += dt
            own[name] += dt
            if parent is not None:
                parent_name = self.spans[parent][0]
                own[parent_name] -= dt
                edge_calls[parent_name, name] += 1
                edge_total[parent_name, name] += dt
            if n is not None:
                solve_ms_by_n[n].append(1e3 * dt)
        solves = calls[FULL_SOLVE] + calls["equilibrium.solve_fast"]
        opt_solves = sum(
            edge_calls["optimizer.optimize_formation", name]
            for name in (FULL_SOLVE, "equilibrium.solve_fast")
        )
        m = {
            "kernels.lowest_point.calls": calls["kernels.lowest_point"],
            "kernels.lowest_point.s": total["kernels.lowest_point"],
            "kernels.lowest_point_grid.calls": calls["kernels.lowest_point_grid"],
            "kernels.lowest_point_grid.points": self.grid_points,
            "kernels.lowest_point_grid.s": total["kernels.lowest_point_grid"],
            "equilibrium.solve.calls": calls[FULL_SOLVE],
            "equilibrium.solve.self_s": own[FULL_SOLVE],
        }
        for n in range(3, 9):
            times = solve_ms_by_n.get(n)
            m[f"equilibrium.solve.ms_p50.n{n}"] = statistics.median(times) if times else 0.0
        m.update({
            "equilibrium.solve_fast.calls": calls["equilibrium.solve_fast"],
            "equilibrium.solve_fast.self_s": own["equilibrium.solve_fast"],
            "equilibrium.kernel_calls_per_solve":
                calls["kernels.lowest_point"] / solves if solves else 0.0,
            "equilibrium.oracle.calls": calls["equilibrium.oracle"],
            "equilibrium.oracle.self_s": own["equilibrium.oracle"],
            "equilibrium.inverse_kinematics.calls": calls["equilibrium.inverse_kinematics"],
            "equilibrium.inverse_kinematics.s": total["equilibrium.inverse_kinematics"],
            "optimizer.optimize_formation.calls": calls["optimizer.optimize_formation"],
            "optimizer.optimize_formation.s": total["optimizer.optimize_formation"],
            "optimizer.optimize_formation.self_s": own["optimizer.optimize_formation"],
            "optimizer.evaluations": self.evaluations,
            "optimizer.solves_per_evaluation":
                opt_solves / self.evaluations if self.evaluations else 0.0,
            "planner.crossing_pose.calls": calls["planner.crossing_pose"],
            "planner.s": sum(v for k, v in total.items() if k.startswith("planner.")),
            "pipeline.run_pipeline.s": total["pipeline.run_pipeline"],
            "pipeline.sample.s": total["pipeline.sample"],
            "pipeline.optimize.s":
                edge_total["pipeline.run_pipeline", "optimizer.optimize_formation"],
            "pipeline.self_s": sum(v for k, v in own.items() if k.startswith("pipeline.")),
            "pipeline.export_report.s": total["pipeline.export_report"],
            "pipeline.samples": edge_calls["pipeline.sample", FULL_SOLVE],
            "scenario.load_scenario.s": total["scenario.load_scenario"],
            "cli.self_s": (
                pass_s - total["pipeline.run_pipeline"] - total["pipeline.export_report"]
                if calls["pipeline.run_pipeline"] else 0.0
            ),
        })
        return m

#!/usr/bin/env python3
"""sheetplan benchmark: plan latency and kinematics throughput.

Run from the repository root:

    python3 perfbench/run.py --workload corridor --seed 1 --seconds 30 --trace 0

Workloads (perfbench/README.md says why each exists):
  corridor          `sheetplan plan scenarios/corridor.txt`, in process
  turned_corridor   `sheetplan plan scenarios/turned_corridor.txt`, in process
  kinematics        a seeded batch of formations with 5 to 8 robots, each
                    solved in full and checked against the grid oracle

With --trace 0 the run repeats passes for --seconds and reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it makes one untraced
and two traced passes and reports the per-layer metrics. Either way the last
line of standard output is the result, one JSON object. Times are reference
seconds (refclock.py).
"""
import os

# Pinned before numpy is first imported, here and in the set-up probes.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")
WORKLOADS = ("corridor", "turned_corridor", "kinematics")
OUTPUT_FILES = ("trajectory.csv", "metrics.txt", "height_profile.csv",
                "pairwise_distances.csv")
SETUP_REPS = 5
TRACED_PASSES = 2
DZ_TOL = 2e-3       # |dz| to the oracle above which a solve fails
DP_TOL = 5e-3       # horizontal disagreement that is counted, not failed
CABLE_TOL = 1e-7    # allowed excess of cable distance over geodesic length


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Pass:
    """One pass over a workload's inputs; times are perf_counter readings."""

    start: float
    end: float
    attempted: int
    problems: list
    digest: str = ""                   # hash of every output of the pass
    solves: list = field(default_factory=list)     # (start, end) per full solve
    oracles: list = field(default_factory=list)    # (start, end) per oracle call
    regimes: Counter = field(default_factory=Counter)
    dp_disagree: int = 0


def _ms(to_ref, spans):
    return [1e3 * (to_ref(t1) - to_ref(t0)) for t0, t1 in spans]


def import_program():
    """Put the checkout's `src/` first on the path and import sheetplan."""
    if not os.path.isfile(os.path.join(SRC, "sheetplan", "__init__.py")):
        raise BenchError(f"no sheetplan sources under {SRC}")
    sys.path.insert(0, SRC)
    import sheetplan

    if not os.path.abspath(sheetplan.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported sheetplan from {sheetplan.__file__}, not {SRC}")
    return sheetplan


def setup_probe(workload, seed):
    """Child process: time a fresh import of sheetplan plus building the inputs.

    The clock's probe needs numpy, so numpy is imported before timing starts
    and its own import time is not part of the figure.
    """
    from refclock import RefClock

    clock = RefClock()
    with clock.running():
        t0 = time.perf_counter()
        import_program()
        import workloads

        workloads.build_inputs(workload, seed)
        t1 = time.perf_counter()
    to_ref = clock.converter()
    print(repr(to_ref(t1) - to_ref(t0)))


def measure_setup(workload, seed):
    times = []
    for _ in range(SETUP_REPS):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if child.returncode != 0:
            raise BenchError(f"set-up probe failed: {child.stderr.strip()}")
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def _sha256(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _tree_digest(top):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, top).encode() + b"\0")
            digest.update(_sha256(path).encode())
    return digest.hexdigest()


def _git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment():
    import numpy
    from sheetplan import kernels

    return {
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": _git_rev(),
        "src_sha256": _tree_digest(os.path.join(SRC, "sheetplan")),
    }


def load_reference(backend):
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    if backend != reference["backend"]:
        raise BenchError(
            f"kernel backend {backend!r} differs from the recorded baseline's "
            f"{reference['backend']!r}; results of different backends are not "
            "compared (SHEETPLAN_PURE_PYTHON=1 selects the numpy backend)"
        )
    return reference["outputs"]


# ------------------------------------------------------------------ passes
def pipeline_pass(workload, expected, tracer):
    """One in-process `sheetplan plan`; its outputs must match `expected`."""
    from sheetplan import cli
    import workloads

    out_dir = os.path.join(OUT, workload)
    for name in OUTPUT_FILES:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    log = io.StringIO()
    argv = ["plan", workloads.PIPELINES[workload], "--out", out_dir]
    start = time.perf_counter()
    try:
        with tracer.installed(), contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            code = cli.main(argv)
    except Exception as exc:  # a raised error is a failed operation
        code = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    digests = {name: _sha256(os.path.join(out_dir, name)) for name in OUTPUT_FILES}
    problems = []
    if code != 0:
        problems.append(f"{workload}: exit {code}: {log.getvalue().strip()}")
    elif expected is not None:
        differ = [name for name in OUTPUT_FILES if digests[name] != expected[name]]
        if differ:
            problems.append(f"{workload}: differs from reference: {', '.join(differ)}")
    return Pass(start, end, 1, problems, json.dumps(digests, sort_keys=True),
                tracer.full_solves())


def _regime(eq, n):
    if eq.boundary_contact:
        return "boundary"
    return "taut" if eq.taut_count == n else "slack"


def kinematics_pass(batch, tracer):
    """Full solve plus oracle for every formation, each checked."""
    import numpy as np
    from sheetplan import equilibrium
    import workloads

    result = Pass(time.perf_counter(), 0.0, len(batch), [])
    digest = hashlib.sha256()
    with tracer.installed():
        for index, formation in enumerate(batch):
            try:
                t0 = time.perf_counter()
                eq = equilibrium.solve_equilibrium(formation)
                t1 = time.perf_counter()
                oracle = equilibrium.oracle_equilibrium(
                    formation, workloads.ORACLE_RESOLUTION)
                t2 = time.perf_counter()
            except Exception as exc:  # a raised error is a failed operation
                result.problems.append(f"case {index}: {type(exc).__name__}: {exc}")
                continue
            result.solves.append((t0, t1))
            result.oracles.append((t1, t2))
            geodesic, distance = equilibrium.cable_distances(formation, eq)
            dz = abs(eq.z - oracle.z)
            if dz > DZ_TOL:
                result.problems.append(f"case {index}: |dz| {dz:.3g} m to the oracle")
            elif np.any(distance > geodesic + CABLE_TOL):
                result.problems.append(f"case {index}: cable longer than its geodesic")
            result.dp_disagree += bool(
                np.linalg.norm(eq.horizontal - oracle.horizontal) > DP_TOL)
            result.regimes[_regime(eq, formation.n)] += 1
            for state in (eq, oracle):
                digest.update(state.world_position.tobytes())
                digest.update(state.sheet_contact.tobytes())
                digest.update(bytes([*state.taut_indices, state.boundary_contact]))
    result.end = time.perf_counter()
    result.digest = digest.hexdigest()
    return result


def pass_runner(workload, seed, reference):
    """A function making one pass of `workload` under a given tracer."""
    import workloads

    if workload in workloads.PIPELINES:
        return lambda tracer: pipeline_pass(workload, reference[workload], tracer)
    batch = workloads.build_inputs(workload, seed)
    return lambda tracer: kinematics_pass(batch, tracer)


# ----------------------------------------------------------------- reports
def _kinematics_shares(p):
    solved = sum(p.regimes.values())
    return {
        "kinematics.dp_disagree": p.dp_disagree,
        "kinematics.slack_share": p.regimes["slack"] / solved if solved else 0.0,
        "kinematics.boundary_share": p.regimes["boundary"] / solved if solved else 0.0,
        "kinematics.taut_share": p.regimes["taut"] / solved if solved else 0.0,
    }


def _print_lines(rows):
    for name, value, unit in rows:
        print(f"{name} = {value:.6g} {unit}".rstrip())


def measure(workload, seed, seconds, reference):
    """Untraced passes for `seconds`; returns (attempted, failed, metrics)."""
    from refclock import RefClock
    from spans import SOLVE_PROBE, Trace

    setup_s = measure_setup(workload, seed)
    one_pass = pass_runner(workload, seed, reference)
    pipeline = workload != "kinematics"
    passes = []
    clock = RefClock()
    with clock.running():
        while True:
            passes.append(one_pass(Trace((SOLVE_PROBE,) if pipeline else ())))
            elapsed = passes[-1].end - passes[0].start
            if elapsed + statistics.median(p.end - p.start for p in passes) > seconds:
                break
    to_ref = clock.converter()
    problems = [msg for p in passes for msg in p.problems]
    attempted = sum(p.attempted for p in passes)
    failed = len(problems)
    pass_times = [to_ref(p.end) - to_ref(p.start) for p in passes]
    solve_ms = _ms(to_ref, [s for p in passes for s in p.solves])
    pass_s = statistics.median(pass_times)
    if pipeline:
        solves_per_s = len(passes[0].solves) / pass_s
    else:
        solves_per_s = len(solve_ms) / (1e-3 * sum(solve_ms))
    metrics = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "solves_per_s": solves_per_s,
        "solve_ms_p50": statistics.median(solve_ms),
        "solve_ms_p90": statistics.quantiles(solve_ms, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {workload}: {len(passes)} passes, {attempted} operations; "
          "seconds per pass, reference/wall: "
          + " ".join(f"{r:.3f}/{p.end - p.start:.3f}" for r, p in zip(pass_times, passes)))
    if pipeline:
        rows = [("plan_s", pass_s, "s"),
                ("samples_per_s", solves_per_s, "1/s")]
    else:
        rows = [("pass_s", pass_s, "s"),
                ("solves_per_s", solves_per_s, "1/s")]
    rows += [("solve_ms_p50", metrics["solve_ms_p50"], f"ms ({len(solve_ms)} solves)"),
             ("solve_ms_p90", metrics["solve_ms_p90"], f"ms ({len(solve_ms)} solves)")]
    if not pipeline:
        oracle_ms = _ms(to_ref, [s for p in passes for s in p.oracles])
        rows.append(("oracle_ms_p50", statistics.median(oracle_ms),
                     f"ms ({len(oracle_ms)} calls)"))
        rows += [(k, v, "") for k, v in _kinematics_shares(passes[0]).items()]
    rows += [("setup_s", setup_s, f"s (median of {SETUP_REPS} processes)"),
             ("failed_ratio", failed / attempted, f"({failed} of {attempted})"),
             ("peak_rss_mb", metrics["peak_rss_mb"], "MB")]
    _print_lines(rows)
    return attempted, failed, metrics


def traced(workload, seed, reference):
    """One untraced and two traced passes.

    Returns (attempted, failed, metrics, whether the tracing checks held).
    """
    from refclock import RefClock
    from spans import Trace

    one_pass = pass_runner(workload, seed, reference)
    clock = RefClock()
    with clock.running():
        base = one_pass(Trace(()))
        runs = []
        for _ in range(TRACED_PASSES):
            tracer = Trace()
            runs.append((tracer, one_pass(tracer)))
    to_ref = clock.converter()
    passes = [base] + [p for _, p in runs]
    problems = [msg for p in passes for msg in p.problems]
    attempted = sum(p.attempted for p in passes)
    failed = len(problems)
    checks = []
    if any(p.digest != base.digest for _, p in runs):
        checks.append("traced outputs differ from the untraced pass")
    if any(t.counts() != runs[0][0].counts() for t, _ in runs):
        checks.append("per-layer counts differ between traced passes")
    per_pass = []
    for tracer, p in runs:
        m = tracer.layer_metrics(to_ref, to_ref(p.end) - to_ref(p.start))
        m.update(_kinematics_shares(p))
        per_pass.append(m)
    metrics = {  # counts repeat exactly; times are averaged over the passes
        k: v if isinstance(v, int) else statistics.fmean(m[k] for m in per_pass)
        for k, v in per_pass[0].items()
    }
    metrics["trace.overhead_ratio"] = (
        statistics.fmean(to_ref(p.end) - to_ref(p.start) for _, p in runs)
        / (to_ref(base.end) - to_ref(base.start)))
    for msg in problems + checks:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {workload}: 1 untraced and {TRACED_PASSES} traced passes; "
          "seconds per pass, reference/wall: "
          + " ".join(f"{to_ref(p.end) - to_ref(p.start):.3f}/{p.end - p.start:.3f}"
                     for p in passes))
    _print_lines([(k, v, "") for k, v in metrics.items()])
    return attempted, failed, metrics, not checks


def record_reference():
    """Write the output digests of both pipelines as the new reference."""
    import workloads
    from sheetplan import kernels
    from spans import Trace

    outputs = {}
    for workload in workloads.PIPELINES:
        p = pipeline_pass(workload, None, Trace(()))
        if p.problems:
            raise BenchError("; ".join(p.problems))
        outputs[workload] = json.loads(p.digest)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"backend": kernels.BACKEND, "outputs": outputs}, fh, indent=2)
        fh.write("\n")


def result_line(attempted, failed, metrics, correct, kind):
    """The final JSON line: the metrics BENCHMARK.json lists, with units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)[kind]
    names = [m["name"] for m in listed]
    if sorted(names) != sorted(metrics):
        raise BenchError(f"metrics {sorted(set(names) ^ set(metrics))} "
                         f"are not both measured and listed under {kind}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description="sheetplan benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference.json from this code")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    os.chdir(ROOT)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        import_program()
        if args.record_reference:
            record_reference()
            return 0
        env = environment()
        reference = load_reference(env["backend"])
        if args.trace:
            attempted, failed, metrics, checks_ok = traced(
                args.workload, args.seed, reference)
            kind = "per_layer"
        else:
            attempted, failed, metrics = measure(
                args.workload, args.seed, args.seconds, reference)
            checks_ok, kind = True, "end_to_end"
        print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}))
        print(result_line(attempted, failed, metrics, checks_ok and failed == 0, kind))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

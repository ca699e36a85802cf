"""Command line interface.

    sheetplan plan <scenario> --out <dir> [--dt DT] [--speed V]
    sheetplan kinematics --formation <file>
    sheetplan validate <scenario>

Exit codes: 0 success, 2 infeasible scenario, 1 any other error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .equilibrium import solve_equilibrium
from .errors import PipelineInfeasible, SheetPlanError
from .pipeline import FMT, export_report, run_pipeline
from .scenario import load_formation_file, load_scenario


def _cmd_plan(args):
    # replace() reruns Scenario's checks, so an override fails as a file value would
    overrides = {key: getattr(args, key) for key in ("dt", "speed")
                 if getattr(args, key) is not None}
    scenario = dataclasses.replace(load_scenario(args.scenario), **overrides)
    report = run_pipeline(scenario)
    paths = export_report(report, args.out)
    print(f"scenario {report.scenario_name}: {' '.join(report.obstacle_modes) or 'no obstacles'}")
    print(f"samples {len(report.timeline)}, duration " + FMT % report.timeline.times[-1] + " s")
    print("min object clearance " + FMT % report.min_vertical_clearance
          + " m, min robot clearance " + FMT % report.min_horizontal_clearance + " m")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_kinematics(args):
    formation = load_formation_file(args.formation)
    eq = solve_equilibrium(formation)
    p = eq.world_position
    print("object_position = " + " ".join(FMT % x for x in p))
    print("sheet_contact = " + " ".join(FMT % x for x in eq.sheet_contact))
    print(f"taut_count = {eq.taut_count}")
    for i, (taut, length) in enumerate(zip(eq.taut, eq.geodesic_lengths)):
        print(f"cable_{i + 1} = {'taut' if taut else 'slack'} (geodesic " + FMT % length + ")")
    if eq.flat:
        print("flat = true")
    if eq.boundary_contact:
        print("boundary_contact = true")
    # human-readable drop summary (degrees/centimeters only here)
    drop = formation.holding_height - p[2]
    print(f"# object hangs {100 * drop:.1f} cm below the holding plane")
    return 0


def _cmd_validate(args):
    scenario = load_scenario(args.scenario)
    print(f"scenario {scenario.name}: OK")
    print(f"robots = {scenario.initial_formation.n}")
    print(f"obstacles = {len(scenario.obstacles)}")
    print("corridor_length = " + FMT % scenario.corridor.length)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sheetplan",
        description="Multi-robot deformable-sheet transport planner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="run the full pipeline on a scenario file")
    p_plan.add_argument("scenario", help="scenario file path")
    p_plan.add_argument("--out", required=True, help="output directory")
    p_plan.add_argument("--dt", type=float, default=None, help="sample period override (s)")
    p_plan.add_argument("--speed", type=float, default=None, help="translation speed override (m/s)")
    p_plan.set_defaults(func=_cmd_plan)

    p_kin = sub.add_parser("kinematics", help="solve one formation's object equilibrium")
    p_kin.add_argument("--formation", required=True, help="formation file path")
    p_kin.set_defaults(func=_cmd_kinematics)

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("scenario", help="scenario file path")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (SheetPlanError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Scenario files: a line-based key/value format for batch runs.

Example::

    name = corridor-two-obstacles
    sheet_height = 0.79
    sheet_point = 0.0 0.0          # one line per holding point, ccw
    sheet_point = 1.6 0.0
    sheet_point = 0.8 1.3856406461
    robot = 0.26 -0.55             # initial world positions, same order
    robot = 1.22 0.1
    robot = 0.62 1.0
    corridor_point = 0.0 0.0       # centerline waypoints
    corridor_point = 6.0 0.0
    corridor_width = 2.0           # uniform, or one line per segment
    obstacle = 2.2 0.0 0.1 0.05    # x y radius height, in centerline order
    goal = 5.6 0.0                 # target object position
    speed = 0.1                    # m/s      (optional)
    omega = 0.2                    # rad/s    (optional)
    dt = 0.1                       # s        (optional)
    delta_r = 0.05                 # m        (optional)
    z_safe = 0.04                  # m        (optional)
    weights = 1 1 1 10 10          # lambda_1..lambda_5 (optional)

Unknown keys, malformed lines and wrong arities raise ParseError with the
line number; semantic violations raise ValidationError naming the field.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SheetPlanError, ValidationError
from .geometry import Formation, SafetyParams, SheetLayout
from .optimizer import CostWeights, ObstacleSpec

_SCALAR_KEYS = {"sheet_height", "corridor_width", "speed", "omega", "dt",
                "delta_r", "z_safe"}
_PAIR_KEYS = {"sheet_point", "robot", "corridor_point", "goal"}
_DEFAULTS = {"speed": 0.1, "omega": 0.2, "dt": 0.1}


@dataclass(frozen=True)
class Corridor:
    """Centerline polyline with a free-space width per segment."""

    points: np.ndarray          # (M, 2)
    widths: np.ndarray          # (M-1,)

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "widths", np.asarray(self.widths, dtype=float))

    @property
    def segment_lengths(self) -> np.ndarray:
        return np.linalg.norm(np.diff(self.points, axis=0), axis=1)

    @property
    def length(self) -> float:
        return float(np.sum(self.segment_lengths))

    def _cum(self):
        return np.concatenate([[0.0], np.cumsum(self.segment_lengths)])

    def _segment(self, s):
        """Arclength table, s clipped to the centerline, and the segment holding it."""
        cum = self._cum()
        s = float(np.clip(s, 0.0, cum[-1]))
        k = int(np.searchsorted(cum, s, side="right") - 1)
        return cum, s, min(max(k, 0), len(self.points) - 2)

    def point_at(self, s: float) -> np.ndarray:
        cum, s, k = self._segment(s)
        seg = self.points[k + 1] - self.points[k]
        L = np.linalg.norm(seg)
        frac = (s - cum[k]) / L if L > 0 else 0.0
        return self.points[k] + frac * seg

    def direction_at(self, s: float) -> np.ndarray:
        _, _, k = self._segment(s)
        seg = self.points[k + 1] - self.points[k]
        return seg / np.linalg.norm(seg)

    def width_at(self, s: float) -> float:
        return float(self.widths[min(self._segment(s)[2], len(self.widths) - 1)])

    def project(self, point) -> float:
        """Arclength of the closest centerline point."""
        p = np.asarray(point, dtype=float)
        cum = self._cum()
        best_s, best_d = 0.0, np.inf
        for k in range(len(self.points) - 1):
            a, b = self.points[k], self.points[k + 1]
            seg = b - a
            L2 = float(seg @ seg)
            frac = float(np.clip(((p - a) @ seg) / L2, 0.0, 1.0)) if L2 > 0 else 0.0
            q = a + frac * seg
            d = float(np.linalg.norm(p - q))
            if d < best_d:
                best_d = d
                best_s = cum[k] + frac * np.sqrt(L2)
        return best_s

    def distance_to(self, point) -> float:
        p = np.asarray(point, dtype=float)
        q = self.point_at(self.project(p))
        return float(np.linalg.norm(p - q))


@dataclass(frozen=True)
class Scenario:
    """Validated batch-run description."""

    name: str
    layout: SheetLayout
    initial_formation: Formation
    corridor: Corridor
    obstacles: tuple
    goal: np.ndarray
    safety: SafetyParams
    weights: CostWeights
    speed: float
    omega: float
    dt: float


def _parse_lines(text):
    """Yield (line_number, key, values) triples; values are float lists."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = values', got {raw.strip()!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key == "name":
            yield lineno, key, rhs
            continue
        if key not in _SCALAR_KEYS and key not in _PAIR_KEYS and key not in (
            "obstacle", "weights",
        ):
            raise ParseError(lineno, f"unknown key {key!r}")
        try:
            values = [float(tok) for tok in rhs.split()]
        except ValueError:
            raise ParseError(lineno, f"non-numeric value in {raw.strip()!r}") from None
        if not all(np.isfinite(values)):
            raise ParseError(lineno, f"non-finite value in {raw.strip()!r}")
        if key in _SCALAR_KEYS and len(values) != 1:
            raise ParseError(lineno, f"{key} takes one number, got {len(values)}")
        if key in _PAIR_KEYS and len(values) != 2:
            raise ParseError(lineno, f"{key} takes two numbers, got {len(values)}")
        if key == "obstacle" and len(values) != 4:
            raise ParseError(lineno, f"obstacle takes 'x y radius height', got {len(values)} numbers")
        if key == "weights" and len(values) != 5:
            raise ParseError(lineno, f"weights takes five numbers, got {len(values)}")
        yield lineno, key, values


def _collect(text):
    data = {"sheet_point": [], "robot": [], "corridor_point": [],
            "corridor_width": [], "obstacle": [], "name": "scenario"}
    scalars = {}
    for lineno, key, values in _parse_lines(text):
        if key == "name":
            data["name"] = values
        elif key in ("sheet_point", "robot", "corridor_point", "obstacle"):
            data[key].append(values)
        elif key == "corridor_width":
            data["corridor_width"].append(values[0])
        elif key == "weights":
            scalars["weights"] = values
        elif key == "goal":
            scalars["goal"] = values
        else:
            if key in scalars:
                raise ParseError(lineno, f"duplicate key {key!r}")
            scalars[key] = values[0]
    return data, scalars


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text (see module docstring for the format)."""
    data, scalars = _collect(text)

    def need(field, cond, message):
        if not cond:
            raise ValidationError(field, message)

    need("sheet_point", len(data["sheet_point"]) >= 3, "need at least 3 holding points")
    need("sheet_height", "sheet_height" in scalars, "missing")
    need("sheet_height", scalars.get("sheet_height", 0) > 0, "must be positive")
    try:
        layout = SheetLayout(np.array(data["sheet_point"]), scalars["sheet_height"])
    except (SheetPlanError, ValueError) as exc:
        raise ValidationError("sheet_point", str(exc)) from None

    need("robot", len(data["robot"]) == layout.n,
         f"need {layout.n} robots to match the sheet, got {len(data['robot'])}")
    try:
        formation = Formation(np.array(data["robot"]), layout)
    except (SheetPlanError, ValueError) as exc:
        raise ValidationError("robot", str(exc)) from None
    stretch = formation.stretch()
    need("robot", stretch <= 1e-9, f"initial formation stretches the sheet by {stretch:.3e} m")

    need("corridor_point", len(data["corridor_point"]) >= 2, "need at least 2 waypoints")
    n_seg = len(data["corridor_point"]) - 1
    widths = data["corridor_width"]
    need("corridor_width", len(widths) in (1, n_seg),
         f"need 1 or {n_seg} widths, got {len(widths)}")
    if len(widths) == 1:
        widths = widths * n_seg
    need("corridor_width", all(w > 0 for w in widths), "must be positive")
    corridor = Corridor(np.array(data["corridor_point"]), np.array(widths))
    need("corridor_point", corridor.length > 0, "centerline has zero length")

    obstacles = []
    for vals in data["obstacle"]:
        x, y, radius, height = vals
        if radius <= 0:
            raise ValidationError("obstacle", f"radius must be positive, got {radius}")
        if height < 0:
            raise ValidationError("obstacle", f"height must be nonnegative, got {height}")
        obstacles.append(ObstacleSpec(center=np.array([x, y]), radius=radius, height=height))
    arcs = [corridor.project(ob.center) for ob in obstacles]
    need("obstacle", all(a <= b + 1e-9 for a, b in zip(arcs, arcs[1:])),
         "obstacles must be listed in centerline order")

    need("goal", "goal" in scalars, "missing")
    goal = np.array(scalars["goal"], dtype=float)

    params = {key: scalars.get(key, value) for key, value in _DEFAULTS.items()}
    for key in _DEFAULTS:
        need(key, params[key] > 0, "must be positive")
    # unset margins and weights take the dataclasses' defaults
    safety = SafetyParams(**{k: scalars[k] for k in ("delta_r", "z_safe") if k in scalars})
    try:
        weights = CostWeights(*scalars.get("weights", ()))
    except ValueError as exc:
        raise ValidationError("weights", str(exc)) from None

    return Scenario(
        name=data["name"],
        layout=layout,
        initial_formation=formation,
        corridor=corridor,
        obstacles=tuple(obstacles),
        goal=goal,
        safety=safety,
        weights=weights,
        speed=params["speed"],
        omega=params["omega"],
        dt=params["dt"],
    )


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def parse_formation(text: str) -> Formation:
    """Parse a formation-only file: sheet_height, sheet_point*, robot*."""
    data, scalars = _collect(text)
    if "sheet_height" not in scalars:
        raise ValidationError("sheet_height", "missing")
    try:
        layout = SheetLayout(np.array(data["sheet_point"]), scalars["sheet_height"])
        formation = Formation(np.array(data["robot"]), layout)
    except (SheetPlanError, ValueError) as exc:
        raise ValidationError("formation", str(exc)) from None
    return formation


def load_formation_file(path) -> Formation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_formation(fh.read())

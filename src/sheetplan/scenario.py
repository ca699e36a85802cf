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

sheet_point, robot, corridor_point, corridor_width and obstacle may repeat;
every other key may appear once. Unknown keys, malformed lines, wrong
arities and a repeat of a key that may not repeat raise ParseError with the
line number. Semantic violations raise ValidationError naming the key; the
Corridor and Scenario constructors check their own invariants, so a
scenario built through the API or `dataclasses.replace` is checked as a
file is.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, SheetPlanError, ValidationError
from .geometry import (STRETCH_TOL, Formation, SafetyParams, SheetLayout, dot, require_finite,
                       require_positive)
from .optimizer import CostWeights, ObstacleSpec

# key: (count of numbers, whether the key may repeat); None takes the rest of the line as text
_KEYS = {
    "name": (None, False),
    "sheet_height": (1, False),
    "sheet_point": (2, True),
    "robot": (2, True),
    "corridor_point": (2, True),
    "corridor_width": (1, True),
    "obstacle": (4, True),
    "goal": (2, False),
    "speed": (1, False),
    "omega": (1, False),
    "dt": (1, False),
    "delta_r": (1, False),
    "z_safe": (1, False),
    "weights": (5, False),
}
DEFAULT_OMEGA = 0.2        # rad/s, rotation rate of the formation
_DEFAULTS = {"name": "scenario", "speed": 0.1, "omega": DEFAULT_OMEGA, "dt": 0.1}
_FIELD_KEYS = {"holding_height": "sheet_height"}    # constructor field -> scenario key


@dataclass(frozen=True)
class Corridor:
    """Centerline polyline with a free-space width per segment.

    Given one width, every segment takes it. Construction checks the
    waypoints (corridor_point) and the widths (corridor_width), and builds
    the arclength table the methods read.
    """

    points: np.ndarray          # (M, 2)
    widths: np.ndarray          # (M-1,) after construction
    arclengths: np.ndarray = field(init=False, repr=False, compare=False)  # (M,), from 0

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        widths = np.asarray(self.widths, dtype=float).ravel()
        if points.ndim != 2 or points.shape[1] != 2 or len(points) < 2:
            raise ValidationError("corridor_point",
                                  f"need at least 2 waypoints, got shape {points.shape}")
        require_finite("corridor_point", points)
        with np.errstate(over="ignore"):
            lengths = np.linalg.norm(np.diff(points, axis=0), axis=1)
            arclengths = np.concatenate([[0.0], np.cumsum(lengths)])
        if not np.isfinite(arclengths[-1]):
            raise ValidationError("corridor_point", "segment lengths must be finite")
        if not (lengths > 0).all():
            raise ValidationError("corridor_point",
                                  f"segment {np.argmin(lengths > 0)} has zero length")
        if len(widths) not in (1, len(lengths)):
            raise ValidationError("corridor_width",
                                  f"need 1 or {len(lengths)} widths, got {len(widths)}")
        require_positive("corridor_width", widths)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "widths", np.broadcast_to(widths, lengths.shape).copy())
        object.__setattr__(self, "arclengths", arclengths)

    @property
    def length(self) -> float:
        return float(self.arclengths[-1])

    def _segment(self, s):
        """s clipped to the centerline, and the index of the segment holding it."""
        s = np.clip(s, 0.0, self.arclengths[-1])
        k = np.searchsorted(self.arclengths, s, side="right") - 1
        return s, np.clip(k, 0, len(self.points) - 2)

    def point_at(self, s):
        """Centerline point at each arclength of `s`: shape s.shape + (2,)."""
        s, k = self._segment(s)
        seg = self.points[k + 1] - self.points[k]
        frac = (s - self.arclengths[k]) / np.sqrt(dot(seg, seg))
        return self.points[k] + frac[..., None] * seg

    def direction_at(self, s: float) -> np.ndarray:
        _, k = self._segment(s)
        seg = self.points[k + 1] - self.points[k]
        return seg / np.linalg.norm(seg)

    def width_at(self, s):
        """Width of the segment holding each arclength of `s`; one gives a float."""
        width = self.widths[self._segment(s)[1]]
        return float(width) if np.ndim(width) == 0 else width

    def project(self, points):
        """Arclength of the closest centerline point to each (..., 2) point.

        The first closest segment wins a tie. One point gives a number. A
        point so far away that its squared distances overflow is as far from
        every segment.
        """
        p = np.asarray(points, dtype=float)[..., None, :]
        a = self.points[:-1]
        seg = np.diff(self.points, axis=0)
        L2 = dot(seg, seg)
        frac = np.clip(dot(p - a, seg) / L2, 0.0, 1.0)
        gap = p - (a + frac[..., None] * seg)
        with np.errstate(over="ignore"):
            k = np.argmin(np.sqrt(dot(gap, gap)), axis=-1)[..., None]
        s = np.take_along_axis(self.arclengths[:-1] + frac * np.sqrt(L2), k, axis=-1)
        return s[..., 0][()]

    def distance_to(self, points):
        """Distance from each (..., 2) point to the centerline, inf where it
        overflows. One point gives a number."""
        p = np.asarray(points, dtype=float)
        gap = p - self.point_at(self.project(p))
        with np.errstate(over="ignore"):
            return np.sqrt(dot(gap, gap))[()]


@dataclass(frozen=True)
class Scenario:
    """Validated batch-run description.

    Construction, `dataclasses.replace` included, raises ValidationError
    naming the scenario key of a broken invariant: speed, omega and dt
    positive and finite, an initial formation that does not stretch the
    sheet (robot), obstacles of positive radius listed in centerline order
    (obstacle), and a finite goal within half the corridor width of the
    centerline (goal).
    """

    name: str
    initial_formation: Formation
    corridor: Corridor
    obstacles: tuple
    goal: np.ndarray
    safety: SafetyParams
    weights: CostWeights
    speed: float
    omega: float
    dt: float

    def __post_init__(self):
        for key in ("speed", "omega", "dt"):
            require_positive(key, getattr(self, key))
        stretch = self.initial_formation.stretch()
        if not stretch <= STRETCH_TOL:
            raise ValidationError("robot", f"initial formation stretches the sheet by {stretch:.3e} m")
        if not all(ob.radius > 0 for ob in self.obstacles):
            raise ValidationError("obstacle", "radius must be positive")
        arcs = self.corridor.project(np.reshape([ob.center for ob in self.obstacles], (-1, 2)))
        if not (arcs[:-1] <= arcs[1:] + 1e-9).all():
            raise ValidationError("obstacle", "obstacles must be listed in centerline order")
        require_finite("goal", self.goal)
        half = self.corridor.width_at(self.corridor.project(self.goal)) / 2
        if not self.corridor.distance_to(self.goal) <= half:
            raise ValidationError("goal", f"must lie within {half} m of the corridor centerline")


def _parse(text):
    """Each key's values: a list per line for a repeating key, else one value.

    A one-number key's value is that number.
    """
    found = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, rhs = (part.strip() for part in line.partition("="))
        if not eq:
            raise ParseError(lineno, f"expected 'key = values', got {raw.strip()!r}")
        if key not in _KEYS:
            raise ParseError(lineno, f"unknown key {key!r}")
        count, repeats = _KEYS[key]
        if key in found and not repeats:
            raise ParseError(lineno, f"duplicate key {key!r}")
        value = rhs
        if count is not None:
            try:
                value = [float(tok) for tok in rhs.split()]
            except ValueError:
                raise ParseError(lineno, f"non-numeric value in {raw.strip()!r}") from None
            if not np.isfinite(value).all():
                raise ParseError(lineno, f"non-finite value in {raw.strip()!r}")
            if len(value) != count:
                raise ParseError(lineno, f"{key} takes {count} numbers, got {len(value)}")
            value = value[0] if count == 1 else value
        if repeats:
            found.setdefault(key, []).append(value)
        else:
            found[key] = value
    return found


def _required(found, key):
    if key not in found:
        raise ValidationError(key, "missing")
    return found[key]


def _named(key, make, *args):
    """make(*args), its errors re-raised as ValidationError naming the scenario key.

    An error naming a constructor field that has a key of its own names that key.
    """
    try:
        return make(*args)
    except (SheetPlanError, ValueError) as exc:
        raise ValidationError(_FIELD_KEYS.get(getattr(exc, "field", None), key), str(exc)) from None


def _formation(found) -> Formation:
    """The robot formation, with its sheet layout, of a parsed file."""
    layout = _named("sheet_point", SheetLayout, np.array(found.get("sheet_point", [])),
                    _required(found, "sheet_height"))
    return _named("robot", Formation, np.array(found.get("robot", [])), layout)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text (see module docstring for the format)."""
    found = _parse(text)
    formation = _formation(found)
    goal = np.array(_required(found, "goal"))
    corridor = Corridor(np.array(found.get("corridor_point", [])),
                        np.array(found.get("corridor_width", [])))
    obstacles = tuple(
        _named("obstacle", ObstacleSpec, np.array([x, y]), radius, height)
        for x, y, radius, height in found.get("obstacle", [])
    )
    # unset margins and weights take the dataclasses' defaults
    safety = SafetyParams(**{k: found[k] for k in ("delta_r", "z_safe") if k in found})
    weights = _named("weights", CostWeights, *found.get("weights", ()))
    return Scenario(
        initial_formation=formation, corridor=corridor,
        obstacles=obstacles, goal=goal, safety=safety, weights=weights,
        **{key: found.get(key, value) for key, value in _DEFAULTS.items()},
    )


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def parse_formation(text: str) -> Formation:
    """Parse a formation-only file: sheet_height, sheet_point*, robot*."""
    return _formation(_parse(text))


def load_formation_file(path) -> Formation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_formation(fh.read())

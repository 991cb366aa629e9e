"""Desk-scale task environments: 2D cluttered world, 1D time-optimal problem,
and a quasi-static box-pushing toy.

Collision convention: a configuration collides iff the robot disk strictly
overlaps an obstacle or strictly exits the workspace bounds; exact tangency is
collision-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spline import BoundaryConditions
from .timing import KinodynamicLimits


@dataclass(frozen=True)
class Disk:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle given by its lower and upper corners."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))


@dataclass(frozen=True)
class World2D:
    obstacles: tuple
    bounds_lo: np.ndarray = field(default_factory=lambda: np.zeros(2))
    bounds_hi: np.ndarray = field(default_factory=lambda: np.ones(2))
    robot_radius: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "bounds_lo", np.asarray(self.bounds_lo, dtype=float))
        object.__setattr__(self, "bounds_hi", np.asarray(self.bounds_hi, dtype=float))
        if self.robot_radius < 0.0:
            raise ValueError("robot_radius must be non-negative")

    def colliding_mask(self, points: np.ndarray) -> np.ndarray:
        """Collision flags of (P, 2) points, one pass per obstacle over the
        contiguous x and y columns."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = np.ascontiguousarray(pts.T)
        rr = self.robot_radius
        (x_lo, y_lo), (x_hi, y_hi) = self.bounds_lo, self.bounds_hi
        out = (x - rr < x_lo) | (y - rr < y_lo) | (x + rr > x_hi) | (y + rr > y_hi)
        for obs in self.obstacles:
            if isinstance(obs, Disk):
                cx, cy = obs.center
                out |= (x - cx) ** 2 + (y - cy) ** 2 < (obs.radius + rr) ** 2
            elif rr > 0.0:
                # Distance from point to the rectangle, inflated by rr.
                dx = np.maximum(np.maximum(obs.lo[0] - x, x - obs.hi[0]), 0.0)
                dy = np.maximum(np.maximum(obs.lo[1] - y, y - obs.hi[1]), 0.0)
                out |= dx**2 + dy**2 < rr**2
            else:
                out |= ((x > obs.lo[0]) & (x < obs.hi[0])
                        & (y > obs.lo[1]) & (y < obs.hi[1]))
        return out

    def is_colliding(self, q: np.ndarray) -> bool:
        return bool(self.colliding_mask(np.asarray(q, dtype=float)[None, :])[0])


@dataclass(frozen=True)
class PushWorld:
    """Disk robot pushing a disk box on a plane, quasi-statically."""

    box_position: np.ndarray
    box_radius: float
    robot_radius: float
    bounds_lo: np.ndarray = field(default_factory=lambda: np.zeros(2))
    bounds_hi: np.ndarray = field(default_factory=lambda: np.ones(2))

    def __post_init__(self):
        object.__setattr__(self, "box_position", np.asarray(self.box_position, dtype=float))
        object.__setattr__(self, "bounds_lo", np.asarray(self.bounds_lo, dtype=float))
        object.__setattr__(self, "bounds_hi", np.asarray(self.bounds_hi, dtype=float))


def simulate_push(world: PushWorld, robot_points: np.ndarray) -> np.ndarray:
    """Quasi-static box rollout along a sampled robot path.

    At each step the box is translated along the center-to-center direction by
    the minimal separating distance if the robot disk overlaps it; otherwise
    it stays put (no momentum).
    """
    robot_points = np.atleast_2d(np.asarray(robot_points, dtype=float))
    contact = world.box_radius + world.robot_radius
    box = np.empty_like(robot_points)
    pos = world.box_position.copy()
    for i, robot in enumerate(robot_points):
        delta = pos - robot
        dist = float(np.hypot(*delta))
        if dist < contact:
            if dist < 1e-12:
                # Robot exactly at the box center: push along +x by convention.
                delta = np.array([1.0, 0.0])
                dist = 1.0
            pos = robot + delta / dist * contact
        box[i] = pos
    return box


def ablation_world_1d():
    """The 1D rest-to-rest time-optimal benchmark with its bang-bang reference.

    Returns (bc, limits, reference duration): move 0 -> 1 under |qd| < 0.1 and
    |qdd| < 0.2; the optimal bang-bang profile takes 10.5 s.
    """
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    limits = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    return bc, limits, 10.5


def bundled_cluttered_world() -> World2D:
    """Default cluttered 2D world: a U-shaped trap on the start-goal line plus
    scattered disks, leaving passages above and below (two homotopy classes)."""
    obstacles = (
        Rect([0.55, 0.34], [0.62, 0.66]),   # back wall of the U
        Rect([0.40, 0.34], [0.62, 0.40]),   # lower arm
        Rect([0.40, 0.60], [0.62, 0.66]),   # upper arm
        Disk([0.25, 0.15], 0.04),
        Disk([0.25, 0.85], 0.04),
        Disk([0.78, 0.15], 0.04),
        Disk([0.78, 0.85], 0.04),
    )
    return World2D(obstacles=obstacles, robot_radius=0.02)


def bundled_start_goal() -> tuple[np.ndarray, np.ndarray]:
    return np.array([0.10, 0.50]), np.array([0.90, 0.50])


def single_obstacle_world() -> World2D:
    """One large disk blocking the straight start-goal line (ablation setup)."""
    return World2D(obstacles=(Disk([0.5, 0.5], 0.18),), robot_radius=0.02)


def path_winding(points: np.ndarray, reference: np.ndarray) -> int:
    """Net half-turns of a path around a reference point, rounded.

    Paths in different homotopy classes relative to a single blocking region
    get different values (e.g. passing above vs. below it).
    """
    pts = np.asarray(points, dtype=float) - np.asarray(reference, dtype=float)
    ang = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
    return int(np.round((ang[-1] - ang[0]) / np.pi))

"""Desk-scale task environments: the 2D cluttered world and the 1D
time-optimal problem.

Collision convention: a configuration collides iff the robot disk strictly
overlaps an obstacle or strictly exits the workspace bounds; exact tangency is
collision-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spline import BoundaryConditions
from .timing import KinodynamicLimits


@dataclass(frozen=True, eq=False)
class Disk:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.shape != (2,):
            raise ValueError("a disk center must be an [x, y] pair")
        if not np.isfinite(self.center).all():
            raise ValueError("a disk center must be finite")
        if not 0.0 <= self.radius < np.inf:
            raise ValueError("a disk radius must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class Rect:
    """Axis-aligned rectangle given by its lower and upper corners."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != (2,) or self.hi.shape != (2,):
            raise ValueError("rect corners must be [x, y] pairs")
        if not np.isfinite([self.lo, self.hi]).all():
            raise ValueError("rect corners must be finite")
        if not np.all(self.lo < self.hi):
            raise ValueError("a rect's lower corner must be below its upper corner")


@dataclass(frozen=True, eq=False)
class World2D:
    obstacles: tuple
    bounds_lo: np.ndarray = field(default_factory=lambda: np.zeros(2))
    bounds_hi: np.ndarray = field(default_factory=lambda: np.ones(2))
    robot_radius: float = 0.0
    # The K disks as (K, 1) columns: center x, center y, (radius + robot_radius)^2.
    disk_x: np.ndarray = field(init=False, repr=False)
    disk_y: np.ndarray = field(init=False, repr=False)
    disk_r2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "bounds_lo", np.asarray(self.bounds_lo, dtype=float))
        object.__setattr__(self, "bounds_hi", np.asarray(self.bounds_hi, dtype=float))
        if self.bounds_lo.shape != (2,) or self.bounds_hi.shape != (2,):
            raise ValueError("bounds_lo and bounds_hi must be [x, y] pairs")
        lo, hi = self.bounds_lo, self.bounds_hi
        if not (np.isfinite([lo, hi]).all() and np.all(lo < hi)):
            raise ValueError("bounds_lo and bounds_hi must be finite, with "
                             "bounds_lo below bounds_hi on both axes")
        if not 0.0 <= self.robot_radius < np.inf:
            raise ValueError("robot_radius must be finite and non-negative")
        disks = [obs for obs in self.obstacles if isinstance(obs, Disk)]
        centers = np.array([obs.center for obs in disks]).reshape(-1, 2)
        radii = np.array([obs.radius for obs in disks], dtype=float)
        object.__setattr__(self, "disk_x", centers[:, :1].copy())
        object.__setattr__(self, "disk_y", centers[:, 1:].copy())
        object.__setattr__(self, "disk_r2", ((radii + self.robot_radius) ** 2)[:, None])

    def colliding_mask(self, points: np.ndarray) -> np.ndarray:
        """Collision flags of (P, 2) points over the contiguous x and y
        columns: all disks in one (K, P) pass, then one pass per rectangle."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = np.ascontiguousarray(pts.T)
        rr = self.robot_radius
        (x_lo, y_lo), (x_hi, y_hi) = self.bounds_lo, self.bounds_hi
        out = (x - rr < x_lo) | (y - rr < y_lo) | (x + rr > x_hi) | (y + rr > y_hi)
        out |= ((x - self.disk_x) ** 2 + (y - self.disk_y) ** 2 < self.disk_r2).any(axis=0)
        for obs in self.obstacles:
            if isinstance(obs, Disk):
                continue
            if rr > 0.0:
                # Distance from point to the rectangle, inflated by rr.
                dx = np.maximum(np.maximum(obs.lo[0] - x, x - obs.hi[0]), 0.0)
                dy = np.maximum(np.maximum(obs.lo[1] - y, y - obs.hi[1]), 0.0)
                out |= dx**2 + dy**2 < rr**2
            else:
                out |= ((x > obs.lo[0]) & (x < obs.hi[0])
                        & (y > obs.lo[1]) & (y < obs.hi[1]))
        return out


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

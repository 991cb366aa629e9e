"""Task environments: the 2D obstacle world and the 1D time-optimal problem.

A World2D keeps its obstacles as rows of two arrays, in the row formats of
the config's `world.disks` and `world.rects`, and checks all points against
each kind in one array pass.  A config's `world` section holds exactly
World2D's fields, so the bundled worlds are rows of the configs in
`configs/`.
Collision convention: a configuration collides iff the robot disk strictly
overlaps an obstacle or strictly exits the workspace bounds; exact tangency
is collision-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spline import BoundaryConditions
from .timing import KinodynamicLimits


def _rows(value, width: int, name: str) -> np.ndarray:
    """value as an (n, width) float copy; an empty value has no rows."""
    rows = np.array(value, dtype=float)
    if rows.size == 0:
        rows = rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"{name} must be rows of {width} numbers")
    return rows


@dataclass(frozen=True, eq=False)
class World2D:
    """Obstacle rows, read-only like the bounds: disks [x, y, radius] and
    axis-aligned rectangles [x_lo, y_lo, x_hi, y_hi]."""

    disks: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    rects: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    bounds_lo: np.ndarray = field(default_factory=lambda: np.zeros(2))
    bounds_hi: np.ndarray = field(default_factory=lambda: np.ones(2))
    robot_radius: float = 0.0

    def __post_init__(self):
        disks, rects = _rows(self.disks, 3, "disks"), _rows(self.rects, 4, "rects")
        if not np.isfinite(disks[:, :2]).all():
            raise ValueError("a disk center must be finite")
        if not np.all((0.0 <= disks[:, 2]) & (disks[:, 2] < np.inf)):
            raise ValueError("a disk radius must be finite and non-negative")
        if not np.isfinite(rects).all():
            raise ValueError("rect corners must be finite")
        if not np.all(rects[:, :2] < rects[:, 2:]):
            raise ValueError("a rect's lower corner must be below its upper corner")
        lo, hi = np.array(self.bounds_lo, dtype=float), np.array(self.bounds_hi, dtype=float)
        if lo.shape != (2,) or hi.shape != (2,):
            raise ValueError("bounds_lo and bounds_hi must be [x, y] pairs")
        if not (np.isfinite([lo, hi]).all() and np.all(lo < hi)):
            raise ValueError("bounds_lo and bounds_hi must be finite, with "
                             "bounds_lo below bounds_hi on both axes")
        if not 0.0 <= self.robot_radius < np.inf:
            raise ValueError("robot_radius must be finite and non-negative")
        for name, value in (("disks", disks), ("rects", rects),
                            ("bounds_lo", lo), ("bounds_hi", hi)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def colliding_mask(self, points: np.ndarray) -> np.ndarray:
        """Collision flags of (P, 2) points over the contiguous x and y
        columns: one (K, P) pass over the disks and one (R, P) pass over the
        rectangles, each skipped when it has no rows."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = np.ascontiguousarray(pts.T)
        rr = self.robot_radius
        (x_lo, y_lo), (x_hi, y_hi) = self.bounds_lo, self.bounds_hi
        out = (x - rr < x_lo) | (y - rr < y_lo) | (x + rr > x_hi) | (y + rr > y_hi)
        if len(self.disks):
            cx, cy, r = self.disks.T[:, :, None]
            out |= ((x - cx) ** 2 + (y - cy) ** 2 < (r + rr) ** 2).any(axis=0)
        if len(self.rects):
            x0, y0, x1, y1 = self.rects.T[:, :, None]
            if rr > 0.0:
                # Distance from point to the rectangle, inflated by rr.
                dx = np.maximum(np.maximum(x0 - x, x - x1), 0.0)
                dy = np.maximum(np.maximum(y0 - y, y - y1), 0.0)
                out |= (dx**2 + dy**2 < rr**2).any(axis=0)
            else:
                out |= ((x > x0) & (x < x1) & (y > y0) & (y < y1)).any(axis=0)
        return out


def ablation_world_1d():
    """The 1D rest-to-rest time-optimal benchmark with its bang-bang reference.

    Returns (bc, limits, reference duration): move 0 -> 1 under |qd| < 0.1 and
    |qdd| < 0.2, the problem section of `configs/ablate_nvia.json` and
    `configs/timeopt1d.json`; the optimal bang-bang profile takes 10.5 s.
    """
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    limits = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    return bc, limits, 10.5

"""World geometry and collision conventions."""

import numpy as np
import pytest

from viaplan.spline import BoundaryConditions
from viaplan.timing import KinodynamicLimits
from viaplan.worlds import World2D, ablation_world_1d

from conftest import bundled_world, is_colliding, path_winding


def test_disk_collision_basics():
    world = World2D(disks=[[0.5, 0.5, 0.1]])
    assert is_colliding(world, [0.5, 0.5])
    assert not is_colliding(world, [0.9, 0.9])


def test_disk_tangency_is_free():
    world = World2D(disks=[[0.5, 0.5, 0.1]], robot_radius=0.05)
    assert not is_colliding(world, [0.5 + 0.15, 0.5])
    assert is_colliding(world, [0.5 + 0.15 - 1e-9, 0.5])


def test_rect_collision_with_inflation():
    world = World2D(rects=[[0.4, 0.4, 0.6, 0.6]], robot_radius=0.05)
    assert is_colliding(world, [0.5, 0.5])
    assert is_colliding(world, [0.35 + 1e-9, 0.5])
    assert not is_colliding(world, [0.35, 0.5])       # tangent to inflated face
    assert not is_colliding(world, [0.3, 0.3])


def test_bounds_collision():
    world = World2D(robot_radius=0.05)
    assert is_colliding(world, [0.01, 0.5])
    assert not is_colliding(world, [0.05, 0.5])
    assert is_colliding(world, [0.5, 1.0])


def test_batch_mask_matches_pointwise():
    rng = np.random.default_rng(6)
    world, _, _ = bundled_world()
    pts = rng.uniform(-0.1, 1.1, (300, 2))
    mask = world.colliding_mask(pts)
    loop = np.array([is_colliding(world, p) for p in pts])
    np.testing.assert_array_equal(mask, loop)


def test_robot_radius_validation():
    with pytest.raises(ValueError):
        World2D(robot_radius=-0.1)


def test_non_finite_geometry_rejected():
    # A NaN robot radius would turn collision checking off, a NaN disk center
    # or bound would drop that obstacle or bound, and inverted bounds would
    # make every point collide.
    nan, inf = float("nan"), float("inf")
    for radius in (nan, inf):
        with pytest.raises(ValueError, match="robot_radius"):
            World2D(disks=[[0.5, 0.5, 0.2]], robot_radius=radius)
    for center in ([nan, 0.5], [0.5, inf]):
        with pytest.raises(ValueError, match="disk center"):
            World2D(disks=[[*center, 0.1]])
    for lo, hi in (([nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, nan]),
                   ([-inf, 0.0], [1.0, 1.0]), ([0.0, 1.0], [1.0, 0.5]),
                   ([0.0, 0.0], [0.0, 1.0])):
        with pytest.raises(ValueError, match="bounds_lo"):
            World2D(bounds_lo=lo, bounds_hi=hi)


@pytest.mark.parametrize("rows", [
    # Collided like a disk of radius 0.1.
    pytest.param({"disks": [[0.5, 0.5, -0.1]]}, id="disk-negative-radius"),
    pytest.param({"disks": [[0.5, 0.5, float("nan")]]}, id="disk-nan-radius"),
    pytest.param({"disks": [[0.5, 0.5, float("inf")]]}, id="disk-inf-radius"),
    pytest.param({"disks": [[0.5, 0.5, 0.5, 0.1]]}, id="disk-3d-center"),
    pytest.param({"disks": [[0.5, 0.1]]}, id="disk-scalar-center"),
    # Swapped corners never collided.
    pytest.param({"rects": [[0.6, 0.6, 0.4, 0.4]]}, id="rect-swapped"),
    pytest.param({"rects": [[0.4, 0.6, 0.6, 0.6]]}, id="rect-zero-height"),
    pytest.param({"rects": [[0.4, 0.4, 0.4, 0.6, 0.6, 0.6]]}, id="rect-3d"),
    pytest.param({"rects": [[0.4, 0.4, 0.6]]}, id="rect-scalar-corner"),
    # An infinite corner, as JSON reads -1e400, would make a half-plane.
    pytest.param({"rects": [[0.4, -np.inf, 0.6, 0.3]]}, id="rect-inf-lower-corner"),
    pytest.param({"rects": [[0.4, 0.2, np.inf, 0.3]]}, id="rect-inf-upper-corner"),
])
def test_malformed_obstacles_rejected(rows):
    with pytest.raises(ValueError):
        World2D(**rows)


def test_world_rows_are_read_only_copies():
    # The obstacle rows and bounds are float copies that nothing can write:
    # a caller's later edit leaves the world as it was built.
    disks, rects = np.array([[0.5, 0.5, 0.1]]), [[0.1, 0.1, 0.2, 0.3]]
    world = World2D(disks=disks, rects=rects, bounds_lo=[0, 0])
    disks[0, 2] = 0.0
    assert world.disks.tolist() == [[0.5, 0.5, 0.1]]
    assert world.rects.tolist() == rects and world.bounds_lo.dtype == float
    for arr in (world.disks, world.rects, world.bounds_lo, world.bounds_hi):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0.5
    # An empty kind has no rows of its width.
    empty = World2D(disks=[], rects=())
    assert empty.disks.shape == (0, 3) and empty.rects.shape == (0, 4)
    assert World2D().disks.shape == (0, 3) and World2D().rects.shape == (0, 4)
    assert not empty.colliding_mask([[0.5, 0.5]])[0]


def test_zero_radius_disk_allowed():
    world = World2D(disks=[[0.5, 0.5, 0.0]], robot_radius=0.05)
    assert is_colliding(world, [0.52, 0.5])
    assert not is_colliding(world, [0.55, 0.5])


def test_ablation_world_1d():
    bc, limits, t_ref = ablation_world_1d()
    assert t_ref == 10.5
    np.testing.assert_allclose([bc.q0[0], bc.qT[0]], [0.0, 1.0])
    np.testing.assert_allclose(limits.qd_max, [0.1])
    np.testing.assert_allclose(limits.qdd_max, [0.2])


def test_bundled_world_start_goal_free_line_blocked():
    world, q0, qT = bundled_world()
    assert not is_colliding(world, q0)
    assert not is_colliding(world, qT)
    line = q0 + np.linspace(0.0, 1.0, 101)[:, None] * (qT - q0)
    assert np.any(world.colliding_mask(line))


def test_bundled_world_has_passages():
    world, _, _ = bundled_world()
    # Corridors above and below the trap stay free of the rectangles.
    for y in (0.15, 0.85):
        free = np.stack([np.linspace(0.35, 0.65, 31), np.full(31, y)], axis=1)
        assert not np.any(world.colliding_mask(free))


def test_single_obstacle_world_blocks_center():
    world, _, _ = bundled_world("ablate_chol.json")
    assert is_colliding(world, [0.5, 0.5])
    assert not is_colliding(world, [0.1, 0.5])


def test_path_winding_classes():
    s = np.linspace(0.0, np.pi, 100)
    above = np.stack([0.5 - 0.4 * np.cos(s), 0.5 + 0.4 * np.sin(s)], axis=1)
    below = np.stack([0.5 - 0.4 * np.cos(s), 0.5 - 0.4 * np.sin(s)], axis=1)
    ref = np.array([0.5, 0.5])
    assert path_winding(above, ref) == -path_winding(below, ref)
    assert abs(path_winding(above, ref)) == 1
    straight = np.stack([np.linspace(2.0, 3.0, 50), np.zeros(50)], axis=1)
    assert path_winding(straight, np.array([0.0, 5.0])) == 0

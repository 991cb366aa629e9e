"""World geometry, collision conventions and the quasi-static push model."""

import numpy as np
import pytest

from viaplan.spline import BoundaryConditions
from viaplan.timing import KinodynamicLimits
from viaplan.worlds import (Disk, PushWorld, Rect, World2D, ablation_world_1d,
                            bundled_cluttered_world, bundled_start_goal,
                            path_winding, simulate_push, single_obstacle_world)

from conftest import is_colliding


def test_disk_collision_basics():
    world = World2D(obstacles=(Disk([0.5, 0.5], 0.1),))
    assert is_colliding(world, [0.5, 0.5])
    assert not is_colliding(world, [0.9, 0.9])


def test_disk_tangency_is_free():
    world = World2D(obstacles=(Disk([0.5, 0.5], 0.1),), robot_radius=0.05)
    assert not is_colliding(world, [0.5 + 0.15, 0.5])
    assert is_colliding(world, [0.5 + 0.15 - 1e-9, 0.5])


def test_rect_collision_with_inflation():
    world = World2D(obstacles=(Rect([0.4, 0.4], [0.6, 0.6]),), robot_radius=0.05)
    assert is_colliding(world, [0.5, 0.5])
    assert is_colliding(world, [0.35 + 1e-9, 0.5])
    assert not is_colliding(world, [0.35, 0.5])       # tangent to inflated face
    assert not is_colliding(world, [0.3, 0.3])


def test_bounds_collision():
    world = World2D(obstacles=(), robot_radius=0.05)
    assert is_colliding(world, [0.01, 0.5])
    assert not is_colliding(world, [0.05, 0.5])
    assert is_colliding(world, [0.5, 1.0])


def test_batch_mask_matches_pointwise():
    rng = np.random.default_rng(6)
    world = bundled_cluttered_world()
    pts = rng.uniform(-0.1, 1.1, (300, 2))
    mask = world.colliding_mask(pts)
    loop = np.array([is_colliding(world, p) for p in pts])
    np.testing.assert_array_equal(mask, loop)


def test_robot_radius_validation():
    with pytest.raises(ValueError):
        World2D(obstacles=(), robot_radius=-0.1)


@pytest.mark.parametrize("cls, args", [
    # Collided like a disk of radius 0.1.
    pytest.param(Disk, ([0.5, 0.5], -0.1), id="disk-negative-radius"),
    pytest.param(Disk, ([0.5, 0.5], float("nan")), id="disk-nan-radius"),
    pytest.param(Disk, ([0.5, 0.5], float("inf")), id="disk-inf-radius"),
    pytest.param(Disk, ([0.5, 0.5, 0.5], 0.1), id="disk-3d-center"),
    pytest.param(Disk, (0.5, 0.1), id="disk-scalar-center"),
    # Swapped corners never collided.
    pytest.param(Rect, ([0.6, 0.6], [0.4, 0.4]), id="rect-swapped"),
    pytest.param(Rect, ([0.4, 0.6], [0.6, 0.6]), id="rect-zero-height"),
    pytest.param(Rect, ([0.4, 0.4, 0.4], [0.6, 0.6, 0.6]), id="rect-3d"),
    pytest.param(Rect, ([0.4, 0.4], 0.6), id="rect-scalar-corner"),
])
def test_malformed_obstacles_rejected(cls, args):
    with pytest.raises(ValueError):
        cls(*args)


def test_zero_radius_disk_allowed():
    world = World2D(obstacles=(Disk([0.5, 0.5], 0.0),), robot_radius=0.05)
    assert is_colliding(world, [0.52, 0.5])
    assert not is_colliding(world, [0.55, 0.5])


def test_push_no_contact_box_stays():
    world = PushWorld(box_position=[0.8, 0.8], box_radius=0.05, robot_radius=0.05)
    path = np.stack([np.linspace(0.1, 0.3, 20), np.full(20, 0.1)], axis=1)
    box = simulate_push(world, path)
    np.testing.assert_allclose(box, np.tile([0.8, 0.8], (20, 1)), atol=1e-12)


def test_push_head_on_displacement():
    # Push straight through the box center: the box ends up displaced by the
    # robot's overshoot along the push direction; a 10x finer rollout agrees
    # within one coarse step of robot motion.
    world = PushWorld(box_position=[0.5, 0.5], box_radius=0.05, robot_radius=0.05)
    n = 50
    xs = np.linspace(0.2, 0.6, n + 1)
    path = np.stack([xs, np.full(n + 1, 0.5)], axis=1)
    box = simulate_push(world, path)
    np.testing.assert_allclose(box[-1], [0.7, 0.5], atol=1e-9)
    fine_xs = np.linspace(0.2, 0.6, 10 * n + 1)
    fine = simulate_push(world, np.stack([fine_xs, np.full(10 * n + 1, 0.5)], axis=1))
    step = xs[1] - xs[0]
    assert np.linalg.norm(box[-1] - fine[-1]) <= step


def test_push_grazing_contact_smaller_displacement():
    world = PushWorld(box_position=[0.5, 0.5], box_radius=0.05, robot_radius=0.05)
    n = 400
    xs = np.linspace(0.2, 0.8, n + 1)
    path = np.stack([xs, np.full(n + 1, 0.5 - 0.095)], axis=1)
    box = simulate_push(world, path)
    moved = np.linalg.norm(box[-1] - box[0])
    assert 0.0 < moved < 0.6
    # Mostly pushed away perpendicular to the (horizontal) robot motion.
    assert abs(box[-1][1] - box[0][1]) > abs(box[-1][0] - box[0][0])


def test_push_step_displacement_bounded_by_robot_step():
    rng = np.random.default_rng(2)
    world = PushWorld(box_position=[0.5, 0.5], box_radius=0.06, robot_radius=0.04)
    path = np.cumsum(rng.normal(scale=0.01, size=(200, 2)), axis=0) + [0.3, 0.5]
    box = simulate_push(world, path)
    robot_steps = np.linalg.norm(np.diff(path, axis=0), axis=1)
    box_steps = np.linalg.norm(np.diff(box, axis=0), axis=1)
    assert np.all(box_steps <= robot_steps + 1e-9)


def test_ablation_world_1d():
    bc, limits, t_ref = ablation_world_1d()
    assert t_ref == 10.5
    np.testing.assert_allclose([bc.q0[0], bc.qT[0]], [0.0, 1.0])
    np.testing.assert_allclose(limits.qd_max, [0.1])
    np.testing.assert_allclose(limits.qdd_max, [0.2])


def test_bundled_world_start_goal_free_line_blocked():
    world = bundled_cluttered_world()
    q0, qT = bundled_start_goal()
    assert not is_colliding(world, q0)
    assert not is_colliding(world, qT)
    line = q0 + np.linspace(0.0, 1.0, 101)[:, None] * (qT - q0)
    assert np.any(world.colliding_mask(line))


def test_bundled_world_has_passages():
    world = bundled_cluttered_world()
    # Corridors above and below the trap stay free of the rectangles.
    for y in (0.15, 0.85):
        free = np.stack([np.linspace(0.35, 0.65, 31), np.full(31, y)], axis=1)
        assert not np.any(world.colliding_mask(free))


def test_single_obstacle_world_blocks_center():
    world = single_obstacle_world()
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

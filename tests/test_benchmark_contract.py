"""What the benchmark in `viabench/` relies on in the program.

`viabench/tracing.py` wraps the functions and methods named in its SPANS
table, and its self-test expects one `timing.synthesize` call per candidate
of every generation (plus one for the final mean of `planner.solve`).  A
refactor that renames a traced function or batches duration synthesis would
break `viabench/run.py --trace 1`; these tests say so first.

`viabench/workloads.py` builds its problems from the repository's configs
through `cli.load_config`, the `cli.*_KEYS` schemas and the `cli.build_*`
functions, so a change to the CLI's schemas breaks the benchmark too.  Its
output check, `check_plan`, reads a plan's `sample_grid`, `degenerate` and
`duration`.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from viaplan.costs import CostWeights
from viaplan.mpc import MpcConfig, mpc_step, step_problem
from viaplan.planner import PlanningProblem, solve
from viaplan.spline import BoundaryConditions
from viaplan.timing import KinodynamicLimits, PhaseGrid
from viaplan.worlds import bundled_cluttered_world, bundled_start_goal

ROOT = Path(__file__).resolve().parent.parent


def load_viabench(name):
    path = ROOT / "viabench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"viabench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # Registered first, as an import would, for the dataclasses in workloads.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_viabench("tracing")


@pytest.fixture(scope="module")
def workloads():
    return load_viabench("workloads")


def cluttered_problem(pop_size, max_iterations):
    start, goal = bundled_start_goal()
    bc = BoundaryConditions(start, np.zeros(2), goal, np.zeros(2))
    return PlanningProblem(bc, KinodynamicLimits.symmetric(0.5, 1.0, 2), n_via=3,
                           pop_size=pop_size, grid=PhaseGrid(20),
                           checker=bundled_cluttered_world(),
                           max_iterations=max_iterations, tol=0.0, seed=3)


def test_every_span_resolves(tracing):
    for module, target, _ in tracing.SPANS:
        owner = importlib.import_module(f"viaplan.{module}")
        for part in target.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{target}"


def test_one_synthesize_call_per_candidate(tracing):
    problem = cluttered_problem(pop_size=6, max_iterations=4)
    tracer = tracing.Tracer()
    with tracing.Patcher() as patcher:
        tracer.install(patcher)
        result = solve(problem)
    assert tracing.wrapped_objects() == []
    # Each generation is one evaluate_candidates call with one synthesize per
    # candidate; the final mean is synthesized once more.
    assert tracer.calls("planner.evaluate_candidates") == result.iterations == 4
    assert tracer.calls("timing.synthesize") == result.iterations * problem.pop_size + 1
    assert tracer.calls("timing.min_duration") == tracer.calls("timing.synthesize")


def assert_same_fields(actual, expected):
    """Field-by-field equality of dataclasses that hold arrays (limits,
    worlds)."""
    assert type(actual) is type(expected)
    for name, value in vars(expected).items():
        np.testing.assert_array_equal(getattr(actual, name), value, err_msg=name)


def test_workloads_build_from_the_configs(workloads):
    limits_2d = KinodynamicLimits.symmetric(0.5, 2.0, 2, q_range=(0.0, 1.0))

    offline = workloads.Offline2D(ROOT)
    offline.build()
    assert (offline.n_via_cycle, offline.pop_size, offline.grid_k,
            offline.max_iterations, offline.tol, offline.init_sigma) == (
        (6,), 32, 50, 500, 1e-6, 0.4)
    assert offline.weights == CostWeights()
    np.testing.assert_array_equal(offline.bc.q0, [0.1, 0.5])
    np.testing.assert_array_equal(offline.bc.qT, [0.9, 0.5])
    assert_same_fields(offline.limits, limits_2d)
    assert_same_fields(offline.world, bundled_cluttered_world())

    timeopt = workloads.TimeOpt1D(ROOT)
    timeopt.build()
    assert (timeopt.pop_size, timeopt.grid_k, timeopt.max_iterations,
            timeopt.tol) == (16, 50, 500, 1e-6)
    assert timeopt.weights == CostWeights()
    assert timeopt.world is None

    mpc = workloads.Mpc2D(ROOT)
    mpc.build()
    assert mpc.config == MpcConfig(dt_mpc=0.08, t_stop=1.0, n_max=4, alpha=2.0,
                                   pop_size=32, grid_k=20, plant_dt=1e-3, seed=0,
                                   iterations_per_step=12)
    assert mpc.max_steps == 150
    assert_same_fields(mpc.limits, limits_2d)
    assert_same_fields(mpc.world, bundled_cluttered_world())


def test_check_plan_passes_valid_plans(workloads):
    # A short solve's plan, chosen as the offline workloads choose it.
    problem = cluttered_problem(pop_size=16, max_iterations=30)
    result = solve(problem)
    traj, report = result.trajectory, result.report
    if not report.valid:
        traj, report = result.best_trajectory, result.best_report
    assert report.valid and not traj.degenerate
    assert workloads.check_plan(traj, problem.limits, problem.grid,
                                problem.checker) == []
    # A direct mpc_step plan, and the same plan at duration 0.0, which rests.
    limits = KinodynamicLimits.symmetric(0.5, 2.0, 2, q_range=(0.0, 1.0))
    world = bundled_cluttered_world()
    config = MpcConfig()
    step = mpc_step(step_problem([0.88, 0.5], np.zeros(2), [0.9, 0.5], np.zeros(2),
                                 limits, config, world, 0), config)
    assert step.mode == "direct" and step.valid
    rest = dataclasses.replace(step.solution, duration=0.0)
    assert not step.solution.degenerate and rest.degenerate
    for plan in (step.solution, rest):
        assert workloads.check_plan(plan, limits, PhaseGrid(MpcConfig().grid_k),
                                    world) == []

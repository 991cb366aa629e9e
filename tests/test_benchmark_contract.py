"""What the benchmark in `viabench/` relies on in the program.

`viabench/tracing.py` wraps the functions and methods named in its SPANS
table, and its self-test expects one `timing.synthesize` call per candidate
of every generation (plus one for the final mean of `planner.solve`).  A
refactor that renames a traced function or batches duration synthesis would
break `viabench/run.py --trace 1`; these tests say so first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from viaplan.planner import PlanningProblem, solve
from viaplan.spline import BoundaryConditions
from viaplan.timing import KinodynamicLimits, PhaseGrid
from viaplan.worlds import bundled_cluttered_world, bundled_start_goal

TRACING = Path(__file__).resolve().parent.parent / "viabench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("viabench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

"""Via-point trajectory optimization: time-optimal cubic splines, a
smoothness-shaped evolution strategy, and full-horizon MPC on toy worlds."""

from .costs import CostReport, CostWeights, PushContext, evaluate_total
from .mpc import (ExactPlant, LagPlant, MpcConfig, MpcStepResult,
                  extract_short_horizon, greedy_step, mpc_step,
                  run_closed_loop, select_n_via)
from .optimizer import EvolutionStrategy, SmoothnessPrior, build_prior, converged
from .planner import PlanningProblem, SolveResult, solve
from .spline import (BoundaryConditions, SplineBasis, build_basis, evaluate,
                     smoothness_cost, smoothness_gram, via_timings)
from .timing import (InfeasibleError, KinodynamicLimits, PhaseGrid, Trajectory,
                     boundary_half, min_duration, synthesize, synthesize_direct)
from .worlds import (Disk, PushWorld, Rect, World2D, ablation_world_1d,
                     bundled_cluttered_world, bundled_start_goal, path_winding,
                     simulate_push, single_obstacle_world)

__version__ = "0.1.0"

__all__ = [
    "BoundaryConditions", "CostReport", "CostWeights", "Disk", "EvolutionStrategy",
    "ExactPlant", "InfeasibleError", "KinodynamicLimits", "LagPlant", "MpcConfig",
    "MpcStepResult", "PhaseGrid", "PlanningProblem", "PushContext", "PushWorld",
    "Rect", "SmoothnessPrior", "SolveResult", "SplineBasis", "Trajectory",
    "World2D", "ablation_world_1d", "boundary_half", "build_basis", "build_prior",
    "bundled_cluttered_world", "bundled_start_goal", "converged", "evaluate",
    "evaluate_total", "extract_short_horizon", "greedy_step", "min_duration",
    "mpc_step", "path_winding", "run_closed_loop", "select_n_via",
    "simulate_push", "single_obstacle_world", "smoothness_cost",
    "smoothness_gram", "solve", "synthesize", "synthesize_direct", "via_timings",
]

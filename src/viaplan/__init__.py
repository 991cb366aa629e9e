"""Via-point trajectory optimization: time-optimal cubic splines, a
smoothness-shaped evolution strategy, and full-horizon MPC on toy worlds."""

from .costs import CostReport, CostWeights, evaluate_total
from .mpc import (ExactPlant, LagPlant, MpcConfig, MpcStepResult, greedy_step,
                  mpc_step, run_closed_loop, select_n_via)
from .optimizer import EvolutionStrategy, build_prior, converged
from .planner import PlanningProblem, SolveResult, solve
from .spline import (BoundaryConditions, SplineBasis, build_basis, smoothness_cost,
                     smoothness_gram, via_timings)
from .timing import (InfeasibleError, KinodynamicLimits, PhaseGrid, Trajectory,
                     boundary_half, min_duration, synthesize)
from .worlds import World2D, ablation_world_1d

__version__ = "0.1.0"

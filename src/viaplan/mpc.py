"""Online re-optimization: full-horizon MPC steps under a wall-clock budget.

A step function only plans, over the PlanningProblem that `step_problem`
builds for it.  `mpc_step` first tries the deterministic no-via-point
trajectory (stopping primitive), scored by `planner.score_direct`.  When that
fails the gate, it starts the evolution strategy from the time-shifted
previous plan (`warm_start`, None once that has expired), sampled at 0.05
times the distance left, or else from the cold start of `planner.make_es`.
It runs `planner.optimize`, the loop of offline solves (always sep-CMA-ES
behind the smoothness Cholesky factor), over the boundary that `make_es`
returns until the step budget expires, with the same call as `solve`, and
reports the plan that the planner's reported-plan rule picks from the final
mean and the step's best-ever candidate.  `optimize` raises nothing where
`solve` raises InfeasibleError: a plan is (None, None) when no finite
duration meets the limits.  The greedy baseline is another step function: it
scores each endpoint alone as a no-via-point plan with `score_direct`.
`run_closed_loop` executes: it builds and times each step, picks the plan the
plant runs, which is the degenerate `rest_plan` at the plant's position when
it holds, and samples one dt_mpc of it at the plant rate (`extract_reference`,
through `Trajectory.at_time`, which holds a plan's end state past its end);
MpcConfig caps that sampling at MAX_REFERENCE_SAMPLES per step.  Every
reference that the closed loop hands its plant spans one whole dt_mpc.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .costs import CostReport, CostWeights
from .planner import PlanningProblem, make_es, optimize, score_direct
from .spline import BoundaryConditions, build_basis, via_timings
from .timing import KinodynamicLimits, PhaseGrid, Trajectory

GREEDY_HORIZON = 0.15   # greedy baseline: reach of one step's endpoint
GREEDY_SAMPLES = 32     # greedy baseline: endpoints tried per step
MAX_REFERENCE_SAMPLES = 100_000   # dt_mpc / plant_dt: reference samples per step
MAX_STEPS = 150        # run_closed_loop's default episode length


@dataclass(frozen=True)
class MpcConfig:
    """Closed-loop settings, fixed once built; `mpc_step` derives its ES
    sampling scale."""

    dt_mpc: float = 0.08
    t_stop: float = 1.0
    n_max: int = 4
    alpha: float = 2.0
    pop_size: int = 32
    grid_k: int = 20
    weights: CostWeights = field(default_factory=CostWeights)
    plant_dt: float = 1e-3
    seed: int = 0
    iterations_per_step: int | None = None  # None: wall-clock budget
    goal_tol: float = 1e-3
    vel_tol: float = 1e-3
    grid: PhaseGrid = field(init=False, repr=False, compare=False)  # of grid_k

    def __post_init__(self):
        if not all(0.0 < v < np.inf for v in (self.dt_mpc, self.t_stop, self.alpha,
                                              self.goal_tol, self.vel_tol)):
            raise ValueError("dt_mpc, t_stop, alpha, goal_tol and vel_tol must be "
                             "finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.pop_size < 4:
            raise ValueError("population size must be at least 4")
        object.__setattr__(self, "grid", PhaseGrid(self.grid_k))
        if not 0.0 < self.plant_dt <= self.dt_mpc:
            raise ValueError("need 0 < plant_dt <= dt_mpc")
        if self.dt_mpc / self.plant_dt > MAX_REFERENCE_SAMPLES:
            raise ValueError(f"dt_mpc / plant_dt must be at most {MAX_REFERENCE_SAMPLES}, "
                             "the reference samples of one step")
        if self.iterations_per_step is not None and self.iterations_per_step < 1:
            raise ValueError("iterations_per_step must be at least 1 (or None)")


@dataclass
class ShortHorizon:
    times: np.ndarray
    q: np.ndarray
    qd: np.ndarray


@dataclass
class MpcStepResult:
    solution: Trajectory | None
    report: CostReport | None
    valid: bool
    mode: str                  # direct | warmstart | explore | greedy
    iterations_run: int


def select_n_via(t_prev: float, alpha: float, n_max: int) -> int:
    """Via-point count rule: N = max(1, min(ceil(alpha * T), n_max))."""
    if t_prev < 0.0:
        raise ValueError("duration must be non-negative")
    return max(1, min(int(np.ceil(alpha * t_prev)), n_max))


def warm_start(prev_solution: Trajectory, elapsed: float, alpha: float,
               n_max: int):
    """Time-shifted previous solution as the next initial mean: (mean, n_via),
    or None when the previous solution has no remaining tail."""
    t_rem = prev_solution.duration - elapsed
    if t_rem <= 0.0:
        return None
    n_via = select_n_via(t_rem, alpha, n_max)
    t_via = elapsed + via_timings(n_via) * t_rem
    return prev_solution.at_time(t_via).reshape(-1), n_via


def extract_reference(traj: Trajectory, t0: float, duration: float,
                      plant_dt: float) -> ShortHorizon:
    """Reference positions and velocities from traj over [t0, t0 + duration]:
    one sample at each k plant_dt below duration, then one at duration, each
    traj.at_time of its time, so past T a sample holds traj's end state.  The
    times are relative to t0, so the last one is duration."""
    times = plant_dt * np.arange(int(np.ceil(duration / plant_dt)) + 1)
    times = np.append(times[times < duration], duration)
    return ShortHorizon(times=times, q=traj.at_time(t0 + times, 0),
                        qd=traj.at_time(t0 + times, 1))


def rest_plan(q) -> Trajectory:
    """The degenerate plan that rests at q with zero velocity."""
    rest = BoundaryConditions(q, np.zeros_like(q), q, np.zeros_like(q))
    return Trajectory(build_basis(0, rest.dof), np.zeros((0, rest.dof)), rest, 0.0)


def step_problem(q, qd, qT, qdT, limits: KinodynamicLimits, config: MpcConfig,
                 checker, seed: int) -> PlanningProblem:
    """The PlanningProblem of one step from (q, qd) to (qT, qdT), n_max via-points."""
    return PlanningProblem(BoundaryConditions(q, qd, qT, qdT), limits,
                           n_via=config.n_max, pop_size=config.pop_size,
                           grid=config.grid, weights=config.weights,
                           checker=checker, seed=seed)


def mpc_step(problem: PlanningProblem, config: MpcConfig,
             prev_plan: Trajectory | None = None) -> MpcStepResult:
    """One full-horizon MPC step over problem: the direct trajectory when it
    passes the gate, else a budgeted optimization from prev_plan's warm
    start, sampled at 0.05 times |qT - q| (or at 0.05 when that is 0), or
    from make_es's cold start."""
    t_start = time.monotonic()
    bc = problem.bc
    solution, report = score_direct(bc, problem)

    mode, iterations = "direct", 0
    if report is None or not (report.valid and solution.duration <= config.t_stop):
        shifted = (None if prev_plan is None
                   else warm_start(prev_plan, config.dt_mpc, config.alpha, config.n_max))
        if shifted is None:
            mode, (es, boundary) = "explore", make_es(problem)
        else:
            mode, (mean, n_via) = "warmstart", shifted
            problem = replace(problem, n_via=n_via)
            spread = 0.05 * (float(np.linalg.norm(bc.qT - bc.q0)) or 1.0)
            es, boundary = make_es(problem, mean, spread)

        def stop(history):
            if config.iterations_per_step is not None:
                return len(history) >= config.iterations_per_step
            return time.monotonic() - t_start >= config.dt_mpc
        res = optimize(es, boundary, problem, stop)
        solution, report, iterations = res.trajectory, res.report, res.iterations
    return MpcStepResult(solution, report, report is not None and report.valid,
                         mode, iterations)


# -- tracking plants ------------------------------------------------------


class ExactPlant:
    """Perfectly tracks the emitted reference."""

    def __init__(self, q, qd):
        self.q = np.asarray(q, dtype=float).copy()
        self.qd = np.asarray(qd, dtype=float).copy()

    def advance(self, horizon: ShortHorizon) -> None:
        self.q = horizon.q[-1].copy()
        self.qd = horizon.qd[-1].copy()


class LagPlant(ExactPlant):
    """First-order tracking lag: the state pulls toward the reference."""

    def __init__(self, q, qd, time_constant: float = 0.05):
        super().__init__(q, qd)
        if not 0.0 < time_constant < np.inf:
            raise ValueError("time_constant must be finite and positive")
        self.time_constant = time_constant

    def advance(self, horizon: ShortHorizon) -> None:
        for i in range(1, len(horizon.times)):
            dt = horizon.times[i] - horizon.times[i - 1]
            k = 1.0 - np.exp(-dt / self.time_constant)
            self.q = self.q + k * (horizon.q[i] - self.q)
            self.qd = self.qd + k * (horizon.qd[i] - self.qd)


@dataclass
class EpisodeLog:
    rows: list
    goal_reached: bool
    steps: int                 # steps run, one row each
    final_distance: float


def _at_goal(plant, qT, qdT, config: MpcConfig) -> bool:
    return (float(np.linalg.norm(plant.q - qT)) < config.goal_tol
            and float(np.linalg.norm(plant.qd - qdT)) < config.vel_tol)


def run_closed_loop(q0, qd0, qT, qdT, limits: KinodynamicLimits,
                    config: MpcConfig, checker=None, max_steps: int = MAX_STEPS,
                    plant=ExactPlant, disturbances: dict | None = None,
                    step=None) -> EpisodeLog:
    """Call step (mpc_step when None, or greedy_step) at 1/dt_mpc on each
    step's `step_problem` until the goal state is reached or max_steps have
    run, on the one plant(q0, qd0) that the plant type builds.  Each
    disturbance, a dq added to the plant's position at its step, must be
    keyed by a step in range(max_steps) and hold one finite value per DoF;
    ValueError before the first step otherwise.

    The plant runs the first dt_mpc of each valid step's plan.  After an
    invalid step it replays the rest of the last valid plan, one dt_mpc
    window per step from one step on, and holds with zero velocity once that
    plan has run out.  When there is no valid plan to replay (no valid step
    yet, or none since a disturbance), the plant runs the invalid step's own
    plan, and holds only when the step has no solution at all.  A hold is a
    plan too, the `rest_plan` at the plant's position.  The loop samples the
    chosen plan once per step with `extract_reference`, so every reference
    spans dt_mpc, and a row's step_seconds spans building the problem, the
    step and that sampling.
    """
    step = step or mpc_step   # looked up per call, so a patched mpc_step runs
    qT, qdT = np.asarray(qT, dtype=float), np.asarray(qdT, dtype=float)
    disturbances = {k: np.asarray(dq, dtype=float)
                    for k, dq in (disturbances or {}).items()}
    if any(k not in range(max_steps) or dq.shape != qT.shape
           or not np.isfinite(dq).all() for k, dq in disturbances.items()):
        raise ValueError("every disturbance needs a step in range(max_steps) and a dq "
                         "of one finite value per DoF")
    plant = plant(q0, qd0)
    rows = []
    fallback: tuple[Trajectory, float] | None = None   # followed plan (last valid), offset
    t_sim = 0.0
    for k in range(max_steps):
        if k in disturbances:
            plant.q = plant.q + disturbances[k]
            fallback = None  # stale plan; force explore / direct re-entry
        if _at_goal(plant, qT, qdT, config):
            break
        t_start = time.monotonic()
        problem = step_problem(plant.q, plant.qd, qT, qdT, limits, config, checker,
                               config.seed + k)
        # Offset 0.0 means the last step was valid: only its plan warm-starts a step.
        prev_plan = fallback[0] if fallback is not None and fallback[1] == 0.0 else None
        result = step(problem, config, prev_plan)
        if result.valid:
            fallback = (result.solution, 0.0)
        elif fallback is not None:
            fallback = (fallback[0], fallback[1] + config.dt_mpc)
        plan, offset = fallback or (result.solution, 0.0)
        if plan is None or offset >= plan.duration:
            plan, offset = rest_plan(plant.q), 0.0   # hold at zero velocity
        horizon = extract_reference(plan, offset, config.dt_mpc, config.plant_dt)
        step_seconds = time.monotonic() - t_start
        plant.advance(horizon)
        cost = result.report.total if result.report else float("nan")
        rows.append({"step": k, "t": t_sim, "q": plant.q.copy(),
                     "qd": plant.qd.copy(), "mode": result.mode,
                     "valid": result.valid, "step_cost": cost,
                     "step_seconds": step_seconds,
                     "iterations": result.iterations_run})
        t_sim += config.dt_mpc
    return EpisodeLog(rows=rows, goal_reached=_at_goal(plant, qT, qdT, config),
                      steps=len(rows), final_distance=float(np.linalg.norm(plant.q - qT)))


# -- greedy short-horizon baseline ----------------------------------------


def greedy_step(problem: PlanningProblem, config: MpcConfig,
                prev_plan: Trajectory | None = None) -> MpcStepResult:
    """Short-horizon baseline with mpc_step's signature: sample nearby
    endpoints, each reached at rest, and move to the valid one closest to the
    goal; invalid when none is valid.  The goal velocity, config and
    prev_plan are unused."""
    rng = np.random.default_rng(problem.seed)
    q, qT = problem.bc.q0, problem.bc.qT
    to_goal = qT - q
    dist = float(np.linalg.norm(to_goal))
    local_goal = qT if dist <= GREEDY_HORIZON else q + to_goal / dist * GREEDY_HORIZON
    endpoints = [local_goal]
    endpoints.extend(local_goal + (GREEDY_HORIZON / 2.0)
                     * rng.standard_normal((GREEDY_SAMPLES - 1, q.shape[0])))
    best = None
    best_cost = np.inf
    for end in endpoints:
        if float(np.linalg.norm(end - q)) > GREEDY_HORIZON:
            continue
        traj, report = score_direct(
            BoundaryConditions(q, problem.bc.qd0, end, np.zeros_like(q)), problem)
        cost = float(np.sum((end - qT) ** 2))
        if report is not None and report.valid and cost < best_cost:
            best_cost = cost
            best = traj
    return MpcStepResult(best, None, best is not None, "greedy", 0)

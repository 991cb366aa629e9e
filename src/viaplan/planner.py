"""Stochastic trajectory optimization, shared by offline planning and MPC.

`make_es` sets up the evolution strategy and the boundary half of the
duration kernel (`timing.boundary_half`), which depends only on the problem,
so `solve` gets both from one call per solve and `mpc.mpc_step` from one
call per ES step; it also owns the ES cold start that both take.
`es_prior` owns the ES's start spread and the rule that its variance be
finite and positive, which `make_es` applies and the CLI checks once per
setup before its first solve; it builds the smoothness prior
(`optimizer.build_prior`) only when problem.use_chol asks the ES to sample
behind its Cholesky factor.
`optimize` is the one generation loop of both, sample -> evaluate ->
update, each with its own stop rule; it tracks the best-ever candidate and
owns the reported-plan rule: the reported plan is the final mean, or the
best-ever candidate when the mean has no duration, or is invalid while the
best-ever candidate is valid.  It also owns the infeasible-boundary rule,
running no generation over a boundary that `timing.BoundaryLanes` refuses
(beyond the velocity limits or the closed form's float range), and raises
nothing: when no candidate had a duration, `solve` raises
InfeasibleError and an MPC step reports the mean's score.
`evaluate_candidates` synthesizes each candidate on its own and prices the
population in one `costs.evaluate_total` call, which owns the rank rule and
the no-duration rule: a candidate with no finite duration has a None
trajectory and report.  `score` prices one via-point vector through that
call with one row, and `score_direct` the no-via-point plan between two
states, as the MPC direct gate and the greedy baseline's endpoints are.
Every price is taken on the `Boundary` that the durations were synthesized
on: `make_es` and `score_direct` build it from the problem's limits and
grid, and the rest of the loop reads them only through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import CostReport, CostWeights, evaluate_total
from .optimizer import EvolutionStrategy, build_prior, converged
from .spline import BoundaryConditions, build_basis, via_timings
from .timing import (Boundary, InfeasibleError, KinodynamicLimits, PhaseGrid,
                     Trajectory, boundary_half, power_or_inf, synthesize)


@dataclass
class PlanningProblem:
    bc: BoundaryConditions
    limits: KinodynamicLimits
    n_via: int
    pop_size: int = 16
    grid: PhaseGrid = field(default_factory=lambda: PhaseGrid(50))
    weights: CostWeights = field(default_factory=CostWeights)
    checker: object | None = None
    max_iterations: int = 500
    tol: float = 1e-6
    seed: int = 0
    mode: str = "sep"
    use_chol: bool = True

    def __post_init__(self):
        self.limits.check_dof(self.bc.dof)
        if self.n_via < 1:
            raise ValueError("the stochastic loop needs n_via >= 1")
        if self.pop_size < 4:
            raise ValueError("population size must be at least 4")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 <= self.tol < np.inf:
            raise ValueError("tol must be finite and non-negative")
        if self.mode not in ("sep", "full"):
            raise ValueError("mode must be 'sep' or 'full'")


@dataclass
class SolveResult:
    trajectory: Trajectory | None   # the reported plan, as optimize picks it
    report: CostReport | None
    best_trajectory: Trajectory | None   # None when no candidate had a duration
    best_report: CostReport | None
    history_best: list       # best-so-far cost (non-increasing)
    iterations: int
    first_valid_iter: int | None = None


def straight_line_init(bc: BoundaryConditions, n_via: int) -> np.ndarray:
    """Via-points on the straight segment from q0 to qT, stacked."""
    s = via_timings(n_via)
    pts = bc.q0 + np.outer(s, bc.qT - bc.q0)
    return pts.reshape(-1)


def es_prior(problem: PlanningProblem, sigma_scale: float | None = None):
    """(basis, transform, variance) that problem's ES starts from: its
    via-point basis, the smoothness Cholesky factor (None when
    problem.use_chol is off) and the diagonal ES variance that puts
    sigma_scale, in configuration units, on the factor's largest marginal
    standard deviation.  sigma_scale and the variance must be finite and
    positive; the default sigma_scale is half the straight line q0 -> qT, or
    0.5 when q0 == qT."""
    bc = problem.bc
    if sigma_scale is None:
        sigma_scale = 0.5 * float(np.linalg.norm(bc.qT - bc.q0)) or 0.5
    basis = build_basis(problem.n_via, bc.dof)
    transform, scale = build_prior(basis) if problem.use_chol else (None, 1.0)
    variance = power_or_inf(sigma_scale / scale, 2)
    if not (sigma_scale > 0.0 and 0.0 < variance < np.inf):
        raise ValueError("sigma_scale must be finite and positive, with a finite "
                         f"positive ES variance, not {sigma_scale:g}")
    return basis, transform, variance


def make_es(problem: PlanningProblem, mean=None, sigma_scale: float | None = None):
    """(ES, Boundary) over problem's n_via via-points: the ES starts at mean,
    by default the straight line q0 -> qT, with es_prior's transform and
    variance, and the boundary half serves all it samples."""
    bc = problem.bc
    basis, transform, variance = es_prior(problem, sigma_scale)
    mean = straight_line_init(bc, problem.n_via) if mean is None else mean
    mean = np.asarray(mean, dtype=float).reshape(basis.n_via * bc.dof)
    es = EvolutionStrategy(mean=mean, sigma_diag=variance,
                           pop_size=problem.pop_size, transform=transform,
                           mode=problem.mode, seed=problem.seed)
    return es, boundary_half(basis, bc, problem.limits, problem.grid)


def _synthesized(boundary: Boundary, q_via) -> Trajectory | None:
    """synthesize, or None when no finite duration meets the limits."""
    try:
        return synthesize(boundary, q_via)
    except InfeasibleError:
        return None


def score(boundary: Boundary, q_via, problem: PlanningProblem):
    """(Trajectory, CostReport) of one via-point vector, or (None, None) when
    no finite duration meets the limits."""
    traj = _synthesized(boundary, q_via)
    (report,), _ = evaluate_total(boundary, boundary.basis.via_matrix(q_via)[None],
                                  [np.nan if traj is None else traj.duration],
                                  problem.weights, problem.checker)
    return traj, report


def score_direct(bc: BoundaryConditions, problem: PlanningProblem):
    """score of the no-via-point plan between bc's states, under problem's limits and costs."""
    boundary = boundary_half(build_basis(0, bc.dof), bc, problem.limits, problem.grid)
    return score(boundary, None, problem)


def evaluate_candidates(boundary: Boundary, candidates: np.ndarray,
                        problem: PlanningProblem):
    """(trajectories, reports, costs) of a sampled population, one
    synthesize per candidate; None where a candidate has no duration."""
    trajs = [_synthesized(boundary, x) for x in candidates]
    durations = [np.nan if t is None else t.duration for t in trajs]
    reports, costs = evaluate_total(boundary, candidates, durations, problem.weights,
                                    problem.checker)
    return trajs, reports, costs


def optimize(es: EvolutionStrategy, boundary: Boundary, problem: PlanningProblem,
             stop) -> SolveResult:
    """Sample, evaluate and update until stop(history), asked after each
    generation with the per-generation best costs so far, one per generation,
    is true, and return the reported plan and the best-ever candidate.  Over
    a boundary that is not `feasible` no candidate has a duration, so it runs
    no generation.  When no candidate admitted a finite duration the best-ever
    candidate is (None, None) and the reported plan is the mean's score."""
    history, history_best = [], []   # per-generation best cost, best so far
    best_cost, best = np.inf, (None, None)
    first_valid = None
    while boundary.lanes.feasible:
        trajs, reports, costs = evaluate_candidates(boundary, es.sample(), problem)
        es.update(costs)
        i_best = int(np.argmin(costs))
        if trajs[i_best] is not None and costs[i_best] < best_cost:
            best_cost, best = costs[i_best], (trajs[i_best], reports[i_best])
        history.append(float(costs[i_best]))
        history_best.append(float(best_cost))
        if first_valid is None and any(r is not None and r.valid for r in reports):
            first_valid = len(history)
        if stop(history):
            break

    traj, report = score(boundary, es.mean, problem)
    if report is None or (best[1] is not None and best[1].valid and not report.valid):
        traj, report = best
    return SolveResult(traj, report, *best, history_best, len(history), first_valid)


def solve(problem: PlanningProblem,
          init_sigma_scale: float | None = None) -> SolveResult:
    """optimize from make_es's cold start (at init_sigma_scale when given)
    until the per-generation best cost stalls or max_iterations have run.
    Convergence watches the per-generation best: it only stalls once the
    sampling distribution has collapsed onto a local optimum."""
    es, boundary = make_es(problem, sigma_scale=init_sigma_scale)
    res = optimize(es, boundary, problem, lambda history: (
        len(history) >= problem.max_iterations or converged(history, problem.tol)))
    if res.best_trajectory is None:
        raise InfeasibleError("no candidate admitted a finite duration")
    return res

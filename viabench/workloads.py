"""The three benchmark workloads, driven through viaplan's public API.

Each workload builds its problem from the repository's configs through
`viaplan.cli` (so the CLI is paid for in set-up only), makes its list of
inputs from the workload seed, runs one input at a time, and checks every
returned plan independently of `CostReport.valid`.

- offline_2d: `planner.solve` on the bundled cluttered world with the
  `configs/cluttered2d.json` settings. The paper's main offline experiment;
  duration synthesis and collision checking dominate.
- timeopt_1d: `planner.solve` on the 1D time-optimal problem with the
  `configs/ablate_nvia.json` settings (pop 16) and n_via 2, 4, 8 and 16. No
  checker and no position bounds, so the collision path does no work.
- mpc_2d: `mpc.run_closed_loop` on the cluttered world with the
  `configs/mpc2d.json` settings (fixed iterations per step). The only
  workload with warm-start, explore and direct steps and reference
  extraction.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

N_INPUTS = 400      # more than any run gets through
SAT_TOL = 1e-6      # relative margin within which a limit counts as saturated
LIMIT_TOL = 1e-9    # absolute slack on the velocity and acceleration limits


@dataclass
class Outcome:
    """What one input produced: its ops, their checks and its digest."""

    digest: str
    op_seconds: list = field(default_factory=list)
    op_generations: list = field(default_factory=list)
    op_ok: list = field(default_factory=list)      # output correct: not `failed`
    op_valid: list = field(default_factory=list)   # a checked valid plan came back
    plan_durations: list = field(default_factory=list)
    goal_time: float = 0.0
    direct_seconds: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    expected_synthesize: int | None = None
    expected_generations: int | None = None


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def check_plan(traj, limits, grid, world=None, min_duration=None) -> list[str]:
    """Independent check of a plan reported valid; returns what is wrong."""
    q, qd, qdd = traj.sample_grid(grid)
    errors = []
    if world is not None and np.any(world.colliding_mask(q)):
        errors.append("collides")
    if limits.q_min is not None and not (np.all(q > limits.q_min)
                                         and np.all(q < limits.q_max)):
        errors.append("leaves the position limits")
    if np.any(qd > limits.qd_max + LIMIT_TOL) or np.any(qd < limits.qd_min - LIMIT_TOL):
        errors.append("exceeds the velocity limits")
    if np.any(qdd > limits.qdd_max + LIMIT_TOL) or np.any(qdd < limits.qdd_min - LIMIT_TOL):
        errors.append("exceeds the acceleration limits")
    if not traj.degenerate:
        margins = np.concatenate([np.abs(qd / limits.qd_max - 1.0).ravel(),
                                  np.abs(qd / limits.qd_min - 1.0).ravel(),
                                  np.abs(qdd / limits.qdd_max - 1.0).ravel(),
                                  np.abs(qdd / limits.qdd_min - 1.0).ravel()])
        if np.min(margins) >= SAT_TOL:
            errors.append("saturates no limit")
    if min_duration is not None and traj.duration < min_duration - LIMIT_TOL:
        errors.append(f"duration {traj.duration:.6f} s below the bound {min_duration} s")
    return errors


def _seeds(rng, n):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


class PlanningWorkload:
    """One op is one `planner.solve`; the plan is the CLI's choice of the
    sampling mean, or the best candidate when only that one is valid."""

    warmup_iterations = 8
    checks_on = False

    def __init__(self, root):
        self.root = root

    @contextlib.contextmanager
    def checking(self):
        """Check the plans of the inputs run inside; the traced pass runs
        outside, so the checks' own calls do not enter the layer counts."""
        self.checks_on = True
        try:
            yield
        finally:
            self.checks_on = False

    def _solve(self, n_via, seed, max_iterations=None):
        from viaplan import planner
        from viaplan.timing import PhaseGrid

        problem = planner.PlanningProblem(
            self.bc, self.limits, n_via=n_via, pop_size=self.pop_size,
            grid=PhaseGrid(self.grid_k), weights=self.weights,
            checker=self.world,
            max_iterations=max_iterations or self.max_iterations,
            tol=self.tol, seed=seed)
        return problem, planner.solve(problem, init_sigma_scale=self.init_sigma)

    def warmup(self):
        for n_via in sorted(set(self.n_via_cycle)):
            self._solve(n_via, 0, self.warmup_iterations)

    def run(self, inp) -> Outcome:
        from viaplan.timing import InfeasibleError

        n_via, seed = inp
        t0 = time.perf_counter()
        try:
            problem, res = self._solve(n_via, seed)
        except InfeasibleError:
            dt = time.perf_counter() - t0
            return Outcome(digest=_digest(inp, "infeasible"), op_seconds=[dt],
                           op_generations=[0], op_ok=[False], op_valid=[False])
        dt = time.perf_counter() - t0
        traj, report = res.trajectory, res.report
        if not report.valid and res.best_report.valid:
            traj, report = res.best_trajectory, res.best_report
        errors = []
        if report.valid and self.checks_on:
            errors = [f"{inp}: plan reported valid {e}" for e in
                      check_plan(traj, self.limits, problem.grid, self.world,
                                 self.min_duration)]
        ok = report.valid and not errors
        return Outcome(
            digest=_digest(inp, traj.duration.hex(), res.iterations, report.valid),
            op_seconds=[dt], op_generations=[res.iterations],
            op_ok=[ok], op_valid=[ok],
            plan_durations=[traj.duration] if report.valid else [],
            goal_time=traj.duration, errors=errors,
            expected_synthesize=res.iterations * self.pop_size + 1,
            expected_generations=res.iterations)


class Offline2D(PlanningWorkload):
    name = "offline_2d"
    quality_inputs = 8
    trace_ops = 7
    min_duration = None

    def build(self):
        from viaplan import cli

        cfg = cli.load_config(str(self.root / "configs" / "cluttered2d.json"),
                              {"problem": cli.PROBLEM_KEYS,
                               "optimizer": cli.PLAN_OPT_KEYS,
                               "costs": cli.COSTS_KEYS, "world": cli.WORLD_KEYS})
        self.bc, self.limits = cli.build_problem(cfg["problem"])
        self.world = cli.build_world(cfg["world"])
        self.weights = cli.build_weights(cfg["costs"])
        opt = cfg["optimizer"]
        self.n_via_cycle = (int(opt["n_via"]),)
        self.pop_size = int(opt["pop_size"])
        self.grid_k = int(opt["grid_k"])
        self.max_iterations = int(opt["max_iterations"])
        self.tol = float(opt["tol"])
        self.init_sigma = float(opt["init_sigma"])

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        return [(self.n_via_cycle[0], s) for s in _seeds(rng, N_INPUTS)]


class TimeOpt1D(PlanningWorkload):
    name = "timeopt_1d"
    # Half the solves use n_via 8, so that the median op falls well inside
    # that via-count group. With equal shares it would sit on the boundary
    # between two groups, whose solve times differ by about 2x, and jump
    # between them from seed to seed.
    n_via_cycle = (2, 4, 8, 8, 8, 16)
    quality_inputs = 12
    trace_ops = 18

    def build(self):
        from viaplan import cli
        from viaplan.worlds import ablation_world_1d

        cfg = cli.load_config(str(self.root / "configs" / "ablate_nvia.json"),
                              {"problem": cli.PROBLEM_KEYS,
                               "optimizer": cli.NVIA_OPT_KEYS,
                               "costs": cli.COSTS_KEYS})
        self.bc, self.limits, self.min_duration = ablation_world_1d()
        self.world = None
        self.weights = cli.build_weights(cfg["costs"])
        opt = cfg["optimizer"]
        self.pop_size = int(opt["pop_size"])
        self.grid_k = int(opt.get("grid_k", 50))
        self.max_iterations = int(opt["max_iterations"])
        self.tol = float(opt["tol"])
        self.init_sigma = None

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        seeds = _seeds(rng, N_INPUTS)
        return [(self.n_via_cycle[i % len(self.n_via_cycle)], s)
                for i, s in enumerate(seeds)]


class Mpc2D:
    """One input is one closed-loop episode; one op is one optimizing
    (warm-start or explore) step of it. Direct steps are timed separately."""

    name = "mpc_2d"
    quality_inputs = 6
    trace_ops = 6

    def __init__(self, root):
        self.root = root
        self.captured = None

    def build(self):
        from viaplan import cli, mpc

        cfg = cli.load_config(str(self.root / "configs" / "mpc2d.json"),
                              {"problem": cli.PROBLEM_KEYS, "costs": cli.COSTS_KEYS,
                               "world": cli.WORLD_KEYS, "mpc": cli.MPC_KEYS})
        self.bc, self.limits = cli.build_problem(cfg["problem"])
        self.world = cli.build_world(cfg["world"])
        m = cfg["mpc"]
        self.config = mpc.MpcConfig(
            dt_mpc=float(m["dt_mpc"]), t_stop=float(m["t_stop"]),
            n_max=int(m["n_max"]), alpha=float(m["alpha"]),
            pop_size=int(m["pop_size"]), grid_k=int(m["grid_k"]),
            weights=cli.build_weights(cfg["costs"]),
            plant_dt=float(m["plant_dt"]), seed=int(m.get("seed", 0)),
            iterations_per_step=int(m["iterations_per_step"]))
        self.max_steps = int(m["max_steps"])

    def _episode(self, seed, max_steps):
        from viaplan import mpc

        bc = self.bc
        config = dataclasses.replace(self.config, seed=seed)
        return mpc.run_closed_loop(bc.q0, bc.qd0, bc.qT, bc.qdT, self.limits,
                                   config, checker=self.world,
                                   max_steps=max_steps)

    def warmup(self):
        self._episode(0, 2)

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        return _seeds(rng, N_INPUTS)

    @contextlib.contextmanager
    def checking(self):
        """Keep each `mpc_step` result while inside, so that its plan can be
        checked; the episode log holds no plans."""
        from tracing import Patcher

        def make(fn):
            def capture_step(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.captured.append(result)
                return result
            return capture_step

        with Patcher() as patcher:
            patcher.patch("mpc", "mpc_step", make)
            self.captured = []
            try:
                yield
            finally:
                self.captured = None

    def run(self, seed) -> Outcome:
        from viaplan.timing import PhaseGrid

        if self.captured is not None:
            self.captured.clear()
        log = self._episode(seed, self.max_steps)
        rows = log.rows
        out = Outcome(digest=_digest(seed, log.goal_reached, log.steps, [
            (r["step"], r["t"], r["q"].tobytes(), r["qd"].tobytes(), r["mode"],
             r["valid"], float(r["step_cost"]).hex(), r["iterations"])
            for r in rows]))
        out.goal_time = log.steps * self.config.dt_mpc
        expected = 0
        generations = 0
        results = self.captured if self.captured is not None else [None] * len(rows)
        if len(results) != len(rows):
            out.errors.append(f"episode {seed}: {len(results)} steps captured "
                              f"for {len(rows)} rows")
            results = [None] * len(rows)
        grid = PhaseGrid(self.config.grid_k)
        if not log.goal_reached:
            out.errors.append(f"episode {seed}: goal not reached in {log.steps} steps")
        for row, res in zip(rows, results):
            problems = []
            if res is not None and res.valid and res.solution is not None:
                problems = check_plan(res.solution, self.limits, grid, self.world)
                out.errors.extend(f"episode {seed} step {row['step']}: plan reported "
                                  f"valid {e}" for e in problems)
            # A step that finds no valid plan is not a failed op: the loop
            # falls back to the previous plan by design. It counts in
            # fail_frac only.
            ok = log.goal_reached and not problems
            expected += 1
            if row["mode"] == "direct":
                out.direct_seconds.append(row["step_seconds"])
                continue
            expected += row["iterations"] * self.config.pop_size + 1
            generations += row["iterations"]
            out.op_seconds.append(row["step_seconds"])
            out.op_generations.append(row["iterations"])
            out.op_ok.append(ok)
            out.op_valid.append(ok and bool(row["valid"]))
            if res is not None and res.valid and res.solution is not None:
                out.plan_durations.append(res.solution.duration)
        out.expected_synthesize = expected
        out.expected_generations = generations
        return out


WORKLOADS = {w.name: w for w in (Offline2D, TimeOpt1D, Mpc2D)}

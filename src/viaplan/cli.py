"""Command-line harness: offline planning, closed-loop MPC, and the two
ablation studies (via-point count, covariance factorization), all driven by a
JSON config and emitting CSV artifacts.  The three offline commands are
sweeps of one solve loop, `offline_runs`: it builds one PlanningProblem per
(setup, seed) and solves it, and each command turns what it yields into rows.

Each config section has one schema, a `*_KEYS` pair (key -> JSON kind,
required keys), that `load_config` applies; a null keeps the key's default.

Exit codes: 0 success, 1 experiment-level failure, 2 usage/config error.
An identical config, seed included, reproduces byte-identical CSV; for the
mpc command this requires the fixed `iterations_per_step` budget (wall-clock
budgets make iteration counts machine-dependent, so step_ms is then written
as 0).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .costs import CostWeights
from .mpc import MAX_STEPS, LagPlant, MpcConfig, greedy_step, run_closed_loop
from .planner import PlanningProblem, make_es, solve
from .spline import BoundaryConditions
from .timing import InfeasibleError, KinodynamicLimits, PhaseGrid
from .worlds import World2D, bundled_cluttered_world, single_obstacle_world


class ConfigError(Exception):
    pass


@contextmanager
def config_values():
    """Report a value that a constructor rejects as a ConfigError."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) if not isinstance(v, str) else v for v in row)
                 for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _rows(width: int):
    return lambda value: isinstance(value, list) and all(
        isinstance(row, list) and len(row) == width and all(map(_number, row))
        for row in value)


# The JSON kinds of config values, named as the error messages name them, and
# the test that a value of each kind passes: int keys take only integers,
# float keys any number; counts and the ES's initial spread must be positive.
INT, FLOAT, STR = "an integer", "a number", "a string"
COUNT, POSITIVE = "a positive integer", "a finite positive number"
VECTOR, COUNTS = "a number or a list of numbers", "a non-empty list of positive integers"
DISKS = "a list of [x, y, radius] disks"
RECTS = "a list of [x_lo, y_lo, x_hi, y_hi] rectangles"
ACCEPTS = {
    INT: lambda value: isinstance(value, int) and not isinstance(value, bool),
    FLOAT: _number,
    COUNT: lambda value: ACCEPTS[INT](value) and value >= 1,
    POSITIVE: lambda value: _number(value) and 0.0 < value < np.inf,
    STR: lambda value: isinstance(value, str),
    VECTOR: lambda value: _number(value) or (isinstance(value, list)
                                             and all(map(_number, value))),
    COUNTS: lambda value: isinstance(value, list) and value != [] and all(
        map(ACCEPTS[COUNT], value)),
    DISKS: _rows(3),
    RECTS: _rows(4),
}


def load_config(path: str, sections: dict) -> dict:
    """Parse the JSON config and check it against the schemas in `sections`,
    which maps section name -> (key -> JSON kind, required keys).

    Unknown sections and keys, missing required keys and values not of their
    key's kind are ConfigErrors naming the key.  A null counts as absent, so
    the key's default applies; float-kind values come back as floats.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for name in raw:
        if name not in sections:
            raise ConfigError(f"unknown section '{name}'")
    out = {}
    for name, (kinds, required) in sections.items():
        sec = raw.get(name, {})
        if not isinstance(sec, dict):
            raise ConfigError(f"section '{name}' must be a JSON object")
        for key in sec:
            if key not in kinds:
                raise ConfigError(f"unknown key '{name}.{key}'")
        sec = {key: value for key, value in sec.items() if value is not None}
        for key, kind in kinds.items():
            if key in sec and not ACCEPTS[kind](sec[key]):
                raise ConfigError(f"key '{name}.{key}' must be {kind}, "
                                  f"not {json.dumps(sec[key])}")
            if key in required and key not in sec:
                raise ConfigError(f"missing key '{name}.{key}'")
        out[name] = {key: float(value) if kinds[key] in (FLOAT, POSITIVE) else value
                     for key, value in sec.items()}
    return out


PROBLEM_KEYS = (dict.fromkeys(("q0", "qd0", "qT", "qdT", "qd_max", "qdd_max",
                               "q_min", "q_max"), VECTOR),
                {"q0", "qT", "qd_max", "qdd_max"})
COSTS_KEYS = (dict.fromkeys(("duration", "smooth", "jla", "collision",
                             "invalid_penalty"), FLOAT), set())
WORLD_KEYS = ({"type": STR, "disks": DISKS, "rects": RECTS, "robot_radius": FLOAT,
               "bounds_lo": VECTOR, "bounds_hi": VECTOR}, set())


def _per_dof(value, dof: int):
    """A config scalar broadcast to every DoF, or a per-DoF list as given."""
    arr = np.asarray(value, dtype=float)
    return arr * np.ones(dof) if arr.ndim == 0 else arr


def build_problem(sec: dict) -> tuple[BoundaryConditions, KinodynamicLimits]:
    q0, qT = (np.asarray(sec[key], dtype=float) for key in ("q0", "qT"))
    bc = BoundaryConditions(q0, sec.get("qd0", np.zeros_like(q0)),
                            qT, sec.get("qdT", np.zeros_like(qT)))
    qd_max, qdd_max, q_min, q_max = (_per_dof(sec[key], bc.dof) if key in sec else None
                                     for key in ("qd_max", "qdd_max", "q_min", "q_max"))
    return bc, KinodynamicLimits(-qd_max, qd_max, -qdd_max, qdd_max, q_min, q_max)


def build_world(sec: dict):
    kind = sec.get("type", "none")
    shape = {key: value for key, value in sec.items() if key != "type"}
    if kind == "custom":
        return World2D(**shape)
    bundled = {"none": lambda: None, "cluttered2d": bundled_cluttered_world,
               "single_obstacle": single_obstacle_world}
    if kind not in bundled:
        raise ConfigError(f"unknown key 'world.type' value '{kind}'")
    if shape:
        raise ConfigError(f"key 'world.{next(iter(shape))}' needs world.type \"custom\"")
    return bundled[kind]()


def build_weights(sec: dict) -> CostWeights:
    return CostWeights(**sec)


# The kind of every optimizer key; each command's section takes all but a few.
OPTIMIZER_KINDS = {"n_via": INT, "n_list": COUNTS, "runs": COUNT, "seeds": COUNT,
                   "pop_size": INT, "max_iterations": INT, "tol": FLOAT,
                   "init_sigma": POSITIVE, "grid_k": INT, "seed": INT}


def optimizer_kinds(*excluded: str) -> dict:
    return {key: kind for key, kind in OPTIMIZER_KINDS.items() if key not in excluded}


def load_experiment(args, section: str, keys, world: bool = True):
    """Read and build the parts every command shares: (bc, limits, world or
    None, weights, the command's own section without its seed, the seed)."""
    sections = {"problem": PROBLEM_KEYS, section: keys, "costs": COSTS_KEYS}
    if world:
        sections["world"] = WORLD_KEYS
    cfg = load_config(args.config, sections)
    with config_values():
        bc, limits = build_problem(cfg["problem"])
        checker = build_world(cfg.get("world", {}))
        weights = build_weights(cfg["costs"])
        limits.check_dof(bc.dof)
    if checker is not None and bc.dof != 2:
        raise ConfigError("a world needs a 2-DoF problem")
    return bc, limits, checker, weights, cfg[section], cfg[section].pop("seed", 0)


def out_dir(value: str) -> Path:
    """The --out-dir directory, made if missing; a ConfigError when it cannot be."""
    path = Path(value)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir {value}: {exc.strerror or exc}") from exc
    return path


def offline_runs(args, keys, setups, world: bool = True):
    """The solves of an offline command, in CSV order.

    `setups(opt)` takes the optimizer section's keys that are not
    PlanningProblem fields out of it and returns the number of seeds and the
    command's (name, fields) setups.  Each setup solves one PlanningProblem
    of its fields, overridden by the section's own keys, per seed from the
    section's seed on; fields that PlanningProblem rejects, and an initial
    spread that gives the ES no finite positive variance, are ConfigErrors.
    Yields (name, problem, result), the result None when no candidate
    admitted a finite duration.
    """
    bc, limits, checker, weights, opt, base_seed = load_experiment(
        args, "optimizer", keys, world)
    init_sigma = opt.pop("init_sigma", None)
    if "grid_k" in opt:
        with config_values():
            opt["grid"] = PhaseGrid(opt.pop("grid_k"))
    seeds, named = setups(opt)
    for name, fields in named:
        for seed in range(base_seed, base_seed + seeds):
            with config_values():
                problem = PlanningProblem(bc, limits, weights=weights, checker=checker,
                                          seed=seed, **{**fields, **opt})
                # solve's ES start, so that a spread it cannot hold is a config error.
                make_es(problem, sigma_scale=init_sigma)
            try:
                result = solve(problem, init_sigma_scale=init_sigma)
            except InfeasibleError:
                result = None
            yield name, problem, result


# -- plan ------------------------------------------------------------------


PLAN_OPT_KEYS = (optimizer_kinds("n_list", "seeds"), {"n_via"})


def cmd_plan(args) -> int:
    rows = []
    for _, problem, res in offline_runs(args, PLAN_OPT_KEYS,
                                        lambda opt: (opt.pop("runs", 1), [(None, {})])):
        seed = problem.seed
        if res is None:
            rows.append([seed, float("nan"), float("nan"), False, problem.max_iterations])
            continue
        traj, report = res.trajectory, res.report
        rows.append([seed, report.total, traj.duration, report.valid,
                     res.iterations])
        grid = PhaseGrid(100)
        traj_rows = [[t, *q, *qd, *qdd] for t, q, qd, qdd in
                     zip(grid.points * traj.duration, *traj.sample_grid(grid))]
        header = ["t"] + [f"{v}{d}" for v in ("q", "qd", "qdd")
                          for d in range(problem.bc.dof)]
        write_csv(args.out_dir / f"trajectory_{seed}.csv", header, traj_rows)
        if not args.quiet:
            print(f"seed {seed}: T={traj.duration:.4f} valid={report.valid} "
                  f"iters={res.iterations}")

    write_csv(args.out_dir / "plan_runs.csv",
              ["seed", "final_cost", "T", "valid", "iterations"], rows)
    if not any(valid for _, _, _, valid, _ in rows):
        print("no valid run", file=sys.stderr)
        return 1
    return 0


# -- mpc -------------------------------------------------------------------


MPC_KEYS = ({**dict.fromkeys(("dt_mpc", "t_stop", "alpha", "plant_dt", "goal_tol",
                               "vel_tol"), FLOAT),
             **dict.fromkeys(("n_max", "pop_size", "grid_k", "iterations_per_step",
                              "seed"), INT),
             "max_steps": COUNT,
             "plant": STR}, set())


def parse_disturb(tokens: list[str], max_steps: int) -> dict:
    """Parse `step=40 dq=(0.3,0)` style tokens into {step: dq}: one
    disturbance, at a step in range(max_steps), by a finite dq."""
    given = {}
    for tok in tokens:
        key, _, val = tok.partition("=")
        if key not in ("step", "dq") or key in given:
            raise ConfigError(f"--disturb takes step= and dq= once each, not '{tok}'")
        given[key] = val
    if given.keys() != {"step", "dq"} or int(given["step"]) not in range(max_steps):
        raise ConfigError(f"--disturb needs step=<int in [0, {max_steps})> and dq=(..)")
    dq = np.asarray([float(v) for v in given["dq"].strip("()").split(",")])
    if not np.isfinite(dq).all():
        raise ConfigError("--disturb dq must be finite")
    return {int(given["step"]): dq}


def cmd_mpc(args) -> int:
    bc, limits, world, weights, m, seed = load_experiment(args, "mpc", MPC_KEYS)
    # The keys of the closed loop itself (max_steps also bounds a --disturb
    # step); the rest are MpcConfig fields.
    max_steps = m.pop("max_steps", MAX_STEPS)
    plant_kind = m.pop("plant", "exact")
    if plant_kind not in ("exact", "lag"):
        raise ConfigError(f"unknown key 'mpc.plant' value '{plant_kind}'")
    if args.disturb is not None and len(args.disturb) > 1:
        raise ConfigError("--disturb is given at most once")
    with config_values():
        config = MpcConfig(weights=weights, seed=seed, **m)
        disturbances = (None if args.disturb is None
                        else parse_disturb(args.disturb[0], max_steps))
    plant = LagPlant(bc.q0, bc.qd0) if plant_kind == "lag" else None
    if any(dq.shape != bc.q0.shape for dq in (disturbances or {}).values()):
        raise ConfigError("--disturb dq needs one value per DoF")

    step = greedy_step if args.baseline == "greedy" else None
    log = run_closed_loop(bc.q0, bc.qd0, bc.qT, bc.qdT, limits, config,
                          checker=world, plant=plant, disturbances=disturbances,
                          step=step, max_steps=max_steps)

    deterministic = config.iterations_per_step is not None
    ep_rows = [[r["step"], r["t"], *r["q"], *r["qd"], r["mode"], r["step_cost"],
                0.0 if deterministic else 1e3 * r["step_seconds"], r["valid"]]
               for r in log.rows]
    header = (["step", "t"] + [f"{v}{d}" for v in ("q", "qd") for d in range(bc.dof)]
              + ["mode", "step_cost", "step_ms", "valid"])
    write_csv(args.out_dir / "episode.csv", header, ep_rows)
    write_csv(args.out_dir / "summary.csv",
              ["goal_reached", "steps", "final_distance"],
              [[log.goal_reached, log.steps, log.final_distance]])
    if not args.quiet:
        print(f"goal_reached={log.goal_reached} steps={log.steps} "
              f"final_distance={log.final_distance:.6f}")
    if args.baseline is None and not log.goal_reached:
        return 1
    return 0


# -- ablations -------------------------------------------------------------


NVIA_OPT_KEYS = (optimizer_kinds("n_via", "runs"), set())


def cmd_ablate_nvia(args) -> int:
    rows = []
    for n_via, problem, res in offline_runs(
            args, NVIA_OPT_KEYS, lambda opt: (opt.pop("seeds", 5), [
                (n, {"n_via": n}) for n in opt.pop("n_list", range(1, 17))]),
            world=False):
        if res is None:
            rows.append([n_via, float("nan"), problem.max_iterations])
            continue
        rows.append([n_via, res.trajectory.duration, res.iterations])
        if not args.quiet:
            print(f"N={n_via} seed={problem.seed}: "
                  f"T={res.trajectory.duration:.4f} iters={res.iterations}")
    write_csv(args.out_dir / "ablate_nvia.csv", ["N", "T_final", "iterations"], rows)
    if all(np.isnan(t_final) for _, t_final, _ in rows):
        print("no feasible run", file=sys.stderr)
        return 1
    return 0


CHOL_OPT_KEYS = (optimizer_kinds("n_list", "runs"), set())

# Each setup's name and ES variant, with 6 via-points and 150 iterations
# unless the section sets them.
CHOL_SETUPS = tuple((name, dict(mode=mode, use_chol=chol, n_via=6, max_iterations=150))
                    for name, mode, chol in (
                        ("sep_chol", "sep", True), ("sep_plain", "sep", False),
                        ("full_chol", "full", True), ("full_plain", "full", False)))


def cmd_ablate_chol(args) -> int:
    rows = []
    for name, problem, res in offline_runs(
            args, CHOL_OPT_KEYS, lambda opt: (opt.pop("seeds", 20), CHOL_SETUPS)):
        if res is None:
            rows.append([name, problem.seed, problem.max_iterations, float("nan"), -1])
            continue
        first_valid = -1 if res.first_valid_iter is None else res.first_valid_iter
        for it, cost in enumerate(res.history_best, start=1):
            rows.append([name, problem.seed, it, cost, first_valid])
        if not args.quiet:
            print(f"{name} seed={problem.seed}: first_valid={first_valid} "
                  f"best={res.history_best[-1]:.4f}")
    write_csv(args.out_dir / "ablate_chol.csv",
              ["setup", "seed", "iteration", "best_cost", "first_valid_iter"],
              rows)
    if all(np.isnan(row[3]) for row in rows):
        print("no feasible run", file=sys.stderr)
        return 1
    return 0


# -- entry point -----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="viaplan")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("plan", cmd_plan), ("mpc", cmd_mpc),
                     ("ablate-nvia", cmd_ablate_nvia),
                     ("ablate-chol", cmd_ablate_chol)):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out-dir", default=".")
        p.add_argument("--quiet", action="store_true")
        if name == "mpc":
            p.add_argument("--baseline", choices=["greedy"], default=None)
            p.add_argument("--disturb", nargs="*", action="append")
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.out_dir = out_dir(args.out_dir)   # before any solve
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

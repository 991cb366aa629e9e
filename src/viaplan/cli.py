"""Command-line harness: offline planning, closed-loop MPC, and the two
ablation studies (via-point count, covariance factorization), all driven by a
JSON config and emitting CSV artifacts.

Exit codes: 0 success, 1 experiment-level failure, 2 usage/config error.
Identical config + seed reproduces byte-identical CSV; for the mpc command
this requires the fixed `iterations_per_step` budget (wall-clock budgets make
iteration counts machine-dependent, so step_ms is then written as 0).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .costs import CostWeights
from .mpc import LagPlant, MpcConfig, greedy_step, run_closed_loop
from .planner import PlanningProblem, solve
from .spline import BoundaryConditions
from .timing import InfeasibleError, KinodynamicLimits, PhaseGrid
from .worlds import (Disk, Rect, World2D, bundled_cluttered_world,
                     single_obstacle_world)


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


def load_config(path: str, sections: dict) -> dict:
    """Parse and strictly validate the JSON config.

    sections maps section name -> (allowed keys, required keys); unknown keys
    anywhere are errors naming the offending key.
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
    for name, (allowed, required) in sections.items():
        sec = raw.get(name, {})
        if not isinstance(sec, dict):
            raise ConfigError(f"section '{name}' must be a JSON object")
        for key in sec:
            if key not in allowed:
                raise ConfigError(f"unknown key '{name}.{key}'")
        for key in required:
            if key not in sec:
                raise ConfigError(f"missing key '{name}.{key}'")
        out[name] = sec
    return out


PROBLEM_KEYS = ({"q0", "qd0", "qT", "qdT", "qd_max", "qdd_max", "q_min", "q_max"},
                {"q0", "qT", "qd_max", "qdd_max"})
COSTS_KEYS = ({"duration", "smooth", "jla", "collision", "push", "invalid_penalty"},
              set())
WORLD_KEYS = ({"type", "disks", "rects", "robot_radius", "bounds_lo", "bounds_hi"},
              set())


def _per_dof(value, dof: int):
    """A config scalar broadcast to every DoF, or a per-DoF list as given."""
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    return arr * np.ones(dof) if arr.ndim == 0 else arr


def build_problem(sec: dict) -> tuple[BoundaryConditions, KinodynamicLimits]:
    q0 = np.asarray(sec["q0"], dtype=float)
    qT = np.asarray(sec["qT"], dtype=float)
    qd0 = np.asarray(sec.get("qd0", np.zeros_like(q0)), dtype=float)
    qdT = np.asarray(sec.get("qdT", np.zeros_like(qT)), dtype=float)
    qd_max, qdd_max, q_min, q_max = (_per_dof(sec.get(key), q0.shape[0])
                                     for key in ("qd_max", "qdd_max", "q_min", "q_max"))
    limits = KinodynamicLimits(-qd_max, qd_max, -qdd_max, qdd_max, q_min, q_max)
    return BoundaryConditions(q0, qd0, qT, qdT), limits


def build_world(sec: dict):
    kind = sec.get("type", "none")
    if kind == "none":
        return None
    if kind == "cluttered2d":
        return bundled_cluttered_world()
    if kind == "single_obstacle":
        return single_obstacle_world()
    if kind == "custom":
        obstacles = [Disk(np.array(d[:2]), d[2]) for d in sec.get("disks", [])]
        obstacles += [Rect(np.array(r[:2]), np.array(r[2:])) for r in sec.get("rects", [])]
        return World2D(obstacles=tuple(obstacles),
                       bounds_lo=np.asarray(sec.get("bounds_lo", [0.0, 0.0]), dtype=float),
                       bounds_hi=np.asarray(sec.get("bounds_hi", [1.0, 1.0]), dtype=float),
                       robot_radius=float(sec.get("robot_radius", 0.0)))
    raise ConfigError(f"unknown key 'world.type' value '{kind}'")


def build_weights(sec: dict) -> CostWeights:
    return CostWeights(**{k: float(v) for k, v in sec.items()})


PROBLEM_FIELDS = {"n_via": int, "pop_size": int, "max_iterations": int,
                  "tol": float, "mode": str, "use_chol": bool}
MPC_FIELDS = {"dt_mpc": float, "t_stop": float, "n_max": int, "alpha": float,
              "pop_size": int, "grid_k": int, "explore_sigma": float,
              "warmstart_sigma": float, "plant_dt": float,
              "iterations_per_step": int, "goal_tol": float, "vel_tol": float}


VECTOR = "a number or a list of numbers"
INTS = "a list of integers"
DISKS = "a list of [x, y, radius] disks"
RECTS = "a list of [x_lo, y_lo, x_hi, y_hi] rectangles"
TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
              str: "a string"}

# The JSON type of every key a command reads.
KEY_TYPES = {
    **PROBLEM_FIELDS, **MPC_FIELDS,
    **dict.fromkeys(("runs", "seeds", "seed", "max_steps"), int),
    **dict.fromkeys(("init_sigma", "lag_time_constant", "robot_radius",
                     *COSTS_KEYS[0]), float),
    **dict.fromkeys((*PROBLEM_KEYS[0], "bounds_lo", "bounds_hi"), VECTOR),
    "type": str, "plant": str, "n_list": INTS, "disks": DISKS, "rects": RECTS,
}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def has_type(value, kind) -> bool:
    """Whether a JSON value is of kind: bool keys take only true or false,
    int keys only integers, float keys any number."""
    if kind in TYPE_NAMES:
        if kind is float:
            return _number(value)
        return isinstance(value, bool) == (kind is bool) and isinstance(value, kind)
    if not isinstance(value, list):
        return kind == VECTOR and _number(value)
    if kind == INTS:
        return all(has_type(v, int) for v in value)
    if kind == VECTOR:
        return all(map(_number, value))
    width = 3 if kind == DISKS else 4
    return all(isinstance(row, list) and len(row) == width and all(map(_number, row))
               for row in value)


def check_types(cfg: dict) -> None:
    """Raise a ConfigError naming the first key whose value is not of its
    KEY_TYPES kind.  Null passes here; load_experiment drops it from the
    command's own section, so the command's default applies."""
    for name, sec in cfg.items():
        for key, value in sec.items():
            kind = KEY_TYPES[key]
            if value is not None and not has_type(value, kind):
                raise ConfigError(f"key '{name}.{key}' must be "
                                  f"{TYPE_NAMES.get(kind, kind)}, not {json.dumps(value)}")


def typed_fields(sec: dict, fields: dict) -> dict:
    """The section's values for the given dataclass fields, cast to their
    types; absent or null keys are left to the dataclass defaults."""
    return {k: cast(sec[k]) for k, cast in fields.items() if sec.get(k) is not None}


def planning_problem(opt: dict, bc, limits, weights, checker, seed: int,
                     **defaults) -> PlanningProblem:
    """PlanningProblem from an optimizer section.  `defaults` are the command's
    own values for keys the section leaves out (ablate-chol's 150 iterations)
    or that its schema does not accept (ablate-nvia's n_via)."""
    with config_values():
        return PlanningProblem(bc, limits, grid=PhaseGrid(int(opt.get("grid_k", 50))),
                               weights=weights, checker=checker, seed=seed,
                               **typed_fields({**defaults, **opt}, PROBLEM_FIELDS))


def init_sigma(opt: dict) -> float | None:
    sigma = opt.get("init_sigma")
    return None if sigma is None else float(sigma)


def load_experiment(args, section: str, keys, world: bool = True):
    """Read and build the parts every command shares: (bc, limits, world or
    None, weights, the command's own section, base seed)."""
    sections = {"problem": PROBLEM_KEYS, section: keys, "costs": COSTS_KEYS}
    if world:
        sections["world"] = WORLD_KEYS
    cfg = load_config(args.config, sections)
    check_types(cfg)
    with config_values():
        bc, limits = build_problem(cfg["problem"])
        checker = build_world(cfg.get("world", {}))
        weights = build_weights(cfg["costs"])
    if any(v is not None and v.shape != bc.q0.shape for v in vars(limits).values()):
        raise ConfigError("every limit needs one value per DoF of q0")
    if checker is not None and bc.dof != 2:
        raise ConfigError("a world needs a 2-DoF problem")
    sec = {key: value for key, value in cfg[section].items() if value is not None}
    seed = args.seed if args.seed is not None else sec.get("seed", 0)
    return bc, limits, checker, weights, sec, seed


def out_dir(args) -> Path:
    path = Path(args.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- plan ------------------------------------------------------------------


PLAN_OPT_KEYS = ({"n_via", "pop_size", "runs", "max_iterations", "tol",
                  "init_sigma", "grid_k", "mode", "use_chol", "seed"}, {"n_via"})


def cmd_plan(args) -> int:
    bc, limits, world, weights, opt, base_seed = load_experiment(
        args, "optimizer", PLAN_OPT_KEYS)
    runs = int(opt.get("runs", 1))
    out = out_dir(args)

    dof = bc.dof
    rows = []
    n_valid = 0
    for i in range(runs):
        seed = base_seed + i
        problem = planning_problem(opt, bc, limits, weights, world, seed)
        try:
            res = solve(problem, init_sigma_scale=init_sigma(opt))
        except InfeasibleError:
            rows.append([seed, float("nan"), float("nan"), False,
                         problem.max_iterations])
            continue
        traj, report = res.trajectory, res.report
        if not report.valid and res.best_report.valid:
            traj, report = res.best_trajectory, res.best_report
        n_valid += report.valid
        rows.append([seed, report.total, traj.duration, report.valid,
                     res.iterations])
        s = np.linspace(0.0, 1.0, 101)
        q = traj.position(s)
        qd = traj.velocity(s)
        qdd = traj.acceleration(s)
        traj_rows = [[s_k * traj.duration, *q[k], *qd[k], *qdd[k]]
                     for k, s_k in enumerate(s)]
        header = (["t"] + [f"q{d}" for d in range(dof)]
                  + [f"qd{d}" for d in range(dof)]
                  + [f"qdd{d}" for d in range(dof)])
        write_csv(out / f"trajectory_{seed}.csv", header, traj_rows)
        if not args.quiet:
            print(f"seed {seed}: T={traj.duration:.4f} valid={report.valid} "
                  f"iters={res.iterations}")

    write_csv(out / "plan_runs.csv",
              ["seed", "final_cost", "T", "valid", "iterations"], rows)
    if n_valid == 0:
        print("no valid run", file=sys.stderr)
        return 1
    return 0


# -- mpc -------------------------------------------------------------------


MPC_KEYS = ({"dt_mpc", "t_stop", "alpha", "n_max", "pop_size", "grid_k",
             "explore_sigma", "warmstart_sigma", "plant_dt",
             "iterations_per_step", "max_steps", "goal_tol", "vel_tol", "seed",
             "plant", "lag_time_constant"}, set())


def parse_disturb(tokens: list[str]) -> dict:
    """Parse `step=40 dq=(0.3,0)` style tokens into {step: dq}."""
    step = None
    dq = None
    for tok in tokens:
        key, _, val = tok.partition("=")
        if key == "step":
            step = int(val)
        elif key == "dq":
            dq = [float(v) for v in val.strip("()").split(",")]
        else:
            raise ConfigError(f"unknown --disturb key '{key}'")
    if step is None or dq is None:
        raise ConfigError("--disturb needs step=<int> and dq=(..)")
    return {step: np.asarray(dq)}


def cmd_mpc(args) -> int:
    bc, limits, world, weights, m, seed = load_experiment(args, "mpc", MPC_KEYS)
    with config_values():
        config = MpcConfig(weights=weights, seed=seed, **typed_fields(m, MPC_FIELDS))
        disturbances = parse_disturb(args.disturb) if args.disturb else None
    if any(dq.shape != bc.q0.shape for dq in (disturbances or {}).values()):
        raise ConfigError("--disturb dq needs one value per DoF")
    if m.get("plant", "exact") not in ("exact", "lag"):
        raise ConfigError(f"unknown key 'mpc.plant' value '{m['plant']}'")
    max_steps = int(m.get("max_steps", 150))
    plant = None
    if m.get("plant", "exact") == "lag":
        plant = LagPlant(bc.q0, bc.qd0,
                         time_constant=float(m.get("lag_time_constant", 0.05)))

    step = greedy_step if args.baseline == "greedy" else None
    log = run_closed_loop(bc.q0, bc.qd0, bc.qT, bc.qdT, limits, config,
                          checker=world, max_steps=max_steps, plant=plant,
                          disturbances=disturbances, step=step)

    out = out_dir(args)
    dof = bc.dof
    deterministic = config.iterations_per_step is not None
    ep_rows = [[r["step"], r["t"], *r["q"], *r["qd"], r["mode"], r["step_cost"],
                0.0 if deterministic else 1e3 * r["step_seconds"], r["valid"]]
               for r in log.rows]
    header = (["step", "t"] + [f"q{d}" for d in range(dof)]
              + [f"qd{d}" for d in range(dof)]
              + ["mode", "step_cost", "step_ms", "valid"])
    write_csv(out / "episode.csv", header, ep_rows)
    write_csv(out / "summary.csv",
              ["goal_reached", "steps", "final_distance"],
              [[log.goal_reached, log.steps, log.final_distance]])
    if not args.quiet:
        print(f"goal_reached={log.goal_reached} steps={log.steps} "
              f"final_distance={log.final_distance:.6f}")
    if args.baseline is None and not log.goal_reached:
        return 1
    return 0


# -- ablations -------------------------------------------------------------


NVIA_OPT_KEYS = ({"n_list", "seeds", "pop_size", "max_iterations", "tol",
                  "grid_k", "seed", "init_sigma"}, set())


def cmd_ablate_nvia(args) -> int:
    bc, limits, _, weights, opt, base_seed = load_experiment(
        args, "optimizer", NVIA_OPT_KEYS, world=False)
    n_list = [int(n) for n in opt.get("n_list", list(range(1, 17)))]
    seeds = int(opt.get("seeds", 5))
    rows = []
    for n_via in n_list:
        for i in range(seeds):
            problem = planning_problem(opt, bc, limits, weights, None,
                                       base_seed + i, n_via=n_via)
            res = solve(problem, init_sigma_scale=init_sigma(opt))
            rows.append([n_via, res.trajectory.duration, res.iterations])
            if not args.quiet:
                print(f"N={n_via} seed={base_seed + i}: "
                      f"T={res.trajectory.duration:.4f} iters={res.iterations}")
    write_csv(out_dir(args) / "ablate_nvia.csv", ["N", "T_final", "iterations"], rows)
    return 0


CHOL_OPT_KEYS = ({"n_via", "seeds", "pop_size", "max_iterations", "tol",
                  "grid_k", "seed", "init_sigma"}, set())

CHOL_SETUPS = (("sep_chol", "sep", True), ("sep_plain", "sep", False),
               ("full_chol", "full", True), ("full_plain", "full", False))


def cmd_ablate_chol(args) -> int:
    bc, limits, world, weights, opt, base_seed = load_experiment(
        args, "optimizer", CHOL_OPT_KEYS)
    seeds = int(opt.get("seeds", 20))
    rows = []
    for name, mode, use_chol in CHOL_SETUPS:
        for i in range(seeds):
            problem = planning_problem(opt, bc, limits, weights, world,
                                       base_seed + i, n_via=6, max_iterations=150,
                                       mode=mode, use_chol=use_chol)
            try:
                res = solve(problem, init_sigma_scale=init_sigma(opt))
            except InfeasibleError:
                continue
            first_valid = -1 if res.first_valid_iter is None else res.first_valid_iter
            for it, cost in enumerate(res.history_best, start=1):
                rows.append([name, base_seed + i, it, cost, first_valid])
            if not args.quiet:
                print(f"{name} seed={base_seed + i}: first_valid={first_valid} "
                      f"best={res.history_best[-1]:.4f}")
    write_csv(out_dir(args) / "ablate_chol.csv",
              ["setup", "seed", "iteration", "best_cost", "first_valid_iter"],
              rows)
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
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=".")
        p.add_argument("--quiet", action="store_true")
        if name == "mpc":
            p.add_argument("--baseline", choices=["greedy"], default=None)
            p.add_argument("--disturb", nargs="*", default=None)
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

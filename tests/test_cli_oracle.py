"""A validity oracle at the CLI boundary.

Hypothesis draws configs for every command: DoF 1-3, with a world that only
a 2-DoF problem may have (a custom one holds 0-2 disks and 0-2 rectangles,
at robot_radius 0 or 0.02), boundary velocities at rest, inside, on and beyond
qd_max, and in about half the examples one entry replaced by 0, -1, NaN or
an infinity: a velocity, acceleration or position limit, a cost weight, a
tolerance, the ES's initial spread or a closed-loop setting.  A limit, the
initial spread or the plant step may also be 1e-310, 1e-300, 1e300 or
1e307, which gives durations or an ES variance whose float powers overflow
or round to zero, duration lanes that overflow on the way, or more
reference samples per MPC step than the closed loop allows.  In about half
the mpc examples the run also takes `--disturb` at a step from 0 to
max_steps, by a dq whose entries are each finite, NaN or an infinity.

Rare combinations are rows of a table, not draws: derandomized draws
repeat near-identical configs and seldom reach them.  For each command,
`test_every_edge_value_at_every_target` runs one valid base config with
each edge value at each target.  It also runs that base config and its
3-DoF twin in no world, each with and without its position limits, with
each boundary velocity of +-1e-160 or +-1e160, whose square underflows or
overflows a float, in the last DoF of qd0 or of qdT, against the base
limits and against all 16 (qd_max, qdd_max) pairs of the four values above
(544 rows; the 272 on the 2-DoF mpc base run once more with a finite
`--disturb` at step 0), and with a 1e160 boundary velocity inside a 1e300
qd_max; every number in these rows is finite and every limit positive, so
none of them may exit 2.  For the same reason
`test_custom_world_oracle` also runs plan and mpc in custom worlds drawn
anew from one seed each, with no edge value.

Every run must end in one of two ways:

- exit 2 with `config error: ` and no traceback, which every NaN and every
  infinity outside the position limits, and in a dq, must give, and so must
  an initial spread whose square is not a finite positive float, a
  plant_dt below dt_mpc / 100,000 and a disturbance past max_steps; or
- exit 0 or 1, with an exit code that agrees with the rows, and every valid
  plan's `trajectory_<seed>.csv` passing a check that shares no code with the
  planner: it starts at q0, ends at qT, and stays within the velocity,
  acceleration and position limits plus 1e-9 and out of every obstacle at
  all of its 101 samples.

The plan configs use grid_k 100 or 200, whose phase grids hold the CSV's 101
phases: the planner validates a plan at its grid points only, and between
them a plan can exceed qd_max by about 0.1% (ROADMAP item 4).  The mpc and
ablation commands write no plan, so for them the oracle checks the exit code
and the rows.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viaplan.cli import main
from viaplan.mpc import MAX_STEPS
from viaplan.worlds import bundled_cluttered_world, single_obstacle_world

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)

SLACK = 1e-9
EDGES = (0.0, -1.0, math.nan, math.inf, -math.inf)
EXTREMES = (1e-310, 1e-300, 1e300, 1e307)
# Boundary velocities whose squares overflow or underflow a float.
FAR_VELOCITIES = (1e-160, -1e-160, 1e160, -1e160)
MAX_REFERENCE_SAMPLES = 100_000   # dt_mpc / plant_dt of one MPC step
# Entries that may be infinite: an unbounded position range.
UNBOUNDED_OK = {("problem", "q_min"), ("problem", "q_max")}

PROBLEM_TARGETS = [("problem", key) for key in ("qd_max", "qdd_max", "q_min", "q_max")]
COST_TARGETS = [("costs", key) for key in ("duration", "smooth", "collision",
                                           "invalid_penalty")]
OPTIMIZER_TARGETS = [("optimizer", "tol"), ("optimizer", "init_sigma")]
TARGETS = {
    "plan": PROBLEM_TARGETS + COST_TARGETS + OPTIMIZER_TARGETS,
    "ablate-nvia": PROBLEM_TARGETS + COST_TARGETS + OPTIMIZER_TARGETS,
    "ablate-chol": PROBLEM_TARGETS + COST_TARGETS + OPTIMIZER_TARGETS,
    "mpc": PROBLEM_TARGETS + COST_TARGETS + [
        ("mpc", key) for key in ("dt_mpc", "t_stop", "alpha", "goal_tol", "vel_tol",
                                 "plant_dt")],
}
# The targets that also take EXTREMES.
EXTREME_TARGETS = set(PROBLEM_TARGETS) | {("optimizer", "init_sigma"),
                                          ("mpc", "plant_dt")}
WORLD_TYPES = ("none", "cluttered2d", "single_obstacle", "custom")


@st.composite
def problems(draw):
    """(problem section, world section) with boundary velocities at rest,
    inside, on or beyond qd_max, and a world of any type for any DoF."""
    dof = draw(st.integers(1, 3))
    position = st.floats(0.15, 0.85)
    qd_max = draw(st.floats(0.2, 1.0))
    speed = st.sampled_from([0.0, 0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 1.5])
    problem = {"q0": [draw(position) for _ in range(dof)],
               "qT": [draw(position) for _ in range(dof)],
               "qd0": [draw(speed) * qd_max for _ in range(dof)],
               "qdT": [draw(speed) * qd_max for _ in range(dof)],
               "qd_max": qd_max, "qdd_max": draw(st.floats(0.5, 4.0))}
    if draw(st.booleans()):
        problem.update(q_min=0.0, q_max=1.0)
    world = {"type": draw(st.sampled_from(WORLD_TYPES if dof == 2 else
                                          ("none", "none", "none", "cluttered2d")))}
    if world["type"] == "custom":
        disks = [[draw(position), draw(position), draw(st.floats(0.0, 0.2))]
                 for _ in range(draw(st.integers(0, 2)))]
        rects = []
        for _ in range(draw(st.integers(0, 2))):
            x, y = draw(position), draw(position)
            side = st.floats(0.01, 0.3)
            rects.append([x, y, x + draw(side), y + draw(side)])
        world.update(disks=disks, rects=rects,
                     robot_radius=draw(st.sampled_from([0.0, 0.02])))
    return problem, world


def corrupt(cfg: dict, target, value) -> None:
    """Put value at target, in one DoF's entry of a per-DoF key."""
    section, key = target
    sec = cfg.setdefault(section, {})
    dof = len(cfg["problem"]["q0"])
    if section == "problem" and dof > 1:
        given_value = sec.get(key, {"q_min": 0.0, "q_max": 1.0}.get(key, 0.0))
        entries = [given_value] * dof
        entries[-1] = value
        sec[key] = entries
    else:
        sec[key] = value


def values_at(target) -> tuple:
    """The edge values, and the extremes where target takes them."""
    return EDGES + EXTREMES if target in EXTREME_TARGETS else EDGES


def must_reject(cfg: dict, disturb=None) -> bool:
    """Whether cfg holds a NaN, or an infinity where none is meaningful, or
    an initial spread whose square is not a finite positive float, or a
    plant_dt that gives one MPC step more than MAX_REFERENCE_SAMPLES, or
    whether disturb's (step, dq) has a step past the episode's max_steps
    (MAX_STEPS when cfg sets none) or a dq entry that is not finite.  The ES
    variance is (init_sigma / scale)**2 with a scale between about 0.06 and
    1, so it is a finite positive float at every value drawn here exactly
    when init_sigma**2 is."""
    if disturb is not None:
        step, dq = disturb
        if (step >= cfg["mpc"].get("max_steps", MAX_STEPS)
                or not all(map(math.isfinite, dq))):
            return True
    sigma = cfg.get("optimizer", {}).get("init_sigma")
    if sigma is not None and not 0.0 < sigma * sigma < math.inf:
        return True
    mpc = cfg.get("mpc", {})
    dt_mpc, plant_dt = mpc.get("dt_mpc", 0.08), mpc.get("plant_dt", 1e-3)
    if 0.0 < plant_dt <= dt_mpc < math.inf and dt_mpc / plant_dt > MAX_REFERENCE_SAMPLES:
        return True
    for section, values in cfg.items():
        for key, value in values.items():
            numbers = value if isinstance(value, list) else [value]
            for x in numbers:
                if isinstance(x, float) and (math.isnan(x) or (
                        math.isinf(x) and (section, key) not in UNBOUNDED_OK)):
                    return True
    return False


@st.composite
def configs(draw, command):
    problem, world = draw(problems())
    tol = st.sampled_from([0.0, 1e-6, 1e-3])
    cfg = {"problem": problem,
           "costs": {"smooth": draw(st.sampled_from([0.0, 0.02, 1.0]))}}
    if command != "ablate-nvia":
        cfg["world"] = world
    if command == "plan":
        cfg["optimizer"] = {"n_via": draw(st.integers(1, 3)),
                            "pop_size": draw(st.integers(4, 8)),
                            "max_iterations": draw(st.integers(1, 8)),
                            "runs": draw(st.integers(1, 2)),
                            "grid_k": draw(st.sampled_from([100, 200])),
                            "tol": draw(tol), "seed": draw(st.integers(0, 3))}
    elif command == "ablate-nvia":
        cfg["optimizer"] = {"n_list": draw(st.lists(st.integers(1, 3), min_size=1,
                                                    max_size=2)),
                            "seeds": 1, "pop_size": draw(st.integers(4, 8)),
                            "max_iterations": draw(st.integers(1, 3)),
                            "tol": draw(tol), "seed": draw(st.integers(0, 3))}
    elif command == "ablate-chol":
        cfg["optimizer"] = {"n_via": draw(st.integers(1, 3)), "seeds": 1,
                            "pop_size": draw(st.integers(4, 8)),
                            "max_iterations": draw(st.integers(1, 3)),
                            "grid_k": 20, "tol": draw(tol),
                            "seed": draw(st.integers(0, 3))}
    else:
        cfg["mpc"] = {"n_max": draw(st.integers(1, 2)),
                      "pop_size": draw(st.integers(4, 8)),
                      "grid_k": draw(st.integers(10, 20)),
                      "iterations_per_step": draw(st.integers(1, 2)),
                      "max_steps": draw(st.integers(1, 3)),
                      "goal_tol": draw(st.sampled_from([1e-3, 0.05])),
                      "seed": draw(st.integers(0, 3))}
        if draw(st.booleans()):
            cfg["mpc"]["plant"] = "lag"
    target = draw(st.none() | st.sampled_from(TARGETS[command]))
    if target is not None:
        corrupt(cfg, target, draw(st.sampled_from(values_at(target))))
    return cfg


@st.composite
def mpc_runs(draw):
    """(mpc config, disturbance): None, or (step, dq) with a step from 0 to
    max_steps, the last one past the episode, and one dq entry per DoF, each
    finite, NaN or an infinity."""
    cfg = draw(configs("mpc"))
    if draw(st.booleans()):
        return cfg, None
    entry = st.sampled_from([0.05, -0.05, 0.0, math.nan, math.inf, -math.inf])
    return cfg, (draw(st.integers(0, cfg["mpc"]["max_steps"])),
                 [draw(entry) for _ in cfg["problem"]["q0"]])


def read_rows(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def per_dof(value, dof):
    return np.broadcast_to(np.asarray(value, dtype=float), (dof,))


def collides(world: dict, q: np.ndarray) -> np.ndarray:
    """Per-row collision of 2-D positions q, written out from the geometry."""
    kind = world.get("type", "none")
    if kind == "none":
        return np.zeros(len(q), dtype=bool)
    if kind == "custom":
        disks, rects = world.get("disks", []), world.get("rects", [])
        rr, lo, hi = world.get("robot_radius", 0.0), np.zeros(2), np.ones(2)
    else:
        bundled = (bundled_cluttered_world() if kind == "cluttered2d"
                   else single_obstacle_world())
        disks, rects, rr = bundled.disks, bundled.rects, bundled.robot_radius
        lo, hi = bundled.bounds_lo, bundled.bounds_hi
    hit = np.any((q - rr < lo) | (q + rr > hi), axis=1)
    for x, y, radius in disks:
        hit |= np.hypot(q[:, 0] - x, q[:, 1] - y) < radius + rr
    for x_lo, y_lo, x_hi, y_hi in rects:
        corner_lo, corner_hi = np.array([x_lo, y_lo]), np.array([x_hi, y_hi])
        gap = np.maximum(np.maximum(corner_lo - q, q - corner_hi), 0.0)
        inside = np.all((q > corner_lo) & (q < corner_hi), axis=1)
        hit |= inside if rr == 0.0 else np.hypot(*gap.T) < rr
    return hit


def check_trajectory(path: Path, cfg: dict, duration: float) -> None:
    """The independent check of one valid plan's trajectory CSV."""
    problem = cfg["problem"]
    dof = len(problem["q0"])
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert data.shape == (101, 1 + 3 * dof)
    t, q, qd, qdd = data[:, 0], *np.split(data[:, 1:], 3, axis=1)
    assert t[0] == 0.0 and np.all(np.diff(t) >= 0.0)
    assert abs(t[-1] - duration) <= SLACK * max(1.0, duration)
    assert np.all(np.abs(q[0] - problem["q0"]) <= SLACK)
    assert np.all(np.abs(q[-1] - problem["qT"]) <= SLACK)
    assert np.all(np.abs(qd) <= per_dof(problem["qd_max"], dof) + SLACK)
    assert np.all(np.abs(qdd) <= per_dof(problem["qdd_max"], dof) + SLACK)
    if "q_min" in problem:
        assert np.all(q >= per_dof(problem["q_min"], dof) - SLACK)
        assert np.all(q <= per_dof(problem["q_max"], dof) + SLACK)
    if dof == 2:
        assert not collides(cfg.get("world", {}), q).any()


def check_run(command: str, cfg: dict, disturb=None) -> int:
    """Run the CLI on cfg, with disturb's (step, dq) as --disturb unless it
    is None, in a fresh directory, check what it wrote and return the exit
    code."""
    args = []
    if disturb is not None:
        step, dq = disturb
        args = ["--disturb", f"step={step}", f"dq=({','.join(map(str, dq))})"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        path = out / "config.json"
        path.write_text(json.dumps(cfg))   # NaN and Infinity as JSON's extensions
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, str(path), "--out-dir", str(out), "--quiet", *args])
        check_outputs(command, cfg, code, err.getvalue(), out, disturb)
    return code


def check_outputs(command: str, cfg: dict, code: int, err: str, out: Path,
                  disturb=None) -> None:
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("config error: "), err
        return
    assert not must_reject(cfg, disturb), f"exit {code} on {json.dumps(cfg)}, {disturb}"
    assert code in (0, 1), (code, err)
    if command == "plan":
        rows = read_rows(out / "plan_runs.csv")
        assert len(rows) == cfg["optimizer"].get("runs", 1)
        valid = [row for row in rows if row["valid"] == "true"]
        for row in valid:
            check_trajectory(out / f"trajectory_{row['seed']}.csv", cfg, float(row["T"]))
        assert code == (0 if valid else 1)
    elif command == "mpc":
        summary, = read_rows(out / "summary.csv")
        assert len(read_rows(out / "episode.csv")) == int(summary["steps"])
        reached = summary["goal_reached"] == "true"
        assert code == (0 if reached else 1)
        if reached:
            assert float(summary["final_distance"]) < cfg["mpc"]["goal_tol"]
    else:
        name, column = (("ablate_nvia.csv", "T_final") if command == "ablate-nvia"
                        else ("ablate_chol.csv", "best_cost"))
        values = np.array([float(row[column]) for row in read_rows(out / name)])
        assert values.size and np.all(np.isnan(values) | (values >= 0.0))
        assert code == (1 if np.isnan(values).all() else 0)


@SETTINGS
@given(configs("plan"))
def test_plan_oracle(cfg):
    check_run("plan", cfg)


@SETTINGS
@given(mpc_runs())
def test_mpc_oracle(run):
    check_run("mpc", *run)


def custom_world_config(command: str, seed: int) -> dict:
    """A plan or mpc config of a 2-DoF problem, at rest or with boundary
    velocities within qd_max, in a custom world of 0-2 disks and 0-2
    rectangles at robot_radius 0 or 0.02, all drawn from one seed."""
    rng = np.random.default_rng(seed)
    qd_max = rng.uniform(0.2, 1.0)
    problem = {"q0": rng.uniform(0.05, 0.95, 2).tolist(),
               "qT": rng.uniform(0.05, 0.95, 2).tolist(),
               "qd0": (rng.choice([0.0, 0.0, 0.5, -0.5], 2) * qd_max).tolist(),
               "qdT": (rng.choice([0.0, 0.0, 0.5, -0.5], 2) * qd_max).tolist(),
               "qd_max": qd_max, "qdd_max": rng.uniform(0.5, 4.0)}
    if rng.integers(2):
        problem.update(q_min=0.0, q_max=1.0)
    disks = rng.uniform(0.0, 1.0, (rng.integers(3), 3)) * [1.0, 1.0, 0.2]
    corners = rng.uniform(0.0, 0.9, (rng.integers(3), 2))
    sides = rng.uniform(0.01, 0.3, corners.shape)
    world = {"type": "custom", "disks": disks.tolist(),
             "rects": np.hstack([corners, corners + sides]).tolist(),
             "robot_radius": float(rng.choice([0.0, 0.02]))}
    cfg = {"problem": problem, "costs": {}, "world": world}
    if command == "plan":
        cfg["optimizer"] = {"n_via": int(rng.integers(1, 4)), "pop_size": 8,
                            "max_iterations": int(rng.integers(1, 30)),
                            "runs": int(rng.integers(1, 3)),
                            "grid_k": int(rng.choice([100, 200])),
                            "seed": int(rng.integers(4))}
    else:
        cfg["mpc"] = {"n_max": int(rng.integers(1, 3)), "pop_size": 8,
                      "grid_k": int(rng.integers(10, 21)),
                      "iterations_per_step": int(rng.integers(1, 5)),
                      "max_steps": int(rng.integers(1, 6)), "goal_tol": 0.05,
                      "seed": int(rng.integers(4))}
    return cfg


@SETTINGS
@given(st.sampled_from(["plan", "mpc"]), st.integers(0, 2**32 - 1))
def test_custom_world_oracle(command, seed):
    # The draws of `configs` repeat near-identical custom worlds, and hardly
    # one of them with a rectangle gives a valid plan; here one seed draws
    # each world anew.
    check_run(command, custom_world_config(command, seed))


@SETTINGS
@given(configs("ablate-nvia"))
def test_ablate_nvia_oracle(cfg):
    check_run("ablate-nvia", cfg)


@SETTINGS
@given(configs("ablate-chol"))
def test_ablate_chol_oracle(cfg):
    check_run("ablate-chol", cfg)


# One valid config per command, for the test of every edge value at every
# target.
BASE = {
    "plan": {"problem": {"q0": [0.1, 0.5], "qT": [0.3, 0.5], "qd_max": 0.5,
                         "qdd_max": 2.0, "q_min": 0.0, "q_max": 1.0},
             "costs": {}, "world": {"type": "cluttered2d"},
             "optimizer": {"n_via": 1, "pop_size": 4, "max_iterations": 2,
                           "grid_k": 100}},
    "ablate-nvia": {"problem": {"q0": [0.0], "qT": [1.0], "qd_max": 0.1,
                                "qdd_max": 0.2, "q_min": -1.0, "q_max": 2.0},
                    "costs": {},
                    "optimizer": {"n_list": [1], "seeds": 1, "pop_size": 4,
                                  "max_iterations": 2}},
    "ablate-chol": {"problem": {"q0": [0.0], "qT": [1.0], "qd_max": 0.1,
                                "qdd_max": 0.2, "q_min": -1.0, "q_max": 2.0},
                    "costs": {},
                    "optimizer": {"n_via": 1, "seeds": 1, "pop_size": 4,
                                  "max_iterations": 2, "grid_k": 20}},
    "mpc": {"problem": {"q0": [0.85, 0.5], "qT": [0.9, 0.5], "qd_max": 0.5,
                        "qdd_max": 2.0, "q_min": 0.0, "q_max": 1.0},
            "costs": {}, "world": {"type": "cluttered2d"},
            "mpc": {"n_max": 1, "pop_size": 4, "grid_k": 20,
                    "iterations_per_step": 1, "max_steps": 3, "plant": "lag"}},
}


# A boundary velocity within qd_max whose d^2 overflows: a plan used to be
# valid at T = 1.7e-300 s with infinite accelerations.
OVERFLOWING_PROBLEM = {"q0": [0.0], "qT": [1.0], "qd0": [1e160], "qdT": [0.0],
                       "qd_max": 1e300, "qdd_max": 1.0}
# The base limits, then every (qd_max, qdd_max) pair of EXTREMES.
LIMIT_PAIRS = [{}] + [{"qd_max": v, "qdd_max": a} for v in EXTREMES for a in EXTREMES]
# A finite disturbance at the first step, which every far row of the 2-DoF
# mpc base also runs with.
FIRST_STEP_DISTURBANCE = (0, [0.01, 0.0])


def three_dof(cfg: dict) -> dict:
    """cfg with q0 and qT repeated to three DoF, and no world."""
    cfg = copy.deepcopy(cfg)
    for key in ("q0", "qT"):
        cfg["problem"][key] = (cfg["problem"][key] * 3)[:3]
    if "world" in cfg:
        cfg["world"] = {"type": "none"}
    return cfg


def edge_rows(command: str):
    """BASE[command] with each edge value at each target."""
    for target in TARGETS[command]:
        for value in values_at(target):
            cfg = copy.deepcopy(BASE[command])
            corrupt(cfg, target, value)
            yield cfg


def far_rows(command: str):
    """(cfg, disturb) rows: BASE[command] and its three_dof twin, each with
    and without its position limits, with each far boundary velocity in the
    last DoF of qd0 or qdT at each of LIMIT_PAIRS, undisturbed, and for mpc
    the rows of BASE["mpc"] also with FIRST_STEP_DISTURBANCE; then
    BASE[command] with OVERFLOWING_PROBLEM in no world."""
    bases = []
    for bounded in (BASE[command], three_dof(BASE[command])):
        unbounded = copy.deepcopy(bounded)
        del unbounded["problem"]["q_min"], unbounded["problem"]["q_max"]
        bases += [bounded, unbounded]
    for base in bases:
        dof = len(base["problem"]["q0"])
        disturbs = ((None, FIRST_STEP_DISTURBANCE) if command == "mpc" and dof == 2
                    else (None,))
        for key in ("qd0", "qdT"):
            for velocity in FAR_VELOCITIES:
                for limits in LIMIT_PAIRS:
                    cfg = copy.deepcopy(base)
                    cfg["problem"][key] = [0.0] * (dof - 1) + [velocity]
                    cfg["problem"].update(limits)
                    for disturb in disturbs:
                        yield cfg, disturb
    cfg = copy.deepcopy(BASE[command])
    cfg["problem"] = dict(OVERFLOWING_PROBLEM)
    if "world" in cfg:
        cfg["world"] = {"type": "none"}
    yield cfg, None


@pytest.mark.parametrize("command", sorted(BASE))
def test_every_edge_value_at_every_target(command):
    for cfg in edge_rows(command):
        check_run(command, cfg)
    # Every entry of a far row is finite and every limit positive, so each
    # one must reach the planner rather than fail as a config error.
    for cfg, disturb in far_rows(command):
        assert check_run(command, cfg, disturb) != 2, (json.dumps(cfg), disturb)

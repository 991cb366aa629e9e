"""CLI config validation, artifact layout, exit codes and determinism."""

import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import viaplan
from viaplan import cli
from viaplan.cli import COSTS_KEYS, ConfigError, load_config, main, parse_disturb
from viaplan.timing import BoundaryLanes, InfeasibleError


def write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


PLAN_1D = {
    "problem": {"q0": [0.0], "qT": [1.0], "qd_max": 0.1, "qdd_max": 0.2},
    "optimizer": {"n_via": 2, "pop_size": 8, "runs": 2, "max_iterations": 40,
                  "seed": 0},
    "costs": {},
    "world": {"type": "none"},
}

MPC_FREE = {
    "problem": {"q0": [0.1, 0.1], "qT": [0.9, 0.9], "qd_max": 0.5,
                "qdd_max": 2.0, "q_min": 0.0, "q_max": 1.0},
    "costs": {},
    "world": {"type": "none"},
    "mpc": {"iterations_per_step": 6, "max_steps": 80, "pop_size": 16, "seed": 0},
}

# The optimizer keys that both ablations accept.
ABLATE_1D = {
    "problem": PLAN_1D["problem"],
    "optimizer": {"seeds": 1, "pop_size": 8, "max_iterations": 3, "seed": 0},
    "costs": {},
}


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = {"problem": PLAN_1D["problem"], "optimizer": {"n_via": 2, "bogus": 1},
           "costs": {}, "world": {}}
    code = main(["plan", write_config(tmp_path / "c.json", cfg),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "optimizer.bogus" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path, capsys):
    cfg = dict(PLAN_1D, extra={})
    code = main(["plan", write_config(tmp_path / "c.json", cfg),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "extra" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    cfg = {"problem": {"q0": [0.0], "qT": [1.0], "qd_max": 0.1}, "optimizer":
           {"n_via": 2}, "costs": {}, "world": {}}
    code = main(["plan", write_config(tmp_path / "c.json", cfg),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "problem.qdd_max" in capsys.readouterr().err


def with_value(base, section, keys, value):
    """A copy of base with value at each of the space-separated keys."""
    cfg = copy.deepcopy(base)
    cfg[section].update(dict.fromkeys(keys.split(), value))
    return cfg


@pytest.mark.parametrize("command, section, key, value, says", [
    ("plan", "problem", "qd_max", -0.1, "velocity bounds must straddle zero"),
    ("plan", "problem", "q_min", 0.0, "q_min and q_max must be given together"),
    ("plan", "problem", "qdd_max", [0.2, 0.2], "one value per DoF"),
    ("plan", "costs", "smooth", -1, "cost weights"),
    ("plan", "optimizer", "mode", "diag", "unknown key 'optimizer.mode'"),
    ("plan", "optimizer", "grid_k", 1, "K >= 2"),
    ("plan", "world", "type", "cluttered2d", "2-DoF"),
    ("mpc", "mpc", "dt_mpc", 0, "dt_mpc"),
    ("mpc", "mpc", "plant", "lagged", "mpc.plant"),
    ("mpc", "world", "disks", [[0.5, 0.5]], "world.disks"),
    ("plan", "problem", "q0 qT", [], "at least one DoF"),
    ("mpc", "world", "bounds_lo", [0.0], "bounds_lo and bounds_hi"),
    ("mpc", "world", "bounds_hi", 0.0, "bounds_lo and bounds_hi"),
    ("mpc", "world", "disks", [[0.5, 0.5, -0.1]], "disk radius"),
    ("mpc", "world", "rects", [[0.62, 0.34, 0.55, 0.66]], "lower corner"),
    ("plan", "optimizer", "seed", -3, "seed must be non-negative"),
    ("mpc", "mpc", "seed", -1, "seed must be non-negative"),
    ("ablate-nvia", "optimizer", "seed", -1, "seed must be non-negative"),
    ("plan", "costs", "push", 10, "costs.push"),
    ("plan", "costs", "invalid_penalty", -1, "invalid_penalty"),
    ("plan", "costs", "invalid_penalty", 0, "invalid_penalty"),
    ("mpc", "mpc", "goal_tol", 0, "goal_tol"),
    # The lag plant runs at LagPlant's default time constant; the config has
    # no key for it, whatever its value.
    ("mpc", "mpc", "lag_time_constant", -0.05, "lag_time_constant"),
    ("plan", "optimizer", "use_chol", False, "unknown key 'optimizer.use_chol'"),
    ("mpc", "mpc", "explore_sigma", 0.5, "unknown key 'mpc.explore_sigma'"),
    ("mpc", "mpc", "warmstart_sigma", 0.05, "unknown key 'mpc.warmstart_sigma'"),
    ("mpc", "mpc", "lag_time_constant", 0.05, "unknown key 'mpc.lag_time_constant'"),
    ("ablate-chol", "optimizer", "seed", -1, "seed must be non-negative"),
    # The ES's initial spread is finite and positive, and every count is at
    # least 1; each is rejected before any run starts.
    ("plan", "optimizer", "init_sigma", 0, "optimizer.init_sigma"),
    ("plan", "optimizer", "init_sigma", -0.4, "optimizer.init_sigma"),
    ("plan", "optimizer", "init_sigma", float("inf"), "optimizer.init_sigma"),
    ("plan", "optimizer", "runs", 0, "optimizer.runs"),
    ("ablate-nvia", "optimizer", "seeds", 0, "optimizer.seeds"),
    ("ablate-nvia", "optimizer", "n_list", [], "optimizer.n_list"),
    ("ablate-chol", "optimizer", "seeds", 0, "optimizer.seeds"),
    ("mpc", "mpc", "max_steps", 0, "mpc.max_steps"),
    ("mpc", "mpc", "max_steps", -5, "mpc.max_steps"),
    # JSON's NaN and Infinity, and inverted bounds: a NaN robot radius would
    # turn collision checking off, a NaN disk center or bound would drop that
    # obstacle or bound, inverted bounds would make every point collide, and a
    # NaN t_stop would turn the direct gate off.
    ("mpc", "world", "robot_radius", float("nan"), "robot_radius"),
    ("mpc", "world", "robot_radius", float("inf"), "robot_radius"),
    ("mpc", "world", "disks", [[float("nan"), 0.5, 0.2]], "disk center"),
    ("mpc", "world", "bounds_lo", [float("nan"), 0.0], "bounds_lo"),
    ("mpc", "world", "bounds_hi", [1.0, float("nan")], "bounds_lo"),
    ("mpc", "world", "bounds_lo", [1.5, 0.0], "bounds_lo below bounds_hi"),
    ("mpc", "mpc", "dt_mpc", float("nan"), "dt_mpc"),
    ("mpc", "mpc", "t_stop", float("nan"), "t_stop"),
    ("mpc", "mpc", "alpha", float("nan"), "alpha"),
    ("mpc", "mpc", "alpha", float("inf"), "alpha"),
    # A NaN or negative tol would never pass the stall test, an infinite one
    # always.
    *((command, "optimizer", "tol", value, "tol must be finite and non-negative")
      for command in ("plan", "ablate-nvia", "ablate-chol")
      for value in (float("nan"), -1e-6, float("inf"))),
    # An infinite limit, for every DoF or for one, would give a T=0 plan;
    # KinodynamicLimits rejects it.
    *((command, "problem", key, value, "velocity and acceleration bounds must be finite")
      for command, key, value in (("plan", "qd_max", float("inf")),
                                  ("plan", "qdd_max", float("inf")),
                                  ("mpc", "qd_max", [0.5, float("inf")]),
                                  ("mpc", "qdd_max", [float("inf"), 2.0]))),
    # An infinite goal_tol or vel_tol would end the episode at step 0 with the
    # goal "reached"; a lag time constant is no key at all.
    ("mpc", "mpc", "goal_tol", float("inf"), "goal_tol"),
    ("mpc", "mpc", "vel_tol", float("inf"), "vel_tol"),
    ("mpc", "mpc", "lag_time_constant", float("inf"), "lag_time_constant"),
    # A finite initial spread whose ES variance overflows or rounds to zero,
    # and an infinite rect corner (JSON reads -1e400 as -inf).
    ("plan", "optimizer", "init_sigma", 1e300, "ES variance"),
    ("ablate-nvia", "optimizer", "init_sigma", 1e200, "ES variance"),
    ("ablate-chol", "optimizer", "init_sigma", 1e-300, "ES variance"),
    ("mpc", "world", "rects", [[0.4, float("-inf"), 0.6, 0.3]],
     "rect corners must be finite"),
    # A plant_dt that gives one step more reference samples than the cap.
    ("mpc", "mpc", "plant_dt", 1e-300, "dt_mpc / plant_dt"),
    ("mpc", "mpc", "plant_dt", 1e-7, "dt_mpc / plant_dt"),
    # An obstacle or bound key beside any world type but "custom", given or
    # absent, would be silently ignored.
    *(("mpc", "world", "type", kind, "key 'world.robot_radius' needs world.type \"custom\"")
      for kind in ("cluttered2d", "single_obstacle", "none", None)),
    # A misspelled type is named before the keys it would have to take.
    ("mpc", "world", "type", "custum", "unknown key 'world.type'"),
])
def test_invalid_config_values_exit_two(tmp_path, capsys, command, section, key,
                                        value, says):
    # The mpc runs use the lag plant, and a custom world with one key that
    # only a custom world takes.
    base = {"plan": PLAN_1D, "ablate-nvia": ABLATE_1D,
            "ablate-chol": ABLATE_1D}.get(command) or dict(
        MPC_FREE, world={"type": "custom", "robot_radius": 0.02},
        mpc=dict(MPC_FREE["mpc"], plant="lag"))
    cfg = with_value(base, section, key, value)
    code = main([command, write_config(tmp_path / "c.json", cfg),
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and says in err


@pytest.mark.parametrize("section, key, value", [
    ("world", "type", False), ("world", "type", ["none"]),
    ("optimizer", "pop_size", 8.9), ("optimizer", "runs", True),
    ("optimizer", "n_via", "2"), ("optimizer", "seed", 0.0),
    ("optimizer", "tol", "1e-6"), ("world", "type", 1),
    ("costs", "smooth", "0.1"), ("problem", "qd_max", "0.1"),
    ("problem", "q0", [True]),
])
def test_config_types_are_strict(tmp_path, capsys, section, key, value):
    cfg = with_value(PLAN_1D, section, key, value)
    code = main(["plan", write_config(tmp_path / "c.json", cfg),
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert f"'{section}.{key}'" in capsys.readouterr().err


def test_float_keys_take_integers_and_null_is_the_default(tmp_path):
    # 1 and 1.0 are the same float; a null optimizer key keeps its default.
    loose = copy.deepcopy(PLAN_1D)
    loose["costs"] = {"duration": 1, "jla": 1}
    loose["optimizer"].update(tol=0, runs=None)
    strict = copy.deepcopy(PLAN_1D)
    strict["costs"] = {"duration": 1.0, "jla": 1.0}
    strict["optimizer"].update(tol=0.0, runs=1)
    blobs = []
    for name, cfg in (("loose", loose), ("strict", strict)):
        out = tmp_path / name
        assert main(["plan", write_config(tmp_path / f"{name}.json", cfg),
                     "--out-dir", str(out), "--quiet"]) == 0
        blobs.append((out / "plan_runs.csv").read_bytes())
    assert blobs[0] == blobs[1]


def plan_csvs(tmp_path, name, cfg):
    """The bytes of every CSV that `plan` writes for cfg."""
    out = tmp_path / name
    assert main(["plan", write_config(tmp_path / f"{name}.json", cfg),
                 "--out-dir", str(out), "--quiet"]) == 0
    return {path.name: path.read_bytes() for path in out.glob("*.csv")}


def test_null_keeps_the_default_in_every_section(tmp_path, capsys):
    nulls = copy.deepcopy(PLAN_1D)
    nulls["costs"]["smooth"] = None
    nulls["world"]["type"] = None
    nulls["problem"].update(qd0=None, q_min=None, q_max=None)
    nulls["optimizer"]["tol"] = None
    assert plan_csvs(tmp_path, "nulls", nulls) == plan_csvs(tmp_path, "omitted", PLAN_1D)
    # A null required key is a missing one.
    cfg = with_value(PLAN_1D, "problem", "qdd_max", None)
    assert main(["plan", write_config(tmp_path / "c.json", cfg),
                 "--out-dir", str(tmp_path / "o"), "--quiet"]) == 2
    assert "missing key 'problem.qdd_max'" in capsys.readouterr().err


def test_load_config_returns_float_keys_as_floats(tmp_path):
    path = write_config(tmp_path / "c.json", {"costs": {"smooth": 1, "jla": None}})
    costs = load_config(path, {"costs": COSTS_KEYS})["costs"]
    assert costs == {"smooth": 1.0} and type(costs["smooth"]) is float


def test_scalar_boundary_is_one_dof(tmp_path):
    # q0 and qT are per-DoF keys like the limits: a number is one DoF.
    scalar = with_value(with_value(PLAN_1D, "problem", "q0", 0.0), "problem", "qT", 1.0)
    assert plan_csvs(tmp_path, "scalar", scalar) == plan_csvs(tmp_path, "list", PLAN_1D)


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["plan", str(path), "--out-dir", str(tmp_path)]) == 2


def test_plan_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(["plan", write_config(tmp_path / "c.json", PLAN_1D),
                 "--out-dir", str(out), "--quiet"])
    assert code == 0
    runs = (out / "plan_runs.csv").read_text().splitlines()
    assert runs[0] == "seed,final_cost,T,valid,iterations"
    assert len(runs) == 3
    traj = (out / "trajectory_0.csv").read_text().splitlines()
    assert traj[0] == "t,q0,qd0,qdd0"
    assert len(traj) == 102
    t_final = float(runs[1].split(",")[2])
    assert t_final >= 10.5


def test_plan_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["plan", write_config(tmp_path / "c.json", PLAN_1D),
                     "--out-dir", str(out), "--quiet"]) == 0
        outs.append((out / "plan_runs.csv").read_bytes())
    assert outs[0] == outs[1]


def test_plan_exit_one_when_nothing_valid(tmp_path):
    cfg = {
        "problem": {"q0": [0.1, 0.5], "qT": [0.9, 0.5], "qd_max": 0.5,
                    "qdd_max": 2.0},
        "optimizer": {"n_via": 2, "pop_size": 8, "runs": 1, "max_iterations": 3,
                      "seed": 0},
        "costs": {},
        # The goal sits inside the obstacle, so no run can become valid.
        "world": {"type": "custom", "disks": [[0.9, 0.5, 0.2]]},
    }
    assert main(["plan", write_config(tmp_path / "c.json", cfg),
                 "--out-dir", str(tmp_path / "o"), "--quiet"]) == 1


def test_mpc_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(["mpc", write_config(tmp_path / "c.json", MPC_FREE),
                 "--out-dir", str(out), "--quiet"])
    assert code == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "goal_reached,steps,final_distance"
    assert summary[1].startswith("true")
    episode = (out / "episode.csv").read_text().splitlines()
    assert episode[0] == ("step,t,q0,q1,qd0,qd1,mode,step_cost,step_ms,valid")


def test_mpc_determinism(tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["mpc", write_config(tmp_path / "c.json", MPC_FREE),
                     "--out-dir", str(out), "--quiet"]) == 0
        blobs.append((out / "episode.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_mpc_disturb_flag(tmp_path):
    out = tmp_path / "out"
    code = main(["mpc", write_config(tmp_path / "c.json", MPC_FREE),
                 "--out-dir", str(out), "--quiet",
                 "--disturb", "step=5", "dq=(0.05,-0.1)"])
    assert code == 0
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("true")


def test_parse_disturb():
    d = parse_disturb(["step=40", "dq=(0.3,0)"], 41)
    assert list(d.keys()) == [40]
    np.testing.assert_allclose(d[40], [0.3, 0.0])
    with pytest.raises(ConfigError):
        parse_disturb(["step=40"], 41)
    with pytest.raises(ConfigError):
        parse_disturb(["when=40", "dq=(0.3,0)"], 41)


@pytest.mark.parametrize("tokens", [
    # A second disturbance used to replace the first without a word.
    ["step=5", "dq=(0.1,0)", "step=10", "dq=(0.2,0)"],
    ["step=5", "dq=(0.1,0)", "dq=(0.2,0)"],
    # A negative step used to be accepted and never fire.
    ["step=-3", "dq=(0.1,0)"],
    # A non-finite dq used to end in a traceback from BoundaryConditions.
    ["step=1", "dq=(nan,0)"],
    ["step=1", "dq=(0,inf)"],
    ["step=1", "dq=(-inf,0)"],
    # So was a step at or past max_steps (80 here).
    ["step=80", "dq=(0.2,0)"],
    ["step=500", "dq=(0.2,0)"],
    # A bare --disturb used to run the undisturbed episode.
    [],
])
def test_disturb_rejects_repeated_keys_and_negative_steps(tmp_path, capsys, tokens):
    with pytest.raises(ConfigError):
        parse_disturb(tokens, MPC_FREE["mpc"]["max_steps"])
    code = main(["mpc", write_config(tmp_path / "c.json", MPC_FREE),
                 "--out-dir", str(tmp_path / "o"), "--quiet", "--disturb", *tokens])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: --disturb")


def test_second_disturb_flag_exits_two(tmp_path, capsys):
    # A second --disturb used to replace the first without a word.
    code = main(["mpc", write_config(tmp_path / "c.json", MPC_FREE),
                 "--out-dir", str(tmp_path / "o"), "--quiet",
                 "--disturb", "step=5", "dq=(0.05,-0.1)",
                 "--disturb", "step=10", "dq=(0.1,0)"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: --disturb")


@pytest.mark.parametrize("command", ["plan", "mpc", "ablate-nvia", "ablate-chol"])
def test_seed_comes_from_the_config_alone(tmp_path, capsys, command):
    # The seed is optimizer.seed or mpc.seed; there is no flag to override it.
    cfg = {"plan": PLAN_1D, "mpc": MPC_FREE}.get(command, ABLATE_1D)
    assert main([command, write_config(tmp_path / "c.json", cfg),
                 "--out-dir", str(tmp_path / "o"), "--quiet", "--seed", "3"]) == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "mpc", "ablate-nvia", "ablate-chol"])
@pytest.mark.parametrize("below", [False, True])
def test_unusable_out_dir_exits_two_before_any_solve(tmp_path, capsys, monkeypatch,
                                                     command, below):
    # An --out-dir that is a file, or a path below one, used to surface only
    # when the first CSV was written, after the whole experiment: mpc died
    # with FileExistsError, plan with NotADirectoryError at exit 1.
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the output directory was made")

    monkeypatch.setattr(cli, "solve", no_run)
    monkeypatch.setattr(cli, "run_closed_loop", no_run)
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if below else taken
    cfg = {"plan": PLAN_1D, "mpc": MPC_FREE}.get(command, ABLATE_1D)
    assert main([command, write_config(tmp_path / "c.json", cfg),
                 "--out-dir", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: --out-dir {out}: ")
    assert taken.read_text() == ""


def test_ablate_nvia_artifacts(tmp_path):
    cfg = {
        "problem": {"q0": [0.0], "qT": [1.0], "qd_max": 0.1, "qdd_max": 0.2},
        "optimizer": {"n_list": [1, 2], "seeds": 2, "pop_size": 8,
                      "max_iterations": 30, "seed": 0},
        "costs": {},
    }
    out = tmp_path / "out"
    assert main(["ablate-nvia", write_config(tmp_path / "c.json", cfg),
                 "--out-dir", str(out), "--quiet"]) == 0
    lines = (out / "ablate_nvia.csv").read_text().splitlines()
    assert lines[0] == "N,T_final,iterations"
    assert len(lines) == 5


def assert_nan_rows(tmp_path, capsys, command, cfg, lines, says):
    """command on cfg exits 1 with says on stderr, writing only its CSV of lines."""
    out = tmp_path / "out"
    assert main([command, write_config(tmp_path / "c.json", cfg),
                 "--out-dir", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert says in err and "Traceback" not in err
    csv, = out.iterdir()
    assert csv.read_text().splitlines() == lines


def test_plan_infeasible_run_is_a_nan_row(tmp_path, capsys):
    # The start velocity exceeds qd_max, so no candidate has a duration.
    cfg = with_value(PLAN_1D, "problem", "qd0", [0.5])
    cfg["optimizer"].update(runs=1, max_iterations=3)
    assert_nan_rows(tmp_path, capsys, "plan", cfg, [
        "seed,final_cost,T,valid,iterations", "0,nan,nan,false,3"], "no valid run")


def test_plan_whose_duration_overflows_is_a_nan_row(tmp_path, capsys):
    # At qd_max 1e-310 every candidate's 1/x overflows: synthesize used to
    # return T = inf, which priced as a NaN total that was still valid.
    cfg = with_value(PLAN_1D, "problem", "qd_max", 1e-310)
    cfg["optimizer"].update(runs=1, max_iterations=3)
    assert_nan_rows(tmp_path, capsys, "plan", cfg, [
        "seed,final_cost,T,valid,iterations", "0,nan,nan,false,3"], "no valid run")


def bundled(name, **problem):
    """The bundled config name with problem's entries."""
    cfg = json.loads((Path(__file__).parents[1] / "configs" / name).read_text())
    cfg["problem"].update(problem)
    return cfg


def test_plan_with_overflowing_acceleration_lanes_keeps_its_limits(tmp_path, capsys):
    # At qdd_max 1e307, c * 4 qdd_max overflows on every acceleration lane,
    # which the closed form cannot represent, so no candidate has a
    # duration and no plan beyond qdd_max is reported valid.  Those lanes
    # were once dropped, for a valid plan of T = 6.5e-154 s with
    # accelerations 2.8 times qdd_max; a scaled second pass then timed it at
    # 1.46e-153 s, a pass that no real plan needs.
    cfg = bundled("cluttered2d.json", qd_max=1e300, qdd_max=1e307)
    cfg["optimizer"].update(runs=1, max_iterations=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_nan_rows(tmp_path, capsys, "plan", cfg, [
            "seed,final_cost,T,valid,iterations", "0,nan,nan,false,5"], "no valid run")


def test_plan_with_a_huge_boundary_velocity_is_a_nan_row(tmp_path, capsys):
    # qd0 1e160 is within qd_max 1e300, but its d^2 overflows, so the
    # boundary is beyond the closed form's float range.  The plan used to
    # come out valid at T = 1.68e-300 s, with qdd0 = inf in its trajectory
    # and a RuntimeWarning from Trajectory.evaluate.
    cfg = bundled("timeopt1d.json", qd_max=1e300, qd0=[1e160])
    cfg["optimizer"].update(runs=1, max_iterations=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_nan_rows(tmp_path, capsys, "plan", cfg, [
            "seed,final_cost,T,valid,iterations", "0,nan,nan,false,5"], "no valid run")


def test_bundled_runs_stay_inside_the_closed_form(tmp_path, monkeypatch):
    # The refusal of what the closed form cannot represent costs no real
    # plan: short runs of the bundled configs build only boundaries on which
    # 4r is finite and sqrt(d^2) == |d|, and no candidate's discriminant
    # c 4r + d^2 overflows.
    seen = {"boundaries": 0, "candidates": 0}
    from_splits, duration = BoundaryLanes.from_splits.__func__, BoundaryLanes.duration

    def spy_from_splits(cls, b, d, limits):
        r = np.array([limits.qdd_max, limits.qdd_min])
        assert np.isfinite(4.0 * r).all() and (np.sqrt(d * d) == np.abs(d)).all()
        seen["boundaries"] += 1
        return from_splits(cls, b, d, limits)

    def spy_duration(lanes, a, c):
        with np.errstate(over="raise"):
            np.multiply(c, lanes.r4) + lanes.d2
        seen["candidates"] += 1
        return duration(lanes, a, c)

    monkeypatch.setattr(BoundaryLanes, "from_splits", classmethod(spy_from_splits))
    monkeypatch.setattr(BoundaryLanes, "duration", spy_duration)
    for command, name, section, values in [
            ("plan", "cluttered2d.json", "optimizer", {"runs": 2, "max_iterations": 60}),
            ("plan", "timeopt1d.json", "optimizer", {"runs": 2, "max_iterations": 60}),
            ("mpc", "mpc2d.json", "mpc", {"iterations_per_step": 4})]:
        cfg = bundled(name)
        cfg[section].update(values)
        assert main([command, write_config(tmp_path / name, cfg),
                     "--out-dir", str(tmp_path / name[:-5]), "--quiet"]) == 0
    assert seen["boundaries"] > 20 and seen["candidates"] > 5000, seen


def test_ablate_nvia_infeasible_runs_are_nan_rows(tmp_path, capsys):
    cfg = with_value(ABLATE_1D, "problem", "qd0", [0.5])
    cfg["optimizer"]["n_list"] = [1, 2]
    assert_nan_rows(tmp_path, capsys, "ablate-nvia", cfg, [
        "N,T_final,iterations", "1,nan,3", "2,nan,3"], "no feasible run")


def test_ablate_chol_infeasible_runs_are_nan_rows(tmp_path, capsys):
    cfg = with_value(ABLATE_1D, "problem", "qd0", [0.5])
    assert_nan_rows(tmp_path, capsys, "ablate-chol", cfg, [
        "setup,seed,iteration,best_cost,first_valid_iter",
        "sep_chol,0,3,nan,-1", "sep_plain,0,3,nan,-1",
        "full_chol,0,3,nan,-1", "full_plain,0,3,nan,-1"], "no feasible run")


def test_ablate_chol_section_overrides_its_setups(tmp_path, monkeypatch):
    # Each of the four setups solves one problem per seed from the section's
    # seed on, with 6 via-points and 150 iterations unless the section sets
    # them.
    solved = []

    def spy(problem, init_sigma_scale=None):
        solved.append(problem)
        raise InfeasibleError("spy")

    monkeypatch.setattr(cli, "solve", spy)
    setups = [(mode, use_chol) for mode in ("sep", "full") for use_chol in (True, False)]
    for overrides, n_via, max_iterations in (({}, 6, 150),
                                             ({"n_via": 2, "max_iterations": 7}, 2, 7)):
        solved.clear()
        cfg = copy.deepcopy(ABLATE_1D)
        del cfg["optimizer"]["max_iterations"]
        cfg["optimizer"].update(seeds=3, seed=4, **overrides)
        assert main(["ablate-chol", write_config(tmp_path / "c.json", cfg),
                     "--out-dir", str(tmp_path / "o"), "--quiet"]) == 1
        assert [(p.mode, p.use_chol, p.seed) for p in solved] == [
            (mode, use_chol, seed) for mode, use_chol in setups for seed in (4, 5, 6)]
        assert {(p.n_via, p.max_iterations, p.pop_size) for p in solved} == {
            (n_via, max_iterations, 8)}


def test_ablate_chol_artifacts(tmp_path):
    cfg = {
        "problem": {"q0": [0.1, 0.5], "qT": [0.9, 0.5], "qd_max": 0.5,
                    "qdd_max": 2.0, "q_min": 0.0, "q_max": 1.0},
        "optimizer": {"n_via": 3, "seeds": 2, "pop_size": 8,
                      "max_iterations": 10, "init_sigma": 0.4, "seed": 0},
        "costs": {},
        "world": {"type": "single_obstacle"},
    }
    out = tmp_path / "out"
    assert main(["ablate-chol", write_config(tmp_path / "c.json", cfg),
                 "--out-dir", str(out), "--quiet"]) == 0
    lines = (out / "ablate_chol.csv").read_text().splitlines()
    assert lines[0] == "setup,seed,iteration,best_cost,first_valid_iter"
    setups = {line.split(",")[0] for line in lines[1:]}
    assert setups == {"sep_chol", "sep_plain", "full_chol", "full_plain"}


def test_bad_subcommand_exits_two():
    assert main(["frobnicate", "x.json"]) == 2


def test_import_loads_no_scipy():
    # scipy is a test dependency only: a fresh interpreter importing the
    # package and its CLI must not load any part of it.
    src = str(Path(viaplan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, viaplan, viaplan.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"

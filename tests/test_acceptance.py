"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line so the suite output doubles as a
machine-checkable report.  The heavier experiment sweeps are shared through
module-scoped fixtures.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from viaplan.cli import main as cli_main
from viaplan.mpc import MpcConfig, greedy_step, run_closed_loop
from viaplan.optimizer import EvolutionStrategy, build_prior
from viaplan.planner import PlanningProblem, solve
from viaplan.spline import BoundaryConditions, build_basis
from viaplan.timing import (KinodynamicLimits, PhaseGrid, Trajectory, boundary_half,
                            synthesize)
from viaplan.worlds import ablation_world_1d

import conftest
from test_spline import qp_reference


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def bang_bang_sweep():
    """Median duration per via count on the 1D benchmark, 10 seeds each."""
    bc, limits, t_ref = ablation_world_1d()
    durations = {}
    for n_via in (1, 2, 4, 8, 16):
        runs = []
        for seed in range(10):
            problem = PlanningProblem(bc, limits, n_via=n_via, pop_size=24,
                                      seed=seed, max_iterations=350)
            runs.append(solve(problem).trajectory.duration)
        durations[n_via] = runs
    return durations, t_ref


@pytest.fixture(scope="module")
def iteration_sweep():
    """Median iterations-to-convergence for N = 1..16, 5 seeds each."""
    bc, limits, _ = ablation_world_1d()
    iters = {}
    for n_via in range(1, 17):
        runs = []
        for seed in range(5):
            problem = PlanningProblem(bc, limits, n_via=n_via, pop_size=16,
                                      seed=seed, max_iterations=500)
            runs.append(solve(problem).iterations)
        iters[n_via] = float(np.median(runs))
    return iters


@pytest.fixture(scope="module")
def offline_2d_runs():
    """100 seeded offline runs on the bundled cluttered world."""
    world, q0, qT = conftest.bundled_world()
    bc = BoundaryConditions(q0, np.zeros(2), qT, np.zeros(2))
    limits = KinodynamicLimits.symmetric(0.5, 2.0, 2, q_range=(0.0, 1.0))
    results = []
    for seed in range(100):
        problem = PlanningProblem(bc, limits, n_via=6, pop_size=32, seed=seed,
                                  checker=world, max_iterations=500)
        res = solve(problem, init_sigma_scale=0.4)
        traj = res.trajectory if res.report.valid else res.best_trajectory
        valid = res.report.valid or res.best_report.valid
        results.append((valid, traj))
    return results, limits


def test_criterion_1_bang_bang_bound(bang_bang_sweep):
    durations, t_ref = bang_bang_sweep
    all_above = all(t >= t_ref - 1e-9 for runs in durations.values() for t in runs)
    medians = [float(np.median(durations[n])) for n in (1, 2, 4, 8, 16)]
    non_increasing = all(a >= b - 1e-9 for a, b in zip(medians, medians[1:]))
    tail_ok = medians[-1] <= 11.5
    report(1, all_above and non_increasing and tail_ok,
           f"medians={[round(m, 3) for m in medians]}, bound {t_ref}")


def test_criterion_2_linear_iteration_scaling(iteration_sweep):
    n = np.array(sorted(iteration_sweep))
    y = np.array([iteration_sweep[k] for k in n])
    slope, intercept = np.polyfit(n, y, 1)
    fit = slope * n + intercept
    r2 = 1.0 - np.sum((y - fit)**2) / np.sum((y - np.mean(y))**2)
    report(2, r2 >= 0.8, f"R^2={r2:.3f}, slope={slope:.1f} iterations per via-point")


def test_criterion_3_offline_success_rate(offline_2d_runs):
    results, _ = offline_2d_runs
    n_valid = sum(v for v, _ in results)
    ref = np.array([0.585, 0.5])  # inside the trap's back wall
    classes = set()
    for valid, traj in results:
        if valid:
            path = traj.evaluate(np.linspace(0.0, 1.0, 200))
            classes.add(conftest.path_winding(path, ref))
    report(3, n_valid >= 95 and len(classes) >= 2,
           f"valid={n_valid}/100, homotopy classes={sorted(classes)}")


def test_criterion_4_limit_exploitation(offline_2d_runs):
    results, limits = offline_2d_runs
    grid = PhaseGrid(50)

    def check(traj, lim):
        _, qd, qdd = traj.sample_grid(grid)
        ok_adm = (np.all(qd <= lim.qd_max + 1e-9) and np.all(qd >= lim.qd_min - 1e-9)
                  and np.all(qdd <= lim.qdd_max + 1e-9)
                  and np.all(qdd >= lim.qdd_min - 1e-9))
        margins = np.concatenate([
            np.abs(qd / lim.qd_max - 1.0).ravel(),
            np.abs(qd / lim.qd_min - 1.0).ravel(),
            np.abs(qdd / lim.qdd_max - 1.0).ravel(),
            np.abs(qdd / lim.qdd_min - 1.0).ravel()])
        return ok_adm and np.min(margins) < 1e-6

    saturated = sum(check(traj, limits) for _, traj in results)

    rng = np.random.default_rng(0)
    random_ok = 0
    n_random = 1000
    for _ in range(n_random):
        n_via, dof = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        lim = KinodynamicLimits.symmetric(float(rng.uniform(0.2, 1.0)),
                                          float(rng.uniform(0.5, 4.0)), dof)
        bc = BoundaryConditions(rng.standard_normal(dof),
                                rng.uniform(-0.5, 0.5, dof) * lim.qd_max,
                                rng.standard_normal(dof),
                                rng.uniform(-0.5, 0.5, dof) * lim.qd_max)
        traj = synthesize(boundary_half(build_basis(n_via, dof), bc, lim, grid),
                          rng.standard_normal((n_via, dof)))
        random_ok += traj.degenerate or check(traj, lim)
    report(4, saturated == len(results) and random_ok == n_random,
           f"2D runs saturating={saturated}/{len(results)}, "
           f"random instances ok={random_ok}/{n_random}")


def test_criterion_5_spline_qp_oracle():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n_via = int(rng.choice([1, 3, 4]))
        q0, m0, qT, mT = rng.standard_normal(4)
        q_via = rng.standard_normal(n_via)
        bc = BoundaryConditions([q0], [m0], [qT], [mT])
        y_ref = qp_reference(n_via, q0, m0, qT, mT, q_via)
        s = np.linspace(0.0, 1.0, y_ref.shape[0])
        q = Trajectory(build_basis(n_via, 1), q_via[:, None], bc, 1.0).evaluate(s)[:, 0]
        worst = max(worst, float(np.max(np.abs(q - y_ref))))

    import sympy as sp
    s_sym, v = sp.symbols("s v")
    h = sp.Rational(1, 2)
    energy = sp.Integer(0)
    for j, (y0, y1, s0) in enumerate(((0, v, 0), (v, 0, h))):
        tau = (s_sym - s0) / h
        p = y0 * (1 - 3 * tau**2 + 2 * tau**3) + y1 * (3 * tau**2 - 2 * tau**3)
        energy += sp.integrate(sp.diff(p, s_sym, 2)**2, (s_sym, s0, s0 + h))
    gram_sym = float(sp.simplify(energy / v**2))
    gram_err = abs(build_basis(1, 1).gram[0, 0] - gram_sym)
    report(5, worst < 1e-3 and gram_err < 1e-8,
           f"max QP deviation={worst:.2e}, |G - {gram_sym:g}|={gram_err:.2e}")


def test_criterion_6_mpc_vs_greedy():
    world, q0, qT = conftest.bundled_world()
    limits = KinodynamicLimits.symmetric(0.5, 2.0, 2, q_range=(0.0, 1.0))
    mpc_ok = greedy_ok = 0
    overshoots = []
    for seed in range(10):
        config = MpcConfig(seed=1000 * seed)
        log = run_closed_loop(q0, np.zeros(2), qT, np.zeros(2), limits, config,
                              checker=world, max_steps=150)
        mpc_ok += log.goal_reached
        for row in log.rows:
            if row["iterations"] > 0:
                per_gen = row["step_seconds"] / row["iterations"]
                overshoots.append(row["step_seconds"] - config.dt_mpc - per_gen)
        greedy = run_closed_loop(q0, np.zeros(2), qT, np.zeros(2), limits,
                                 config, checker=world, max_steps=150,
                                 step=greedy_step)
        greedy_ok += greedy.goal_reached
    # The budget is checked between generations, so a step may run over by at
    # most one generation.  Typical overshoot must be small; the worst case is
    # allowed extra slack for scheduler or GC pauses on a loaded machine.
    typical = float(np.percentile(overshoots, 95))
    worst = float(np.max(overshoots))
    budget_ok = typical <= 0.02 and worst <= 0.5 * MpcConfig().dt_mpc
    report(6, mpc_ok >= 9 and greedy_ok <= 2 and budget_ok,
           f"mpc={mpc_ok}/10, greedy={greedy_ok}/10, "
           f"p95 budget overshoot={typical * 1e3:.1f} ms, "
           f"worst={worst * 1e3:.1f} ms")


def test_criterion_7_cholesky_ablation():
    world, q0, qT = conftest.bundled_world("ablate_chol.json")
    bc = BoundaryConditions(q0, [0.0, 0.0], qT, [0.0, 0.0])
    limits = KinodynamicLimits.symmetric(0.5, 2.0, 2, q_range=(0.0, 1.0))
    first_valid = {}
    finals = {}
    for name, mode, use_chol in (("sep_chol", "sep", True),
                                 ("sep_plain", "sep", False),
                                 ("full_chol", "full", True),
                                 ("full_plain", "full", False)):
        fv, fc = [], []
        for seed in range(20):
            problem = PlanningProblem(bc, limits, n_via=6, pop_size=16,
                                      seed=seed, checker=world, mode=mode,
                                      use_chol=use_chol, max_iterations=100)
            res = solve(problem, init_sigma_scale=0.4)
            fv.append(res.first_valid_iter if res.first_valid_iter else 101)
            fc.append(res.best_report.total)
        first_valid[name] = float(np.median(fv))
        finals[name] = fc
    with_l_ok = (first_valid["sep_chol"] <= 5 and first_valid["full_chol"] <= 5
                 and first_valid["sep_chol"] < first_valid["sep_plain"]
                 and first_valid["full_chol"] < first_valid["full_plain"])
    p = mannwhitneyu(finals["sep_chol"], finals["full_chol"]).pvalue
    report(7, with_l_ok and p > 0.05,
           f"median first-valid={first_valid}, sep-vs-full p={p:.3f}")


def test_criterion_8_smoothness_prior_sampling():
    rng = np.random.default_rng(21)
    basis = build_basis(4, 2)
    bc = BoundaryConditions(*rng.standard_normal((4, 2)))
    chol, _ = build_prior(basis)
    sigma_diag = rng.uniform(0.5, 2.0, 8)
    step = 0.7
    es = EvolutionStrategy(conftest.conditioned_mean(basis, bc), sigma_diag,
                           pop_size=100_000, transform=chol,
                           seed=0)
    es.step_size = step
    samples = es.sample()
    empirical = np.cov(samples.T)
    theory = step**2 * chol @ np.diag(sigma_diag) @ chol.T
    rel = np.linalg.norm(empirical - theory) / np.linalg.norm(theory)
    report(8, rel < 0.05, f"relative Frobenius error={rel:.4f}")


def test_criterion_9_command_determinism(tmp_path):
    plan_cfg = {
        "problem": {"q0": [0.0], "qT": [1.0], "qd_max": 0.1, "qdd_max": 0.2},
        "optimizer": {"n_via": 3, "pop_size": 8, "runs": 2,
                      "max_iterations": 40, "seed": 0},
        "costs": {},
    }
    mpc_cfg = {
        "problem": {"q0": [0.1, 0.5], "qT": [0.9, 0.5], "qd_max": 0.5,
                    "qdd_max": 2.0, "q_min": 0.0, "q_max": 1.0},
        "costs": {}, "world": conftest.bundled_config("mpc2d.json")["world"],
        "mpc": {"iterations_per_step": 6, "max_steps": 60, "pop_size": 16,
                "seed": 0},
    }
    nvia_cfg = {
        "problem": plan_cfg["problem"],
        "optimizer": {"n_list": [1, 2], "seeds": 2, "pop_size": 8,
                      "max_iterations": 30, "seed": 0},
        "costs": {},
    }
    chol_cfg = {
        "problem": mpc_cfg["problem"],
        "optimizer": {"n_via": 3, "seeds": 2, "pop_size": 8,
                      "max_iterations": 10, "init_sigma": 0.4, "seed": 0},
        "costs": {}, "world": conftest.bundled_config("ablate_chol.json")["world"],
    }
    jobs = (("plan", plan_cfg, "plan_runs.csv"),
            ("mpc", mpc_cfg, "episode.csv"),
            ("ablate-nvia", nvia_cfg, "ablate_nvia.csv"),
            ("ablate-chol", chol_cfg, "ablate_chol.csv"))
    mismatches = []
    for command, cfg, artifact in jobs:
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{command}-{rep}"
            code = cli_main([command, str(cfg_path), "--out-dir", str(out),
                             "--quiet"])
            assert code == 0, f"{command} exited {code}"
            blobs.append((out / artifact).read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(command)
    report(9, not mismatches,
           "all commands byte-identical" if not mismatches
           else f"non-deterministic: {mismatches}")

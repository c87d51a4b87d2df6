"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line per
criterion.  The statistical gates (criteria 2 and 3) use frozen seeds, so
the whole suite is deterministic.
"""

import json

import numpy as np
import pytest

from aoi_offload.chain import (
    age_threshold_policy,
    evaluate_exact,
    local_only_policy,
    service_threshold_policy,
)
from aoi_offload.cli import lambda_grid, main
from aoi_offload.core import ModelParams
from aoi_offload.heuristics import local_only, service_moments, service_threshold_eval
from aoi_offload.mdp import (
    brute_force_best_threshold,
    discounted_vi,
    rvi_solve,
    sweep_lambdas,
    verify_structure,
)
from aoi_offload.sim import SimConfig, simulate

SEED_BASE = 1234
FIG_MU = 0.01
FIG_A_MAX = 400


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


@pytest.fixture(scope="module")
def fig_lambdas():
    return lambda_grid(0.01, 50.0, 25)


@pytest.fixture(scope="module")
def fig_sweep(fig_lambdas):
    """Optimal-policy solves across the price grid at the slow local rate."""
    return sweep_lambdas(FIG_MU, fig_lambdas, FIG_A_MAX)


@pytest.fixture(scope="module")
def fig_heuristics():
    """Heuristic frontier points at the slow local rate."""
    points = []
    params = ModelParams(mu=FIG_MU, a_max=FIG_A_MAX)
    for a_star in range(1, 16):
        res = evaluate_exact(age_threshold_policy(a_star, FIG_A_MAX), params)
        points.append(("age_threshold", a_star, res))
    for z_star in range(10):
        points.append(("service_threshold", z_star, service_threshold_eval(FIG_MU, z_star)))
    return points


def test_criterion_01_mec_only_exact(capsys):
    code = main(["eval", "--family", "mec_only"])
    out = capsys.readouterr().out
    point = json.loads(out)
    ok = code == 0 and point["delta"] == 1.5 and point["p_bar"] == 1.0
    report(1, "edge-only evaluation is exact (1.5, 1)", ok)
    assert ok


def test_criterion_02_local_only_formula():
    failures = []
    for i, mu in enumerate((0.3, 0.5, 0.7, 1.0)):
        closed = local_only(mu)
        res = simulate(local_only_policy(), ModelParams(mu=mu, a_max=50),
                       SimConfig(horizon=10_000_000, seed=SEED_BASE + i))
        if mu == 1.0:
            good = res.delta_hat == 1.5 and closed.delta == 1.5
        else:
            good = abs(res.delta_hat - closed.delta) <= 3 * res.stderr_delta
        good = good and res.p_bar_hat == 0.0
        if not good:
            failures.append((mu, closed.delta, res.delta_hat, res.stderr_delta))
    report(2, "local-only age formula matches simulation", not failures,
           "mu in {0.3, 0.5, 0.7, 1.0}, 1e7 slots")
    assert not failures, failures


def test_criterion_03_service_threshold_three_way():
    failures = []
    for i, mu in enumerate((0.3, 0.5, 0.7)):
        params = ModelParams(mu=mu, a_max=50)
        for z_star in range(10):
            closed = service_threshold_eval(mu, z_star)
            chain_res = evaluate_exact(service_threshold_policy(z_star), params)
            rel_delta = abs(chain_res.delta - closed.delta) / closed.delta
            rel_p = abs(chain_res.p_bar - closed.p_bar) / max(closed.p_bar, 1e-300)
            if rel_delta > 1e-8 or rel_p > 1e-8:
                failures.append(("chain", mu, z_star, rel_delta, rel_p))
            sim_res = simulate(service_threshold_policy(z_star), params,
                               SimConfig(horizon=2_000_000, seed=SEED_BASE + 100 * i + z_star))
            if abs(sim_res.delta_hat - closed.delta) > max(3 * sim_res.stderr_delta, 1e-9):
                failures.append(("sim-delta", mu, z_star, sim_res.delta_hat, closed.delta))
            if abs(sim_res.p_bar_hat - closed.p_bar) > max(3 * sim_res.stderr_p, 1e-9):
                failures.append(("sim-p", mu, z_star, sim_res.p_bar_hat, closed.p_bar))
    report(3, "service-threshold closed form, chain and simulation agree", not failures,
           "mu in {0.3, 0.5, 0.7} x z* in 0..9")
    assert not failures, failures


def test_criterion_04_moment_formulas_vs_enumeration():
    failures = []
    for mu in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        mubar = 1.0 - mu
        for z_star in range(7):
            e_s = e_s2 = e_y = 0.0
            for j in range(1, z_star + 1):
                w = mu * mubar ** (j - 1)
                e_s += j * w
                e_s2 += j * j * w
                e_y += j * w
            tail = mubar**z_star
            e_s += (z_star + 1) * tail
            e_s2 += (z_star + 1) ** 2 * tail
            e_y += tail
            m = service_moments(mu, z_star)
            if max(abs(m.e_s - e_s), abs(m.e_s2 - e_s2), abs(m.e_y - e_y)) > 1e-12:
                failures.append((mu, z_star, m, (e_s, e_s2, e_y)))
    report(4, "service moments match direct enumeration to 1e-12", not failures)
    assert not failures, failures


def test_criterion_05_reported_threshold_example():
    params = ModelParams(mu=0.5, lam=3.0, a_max=50)
    solved = rvi_solve(params)
    got = (solved.full_thresholds[1], solved.full_thresholds[2])
    ok = got == (4, 3)
    report(5, "reference thresholds (a1, a2) = (4, 3) at mu=0.5, price 3", ok,
           f"solver returns {got} with average cost {solved.g:.9f}")
    assert ok, (
        f"solver thresholds {solved.full_thresholds[:3]} (average cost {solved.g:.9f}) "
        f"disagree with the reference values (4, 3). The exhaustive threshold-table "
        f"search confirms the solver: the best table offloads at age 3 in service "
        f"columns 1 and 2 (cost 93/34 = {93/34:.9f}), while a table with thresholds "
        f"(4, 3) costs 77/28 = {77/28:.9f}, strictly worse. The reference values "
        f"correspond to the on-path optimum at a price near 3.5-4, not 3."
    )


def test_criterion_06_structural_suite():
    failures = []
    for mu in (0.1, 0.5, 0.9):
        for lam in (0.5, 3.0, 20.0):
            params = ModelParams(mu=mu, lam=lam, beta=0.99, a_max=50)
            solved = rvi_solve(params)
            iterates = discounted_vi(params, 300)
            sr = verify_structure(iterates, solved.policy)
            if not sr.passed:
                failures.append((mu, lam, [c.name for c in sr.failures()]))
    report(6, "monotonicity, non-negativity and threshold structure hold", not failures,
           "mu in {0.1, 0.5, 0.9} x price in {0.5, 3, 20}, beta=0.99")
    assert not failures, failures


def test_criterion_07_frontier_dominance_and_extremes(fig_sweep, fig_heuristics):
    failures = []
    params = ModelParams(mu=FIG_MU, a_max=FIG_A_MAX)
    for lam, solved in fig_sweep:
        for family, param, res in fig_heuristics:
            if solved.g > res.delta + lam * res.p_bar + 1e-6:
                failures.append((lam, family, param, solved.g, res.delta + lam * res.p_bar))
    age_one = evaluate_exact(age_threshold_policy(1, FIG_A_MAX), params)
    if (age_one.p_bar, age_one.delta) != (1.0, 1.5):
        failures.append(("age_threshold extreme", age_one))
    service_zero = service_threshold_eval(FIG_MU, 0)
    if (service_zero.p_bar, service_zero.delta) != (1.0, 1.5):
        failures.append(("service_threshold extreme", service_zero))
    lam_min, first = fig_sweep[0]
    opt_min = evaluate_exact(first.policy, ModelParams(mu=FIG_MU, lam=lam_min, a_max=FIG_A_MAX))
    if (opt_min.p_bar, opt_min.delta) != (1.0, 1.5):
        failures.append(("optimal extreme", lam_min, opt_min))
    report(7, "optimal policy dominates heuristics on the tradeoff grid", not failures,
           f"mu={FIG_MU}, 25 prices, a*=1..15, z*=0..9; all extremes hit (1, 1.5)")
    assert not failures, failures


def test_criterion_08_oracle_equivalence():
    failures = []
    for mu in (0.3, 0.5, 0.7):
        for lam in (1.0, 3.0, 10.0):
            params = ModelParams(mu=mu, lam=lam, a_max=20)
            solved = rvi_solve(params)
            oracle = brute_force_best_threshold(params, search_bound=12)
            if abs(solved.g - oracle.g) > 1e-6:
                failures.append((mu, lam, solved.g, oracle.g))
    report(8, "iterative solver matches the exhaustive threshold search", not failures,
           "9 parameter points, a_max=20, tolerance 1e-6")
    assert not failures, failures


def test_criterion_09_truncation_stability(fig_sweep):
    failures = []
    g50 = rvi_solve(ModelParams(mu=0.5, lam=3.0, a_max=50)).g
    g100 = rvi_solve(ModelParams(mu=0.5, lam=3.0, a_max=100)).g
    if abs(g100 - g50) >= 1e-4:
        failures.append(("mu=0.5 lam=3", g50, g100))
    for lam, solved in fig_sweep:
        doubled = rvi_solve(ModelParams(mu=FIG_MU, lam=lam, a_max=2 * FIG_A_MAX),
                            start=solved.policy)
        if abs(doubled.g - solved.g) >= 1e-4:
            failures.append((lam, solved.g, doubled.g))
    report(9, "doubling the age ceiling leaves the optimal cost unchanged", not failures,
           "tolerance 1e-4 per price point")
    assert not failures, failures


def test_criterion_10_byte_identical_outputs(tmp_path, capsys):
    frontier_args = [
        "frontier", "--mu", "0.5", "--amax", "50",
        "--astar-range", "1", "5", "--zstar-range", "0", "3",
        "--lambda-min", "0.1", "--lambda-max", "10", "--lambda-count", "5",
    ]
    a, b = tmp_path / "f1.csv", tmp_path / "f2.csv"
    assert main(frontier_args + ["--out", str(a)]) == 0
    assert main(frontier_args + ["--out", str(b)]) == 0
    sim_args = ["simulate", "--family", "age_threshold", "--astar", "4",
                "--mu", "0.3", "--horizon", "500000", "--seed", "424242"]
    c, d = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(sim_args + ["--out", str(c)]) == 0
    assert main(sim_args + ["--out", str(d)]) == 0
    capsys.readouterr()
    ok = a.read_bytes() == b.read_bytes() and c.read_bytes() == d.read_bytes()
    report(10, "repeated runs produce byte-identical files", ok)
    assert ok

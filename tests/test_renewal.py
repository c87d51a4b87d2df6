"""The delivery-age renewal chain against the (a, z) chain and the oracle."""

import numpy as np
import pytest

from aoi_offload.chain import (
    Policy,
    abort_indices,
    age_threshold_policy,
    build_chain,
    evaluate_exact,
    local_only_policy,
    mec_only_policy,
    occurring_ages,
    service_threshold_policy,
    stationary,
    threshold_table_policy,
)
from aoi_offload.core import ModelParams
from aoi_offload.mdp import bellman_residual, brute_force_best_threshold, rvi_solve

A_MAX = 30


def reference(policy, params):
    """(delta, p_bar) from a direct solve of the full (a, z) chain."""
    chain = build_chain(policy, params)
    dist = stationary(chain)
    ages = np.array([s.a for s in chain.states], dtype=float)
    return float(ages @ dist.probs) + 0.5, float(dist.probs[chain.actions == 1].sum())


def random_tables(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(1, 8))
        yield tuple(int(t) for t in np.sort(rng.integers(1, A_MAX + 3, size=size))[::-1])


POLICIES = (
    [local_only_policy(), mec_only_policy(), service_threshold_policy(0),
     service_threshold_policy(3), service_threshold_policy(12)]
    + [age_threshold_policy(a, A_MAX) for a in (1, 2, 5, A_MAX)]
    + [threshold_table_policy(t) for t in random_tables(7, 6)]
    + [Policy(name="diagonal", action_fn=lambda a, z: a + 2 * z >= 9)]
)


@pytest.mark.parametrize("mu", [0.01, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name + str(p.thresholds or ""))
def test_renewal_evaluator_matches_full_chain(mu, policy):
    params = ModelParams(mu=mu, a_max=A_MAX)
    res = evaluate_exact(policy, params)
    delta, p_bar = reference(policy, params)
    assert res.delta == pytest.approx(delta, rel=1e-9)
    # the reference snaps stationary masses below 1e-15 to zero, which can
    # drop a ceiling-offload share of that order
    assert res.p_bar == pytest.approx(p_bar, rel=1e-9, abs=1e-12)


def test_abort_indices_of_a_table_match_its_action_function():
    for table in random_tables(11, 20):
        policy = threshold_table_policy(table)
        wrapped = Policy(name="wrapped", action_fn=policy.action)
        assert np.array_equal(abort_indices(policy, A_MAX), abort_indices(wrapped, A_MAX))


def test_abort_indices_are_capped_by_the_ceiling():
    assert np.array_equal(abort_indices(local_only_policy(), 6), [5, 4, 3, 2, 1, 0])
    assert not abort_indices(mec_only_policy(), 6).any()
    # age threshold 3: offload on reaching age 3, at once from age 3 on
    assert np.array_equal(abort_indices(age_threshold_policy(3, 6), 6), [2, 1, 0, 0, 0, 0])
    # delivered ages stay below the ceiling; edge-only deliveries are all fresh
    assert occurring_ages(abort_indices(local_only_policy(), 6)) == 5
    assert occurring_ages(abort_indices(mec_only_policy(), 6)) == 1
    assert occurring_ages(abort_indices(age_threshold_policy(3, 6), 6)) == 2


def test_unreachable_ages_do_not_change_the_result():
    # both tables keep work one slot from age 1 and offload at once from
    # age 2 or 3; deliveries from age 1 have age 1, so only age 1 occurs
    params = ModelParams(mu=0.4, lam=2.0, a_max=20)
    a = evaluate_exact(threshold_table_policy((3, 1)), params)
    b = evaluate_exact(threshold_table_policy((2, 1)), params)
    assert a == b


@pytest.mark.parametrize("mu, lam", [(0.2, 2.0), (0.45, 5.0), (0.85, 5.0)])
def test_policy_iteration_matches_exhaustive_search(mu, lam):
    params = ModelParams(mu=mu, lam=lam, a_max=20)
    solved = rvi_solve(params)
    oracle = brute_force_best_threshold(params, search_bound=12)
    assert solved.converged
    assert abs(solved.g - oracle.g) <= 1e-9
    a = evaluate_exact(solved.policy, params)
    b = evaluate_exact(oracle.policy, params)
    assert (a.delta, a.p_bar) == pytest.approx((b.delta, b.p_bar), abs=1e-9)


@pytest.mark.parametrize("mu, lam, a_max", [
    (0.01, 0.5, 120), (0.01, 2.0, 120), (0.1, 3.0, 50), (0.5, 3.0, 50),
    (0.9, 10.0, 40), (1.0, 5.0, 50), (0.5, 0.0, 50), (0.5, 1e4, 30),
])
def test_rebuilt_grid_solves_the_optimality_equation(mu, lam, a_max):
    params = ModelParams(mu=mu, lam=lam, a_max=a_max)
    report = rvi_solve(params)
    assert report.converged
    assert bellman_residual(report, params) <= 1e-9
    assert report.span_residual <= 1e-9
    assert report.values.grid[0, 0] == 0.0
    assert abs(evaluate_exact(report.policy, params).g - report.g) <= 1e-9


def test_warm_start_from_the_solution_takes_one_step():
    params = ModelParams(mu=0.3, lam=2.0, a_max=40)
    cold = rvi_solve(params)
    warm = rvi_solve(params, v_init=cold.values.grid)
    assert warm.iterations == 1
    assert warm.full_thresholds == cold.full_thresholds
    assert warm.g == pytest.approx(cold.g, abs=1e-12)


def test_perfect_local_server_edge_case():
    params = ModelParams(mu=1.0, lam=0.0, a_max=20)
    for policy in (local_only_policy(), mec_only_policy(), service_threshold_policy(2)):
        res = evaluate_exact(policy, params)
        assert res.delta == 1.5
    assert evaluate_exact(local_only_policy(), params).p_bar == 0.0
    assert rvi_solve(params).g == pytest.approx(1.5, abs=1e-12)


def test_free_edge_edge_case():
    params = ModelParams(mu=0.05, lam=0.0, a_max=200)
    report = rvi_solve(params)
    assert set(report.full_thresholds) == {1}
    assert report.g == 1.5
    res = evaluate_exact(report.policy, params)
    assert (res.delta, res.p_bar) == (1.5, 1.0)


def test_exorbitant_price_keeps_work_local_up_to_the_ceiling():
    params = ModelParams(mu=0.3, lam=1e4, a_max=25)
    report = rvi_solve(params)
    never = evaluate_exact(local_only_policy(), params)
    assert report.g == pytest.approx(never.g, rel=1e-12)
    assert np.array_equal(abort_indices(report.policy, 25), abort_indices(local_only_policy(), 25))

"""The delivery-age renewal chain against the (a, z) chain and the oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_offload.chain import (
    Policy,
    abort_indices,
    age_threshold_policy,
    build_chain,
    delivery_matrix,
    evaluate_exact,
    local_only_policy,
    mec_only_policy,
    occurring_ages,
    service_threshold_policy,
    stationary,
    threshold_table_policy,
)
from aoi_offload.core import ModelParams
from aoi_offload.mdp import (
    _abort_vectors,
    _table_of,
    _vector_gains,
    bellman_residual,
    brute_force_best_threshold,
    rvi_solve,
)

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


def _canonical_tables(bound):
    """Non-increasing threshold tables with entries in [1, bound], truncated
    at the first saturated column, in descending lexicographic order."""

    def rec(z, cap, prefix):
        for v in range(cap, 0, -1):
            tab = prefix + (v,)
            if v <= z + 1:
                yield tab
            else:
                yield from rec(z + 1, v, tab)

    yield from rec(0, bound, ())


@pytest.mark.parametrize("bound, a_max", [(6, 6), (8, 20), (10, 10), (12, 12), (12, 20), (9, 30)])
def test_abort_vectors_are_those_the_tables_reach(bound, a_max):
    first = {}
    for table in _canonical_tables(bound):
        k = abort_indices(threshold_table_policy(table), a_max)
        first.setdefault(tuple(k[: occurring_ages(k)].tolist()), table)
    vectors = [tuple(row) for k in _abort_vectors(bound) for row in k.tolist()]
    assert len(vectors) == len(set(vectors)) == len(first)
    assert set(vectors) == set(first)
    # the rebuilt table is the first table enumerated with that vector
    assert all(_table_of(k, bound) == first[k] for k in vectors)


def test_batched_delivery_matrix_matches_one_vector_at_a_time():
    k = _abort_vectors(9)[4]
    batched = delivery_matrix(k, 0.35)
    assert batched.shape == (len(k), 5, 5)
    for kk, mat in zip(k, batched):
        assert np.array_equal(mat, delivery_matrix(kk, 0.35))


@pytest.mark.parametrize("mu, lam", [(0.5, 3.0), (0.15, 11.0)])
def test_oracle_gains_match_exact_evaluation(mu, lam):
    params = ModelParams(mu=mu, lam=lam, a_max=20)
    exact = {}
    for group in _abort_vectors(8):
        for k, g in zip(map(tuple, group.tolist()), _vector_gains(group, params)):
            exact[k] = evaluate_exact(threshold_table_policy(_table_of(k, 8)), params).g
            assert g == pytest.approx(exact[k], rel=1e-12)
    assert len(exact) == 34
    # the reported table is the first enumerated one whose vector is cheapest
    least = min(exact.values())
    for table in _canonical_tables(8):
        k = abort_indices(threshold_table_policy(table), params.a_max)
        if exact[tuple(k[: occurring_ages(k)].tolist())] == least:
            break
    assert brute_force_best_threshold(params, search_bound=8).full_thresholds == table


@pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("lam", [1.0, 3.0, 10.0])
def test_full_class_oracle_matches_policy_iteration(mu, lam):
    params = ModelParams(mu=mu, lam=lam, a_max=20)
    oracle = brute_force_best_threshold(params, search_bound=20, max_candidates=10**7)
    assert oracle.iterations == 10946
    assert abs(rvi_solve(params).g - oracle.g) <= 1e-6


@settings(max_examples=50, deadline=None)
@given(mu=st.floats(0.05, 1.0), lam=st.floats(0.0, 20.0))
def test_policy_iteration_matches_bound_12_oracle(mu, lam):
    params = ModelParams(mu=mu, lam=lam, a_max=20)
    solved = rvi_solve(params)
    oracle = brute_force_best_threshold(params, search_bound=12)
    assert solved.g <= oracle.g + 1e-9
    k = abort_indices(solved.policy, params.a_max)
    r = occurring_ages(k)
    # the oracle's class holds every vector that reaches no age above the bound
    if (np.arange(1, r + 1) + k[:r]).max() <= 12:
        assert oracle.g == pytest.approx(solved.g, rel=1e-9)

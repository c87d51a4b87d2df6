"""The delivery-age renewal chain against the (a, z) chain and the oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from aoi_offload.chain import (
    NEVER_OFFLOAD,
    abort_indices,
    abort_rule,
    age_threshold_policy,
    build_chain,
    cycle_table,
    delivery_system,
    delivery_values,
    evaluate_exact,
    local_only_policy,
    mec_only_policy,
    occurring_ages,
    service_threshold_policy,
    stationary,
    threshold_table_policy,
)
from aoi_offload.core import ModelParams
from aoi_offload.heuristics import service_moments, service_threshold_eval
from aoi_offload.mdp import (
    _abort_vectors,
    _rebuild_grid,
    _table_of,
    brute_force_best_threshold,
    discounted_vi,
    rvi_solve,
    verify_structure,
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
    # the rule a + 2z >= 9, written as its table
    + [pytest.param(threshold_table_policy((9, 7, 5, 3, 1), name="diagonal"), id="diagonal")]
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


def test_abort_indices_are_capped_by_the_ceiling():
    assert np.array_equal(abort_indices(local_only_policy(), 6), [5, 4, 3, 2, 1, 0])
    assert not abort_indices(mec_only_policy(), 6).any()
    # age threshold 3: offload on reaching age 3, at once from age 3 on
    assert np.array_equal(abort_indices(age_threshold_policy(3, 6), 6), [2, 1, 0, 0, 0, 0])
    # delivered ages stay below the ceiling; edge-only deliveries are all fresh
    assert occurring_ages(abort_indices(local_only_policy(), 6)) == 5
    assert occurring_ages(abort_indices(mec_only_policy(), 6)) == 1
    assert occurring_ages(abort_indices(age_threshold_policy(3, 6), 6)) == 2


def test_abort_rule_is_uncapped_and_only_abort_indices_apply_the_ceiling():
    ages = np.array([1, 5])
    assert np.array_equal(abort_rule(local_only_policy())(ages), NEVER_OFFLOAD - ages)
    d = np.arange(1, 21)
    for table in ((40, 3, 30, 2), (9, 7, 5, 3, 1), (25,)):
        policy = threshold_table_policy(table)
        assert np.array_equal(abort_indices(policy, 20), np.minimum(abort_rule(policy)(d), 20 - d))


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
    assert report.bellman_residual <= 1e-9
    assert report.span_residual <= 1e-9
    assert _rebuild_grid(report.g, report.h, params)[0, 0] == 0.0
    assert abs(evaluate_exact(report.policy, params).g - report.g) <= 1e-9


def test_warm_start_from_the_solution_takes_one_step():
    params = ModelParams(mu=0.3, lam=2.0, a_max=40)
    cold = rvi_solve(params)
    warm = rvi_solve(params, start=cold.policy)
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


def test_batched_delivery_values_match_one_vector_at_a_time():
    k = _abort_vectors(9)[4]
    params = ModelParams(mu=0.35, lam=3.0, a_max=9)
    cycles = slots, _, w = cycle_table(params)
    batched = delivery_system(k, slots[k], w, 0.35)
    assert batched.shape == (len(k), 5, 5)
    for kk, mat in zip(k, batched):
        assert np.array_equal(mat, delivery_system(kk, slots[kk], w, 0.35))
    # the oracle's vectors close on every age; the second batch has older
    # ages, each row with R = 3, so it also takes the back-substitution
    older = np.random.default_rng(9).integers(0, 4, (6, 8))
    older[:, 0] = 3
    for k in (k, older):
        g, h = delivery_values(k, params, cycles)
        assert g.shape == (len(k),) and h.shape == k.shape
        for kk, gg, row in zip(k, g, h):
            one_g, one_h = delivery_values(kk, params, cycles)
            assert gg == one_g
            assert np.array_equal(row, one_h)


def _stationary(k, mu, slots, w):
    """Stationary vector of the delivery-age chain, as ``evaluate_exact`` solves it."""
    balance = -delivery_system(k, slots[k], w, mu).T
    balance[0] = 1.0
    return np.linalg.solve(balance, np.eye(k.size)[0])


@pytest.mark.parametrize("mu, a_max", [(0.3, 6), (1.0, 4), (1e-6, 5)])
def test_cycle_table_matches_direct_sums(mu, a_max):
    slots, lags, w = cycle_table(ModelParams(mu=mu, a_max=a_max))
    assert slots.shape == lags.shape == w.shape == (a_max,)
    for k in range(a_max):
        reach = [(1.0 - mu) ** j for j in range(k + 1)]
        assert w[k] == pytest.approx(reach[-1], rel=1e-13)
        assert slots[k] == pytest.approx(sum(reach), rel=1e-13)
        assert slots[k] == pytest.approx(service_moments(mu, k).e_s, rel=1e-12)
        assert lags[k] == pytest.approx(sum(j * r for j, r in enumerate(reach)), rel=1e-13)
        for d in range(1, a_max - k + 1):  # k <= a_max - d: the cycle fits under the ceiling
            direct = sum((d + j + 0.5) * r for j, r in enumerate(reach))
            assert (d + 0.5) * slots[k] + lags[k] == pytest.approx(direct, rel=1e-13)
    # a shorter table is the same sums, cut: the oracle reads only what it searches
    for full, cut in zip(cycle_table(ModelParams(mu=mu, a_max=a_max)),
                         cycle_table(ModelParams(mu=mu, a_max=a_max), 3)):
        assert np.array_equal(full[:3], cut)


@pytest.mark.parametrize("mu", [1e-3, 0.01, 0.1, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("z", [0, 1, 2, 7, 20])
def test_cycle_table_gives_service_threshold_closed_form(mu, z):
    # abort after z slots from every occurring age 1..max(z, 1)
    slots, lags, w = cycle_table(ModelParams(mu=mu, a_max=max(2 * z, 2)))
    k = np.full(max(z, 1), z)
    nu = _stationary(k, mu, slots, w)
    cycle = nu @ slots[k]
    closed = service_threshold_eval(mu, z)
    age = (np.arange(1, k.size + 1) + 0.5) * slots[k] + lags[k]
    assert nu @ age / cycle == pytest.approx(closed.delta, rel=1e-12)
    assert nu @ w[k] / cycle == pytest.approx(closed.p_bar, rel=1e-12)


@pytest.mark.parametrize("mu, lam", [(0.5, 3.0), (0.15, 11.0)])
def test_oracle_gains_match_exact_evaluation(mu, lam):
    params = ModelParams(mu=mu, lam=lam, a_max=20)
    exact = {}
    for group in _abort_vectors(8):
        gains = delivery_values(group, params, cycle_table(params))[0]
        for k, g in zip(map(tuple, group.tolist()), gains):
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


def test_oracle_memory_is_bounded_by_its_search_bound():
    # a bound-8 search reads delivered ages and abort indices below 8 only,
    # so neither its memory nor its result depends on the ceiling
    tracemalloc.start()
    try:
        brute_force_best_threshold(ModelParams(mu=0.5, lam=3.0, a_max=3200), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    small = brute_force_best_threshold(ModelParams(mu=0.5, lam=3.0, a_max=20), 8)
    huge = brute_force_best_threshold(ModelParams(mu=0.5, lam=3.0, a_max=100_000), 8)
    assert (huge.g, huge.full_thresholds) == (small.g, small.full_thresholds)


@pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("lam", [1.0, 3.0, 10.0])
def test_full_class_oracle_matches_policy_iteration(mu, lam):
    params = ModelParams(mu=mu, lam=lam, a_max=20)
    oracle = brute_force_best_threshold(params, search_bound=20)
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


# property tests: no shrink phase, so that a failure reports in seconds
_PROPERTY = settings(max_examples=25, deadline=None,
                     phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))


@_PROPERTY
@given(mu=st.floats(0.05, 1.0), lam=st.floats(0.0, 20.0),
       table=st.lists(st.integers(1, A_MAX), min_size=1, max_size=6))
def test_exact_evaluation_matches_the_full_chain_on_random_tables(mu, lam, table):
    # unsorted draws include rising tables, which no policy family builds
    policy = threshold_table_policy(table)
    params = ModelParams(mu=mu, lam=lam, a_max=A_MAX)
    res = evaluate_exact(policy, params)
    delta, p_bar = reference(policy, params)
    assert res.delta == pytest.approx(delta, rel=1e-9)
    assert res.p_bar == pytest.approx(p_bar, abs=1e-9)


@_PROPERTY
@given(mu=st.floats(0.05, 1.0), lam=st.floats(0.0, 20.0), z_star=st.integers(0, 8))
def test_exact_evaluation_matches_the_service_threshold_closed_form(mu, lam, z_star):
    res = evaluate_exact(service_threshold_policy(z_star), ModelParams(mu=mu, lam=lam, a_max=A_MAX))
    closed = service_threshold_eval(mu, z_star, lam)
    assert res.delta == pytest.approx(closed.delta, rel=1e-9)
    assert res.p_bar == pytest.approx(closed.p_bar, abs=1e-9)


@_PROPERTY
@given(mu=st.floats(0.05, 1.0), lam=st.floats(0.0, 20.0), a_max=st.integers(8, A_MAX))
def test_solver_policy_passes_the_structure_checks(mu, lam, a_max):
    params = ModelParams(mu=mu, lam=lam, a_max=a_max)
    report = verify_structure(discounted_vi(params, 40), rvi_solve(params).policy)
    assert report.passed, [c.name for c in report.failures()]

import numpy as np
import pytest
import scipy.sparse as sp

from aoi_offload import chain as chain_module
from aoi_offload.chain import (
    NEVER_OFFLOAD,
    Policy,
    StationarySolveError,
    age_threshold_policy,
    build_chain,
    check_chain_size,
    evaluate_exact,
    local_only_policy,
    mec_only_policy,
    service_threshold_policy,
    stationary,
    threshold_table_policy,
)
from aoi_offload.core import ModelParams, State
from aoi_offload.heuristics import Z_STAR_CAP, service_threshold_eval


def test_age_threshold_actions():
    pol = age_threshold_policy(3, 50)
    assert [pol.action(a, 0) for a in (1, 2, 3, 4)] == [0, 0, 1, 1]
    assert pol.action(7, 5) == 1
    assert age_threshold_policy(1, 10).action(1, 0) == 1  # offload everywhere


def test_age_threshold_validation():
    with pytest.raises(ValueError):
        age_threshold_policy(51, 50)
    with pytest.raises(ValueError):
        age_threshold_policy(0, 50)


def test_service_threshold_actions():
    pol = service_threshold_policy(2)
    assert pol.action(5, 0) == 0
    assert pol.action(5, 1) == 0
    assert pol.action(3, 2) == 1
    assert pol.action(9, 7) == 1
    assert pol.threshold(0) == NEVER_OFFLOAD
    assert pol.threshold(2) == 1


def test_policy_requires_exactly_one_rule():
    with pytest.raises(ValueError):
        Policy(name="bad", thresholds=())
    with pytest.raises(ValueError):
        Policy(name="bad", thresholds=(3, 0))


def test_threshold_table_policy_rejects_fractions_and_keeps_ints():
    # a fraction raises as it does in Policy, instead of being truncated
    for table in ((2.5, 1.9), (4, 3.5)):
        with pytest.raises(ValueError):
            threshold_table_policy(table)
    policy = threshold_table_policy(np.array([5, 3, 2]))
    assert policy.thresholds == (5, 3, 2)
    assert all(type(t) is int for t in policy.thresholds)


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan"), np.inf, np.nan])
def test_infinite_and_nan_thresholds_raise_value_error(bad):
    for table in ((bad,), (4, bad)):
        with pytest.raises(ValueError, match="thresholds must be integers >= 1"):
            Policy(name="x", thresholds=table)
        with pytest.raises(ValueError, match="thresholds must be integers >= 1"):
            threshold_table_policy(table)


def test_threshold_table_policy_takes_an_iterator():
    assert threshold_table_policy(iter((5.0, 3, 2))).thresholds == (5, 3, 2)


def test_policy_stores_python_ints():
    policy = Policy(name="x", thresholds=[np.int64(5), 3.0, np.float64(2.0)])
    assert policy.thresholds == (5, 3, 2)
    assert all(type(t) is int for t in policy.thresholds)


def test_service_threshold_policy_has_the_closed_forms_cap():
    with pytest.raises(ValueError):
        service_threshold_policy(Z_STAR_CAP + 1)


def test_chain_rows_for_small_age_threshold():
    chain = build_chain(age_threshold_policy(2, 50), ModelParams(mu=0.5, a_max=50))
    rows = {
        s: {chain.states[j]: chain.matrix[i, j] for j in chain.matrix[i].indices}
        for i, s in enumerate(chain.states)
    }
    assert rows[State(1, 0)] == {State(1, 0): 0.5, State(2, 1): 0.5}
    assert rows[State(2, 1)] == {State(1, 0): 1.0}
    assert set(chain.states) == {State(1, 0), State(2, 1)}


def test_chain_shape_for_age_threshold_three():
    mu = 0.4
    chain = build_chain(age_threshold_policy(3, 50), ModelParams(mu=mu, a_max=50))
    rows = {
        s: {chain.states[j]: chain.matrix[i, j] for j in chain.matrix[i].indices}
        for i, s in enumerate(chain.states)
    }
    assert rows == {
        State(1, 0): {State(1, 0): mu, State(2, 1): 1 - mu},
        State(2, 1): {State(2, 0): mu, State(3, 2): 1 - mu},
        State(2, 0): {State(1, 0): mu, State(3, 1): 1 - mu},
        State(3, 2): {State(1, 0): 1.0},
        State(3, 1): {State(1, 0): 1.0},
    }


def test_chain_always_offload_is_single_state():
    chain = build_chain(mec_only_policy(), ModelParams(mu=0.3, a_max=50))
    assert chain.states == [State(1, 0)]
    assert chain.matrix[0, 0] == 1.0


def test_chain_never_offload_hits_forced_ceiling():
    a_max = 6
    chain = build_chain(local_only_policy(), ModelParams(mu=0.5, a_max=a_max))
    assert max(s.a for s in chain.states) == a_max
    forced = [i for i, s in enumerate(chain.states) if s.a == a_max]
    assert forced and all(chain.actions[i] == 1 for i in forced)
    sums = np.asarray(chain.matrix.sum(axis=1)).ravel()
    assert np.allclose(sums, 1.0, atol=1e-15)


def test_stationary_two_state_hand_solution():
    chain = build_chain(age_threshold_policy(2, 50), ModelParams(mu=0.5, a_max=50))
    dist = stationary(chain)
    assert dist.probs[chain.index[State(1, 0)]] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert dist.probs[chain.index[State(2, 1)]] == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert dist.residual <= 1e-10


def test_stationary_single_state():
    chain = build_chain(mec_only_policy(), ModelParams(mu=0.3, a_max=20))
    dist = stationary(chain)
    assert dist.states == [State(1, 0)]
    assert dist.probs[chain.index[State(1, 0)]] == 1.0


def test_balance_check_failure_reports_residual():
    # a chain whose rows do not sum to one has no stationary vector; the
    # normalised solve of its balance equations fails the balance check
    chain = build_chain(service_threshold_policy(3), ModelParams(mu=0.3, a_max=50))
    chain.matrix = chain.matrix * 0.9
    with pytest.raises(StationarySolveError) as err:
        stationary(chain)
    assert err.value.residual > 1e-10


@pytest.mark.parametrize("policy, params", [
    (local_only_policy(), ModelParams(mu=0.01, a_max=200)),
    (threshold_table_policy((5, 3, 2)), ModelParams(mu=0.45, a_max=30)),
    (service_threshold_policy(3), ModelParams(mu=0.3, a_max=50)),
], ids=["local_only", "table_532", "service_3"])
def test_triplet_flow_matches_sparse_matrix(monkeypatch, policy, params):
    # the flow evaluate_exact checks, summed from the triplets, is pi P of
    # the lazily built csr matrix, and that matrix is the triplets' csr
    checked = []
    check = chain_module._check_balance
    monkeypatch.setattr(chain_module, "_check_balance",
                        lambda flow, pi: checked.append((flow, pi)) or check(flow, pi))
    evaluate_exact(policy, params)
    (flow, pi), = checked
    chain = build_chain(policy, params)
    assert np.max(np.abs(flow - pi @ chain.matrix)) <= 1e-15
    expected = sp.csr_matrix((chain.probs, (chain.rows, chain.cols)), shape=(chain.n, chain.n))
    assert chain.matrix.format == "csr" and chain.matrix is chain.matrix
    assert (chain.matrix != expected).nnz == 0


@pytest.mark.parametrize("policy, a_max", [
    (local_only_policy(), 60), (mec_only_policy(), 30), (age_threshold_policy(7, 30), 30),
    (service_threshold_policy(3), 50), (threshold_table_policy((5, 3, 2)), 30),
    (threshold_table_policy((9, 7, 5, 3, 1)), 12),
], ids=["local_only", "mec_only", "age_7", "service_3", "table_532", "table_97531"])
def test_chain_size_is_counted_from_the_abort_indices(policy, a_max):
    # each occurring delivered age d contributes the states (d + j, j), j <= k_d
    params = ModelParams(mu=0.3, a_max=a_max)
    k = check_chain_size(policy, params)
    assert int(k.sum()) + k.size == build_chain(policy, params).n


def test_chain_past_the_state_limit_is_refused_before_it_is_built(monkeypatch):
    # 5,121,599 states would take about 1.8 GB at the whole call's 352 B per state
    def build_started(*args):
        raise AssertionError("build_chain called before the state count was checked")

    monkeypatch.setattr(chain_module, "build_chain", build_started)
    with pytest.raises(ValueError, match="has 5121599 states, above 1388888, the most"):
        evaluate_exact(service_threshold_policy(10**6), ModelParams(mu=0.5, a_max=3200))
    # local-only has the largest chain at a ceiling: a_max (a_max + 1) / 2 - 1 states
    assert check_chain_size(local_only_policy(), ModelParams(mu=0.5, a_max=1666)).size == 1665
    with pytest.raises(ValueError, match="has 1390277 states"):
        check_chain_size(local_only_policy(), ModelParams(mu=0.5, a_max=1667))


def test_evaluate_age_threshold_two_state():
    res = evaluate_exact(age_threshold_policy(2, 50), ModelParams(mu=0.5, a_max=50))
    assert res.delta == pytest.approx(11.0 / 6.0, abs=1e-10)
    assert res.p_bar == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_evaluate_always_offload():
    res = evaluate_exact(mec_only_policy(), ModelParams(mu=0.9, a_max=30))
    assert (res.delta, res.p_bar) == (1.5, 1.0)


@pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("z_star", [0, 1, 2, 5])
def test_chain_matches_closed_form(mu, z_star):
    closed = service_threshold_eval(mu, z_star)
    res = evaluate_exact(service_threshold_policy(z_star), ModelParams(mu=mu, a_max=50))
    assert res.delta == pytest.approx(closed.delta, rel=1e-9)
    assert res.p_bar == pytest.approx(closed.p_bar, rel=1e-9)


def test_reset_state_is_recurrent_under_every_policy():
    params = ModelParams(mu=0.4, a_max=15)
    for pol in (local_only_policy(), mec_only_policy(),
                age_threshold_policy(5, 15), service_threshold_policy(3),
                threshold_table_policy((6, 4, 2))):
        chain = build_chain(pol, params)
        dist = stationary(chain)
        assert dist.probs[chain.index[State(1, 0)]] > 0


def test_lagrangian_cost_uses_price():
    params = ModelParams(mu=0.5, lam=3.0, a_max=50)
    res = evaluate_exact(service_threshold_policy(1), params)
    assert res.g == pytest.approx(res.delta + 3.0 * res.p_bar, abs=1e-12)

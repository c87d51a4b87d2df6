import numpy as np
import pytest

from aoi_offload.chain import (
    age_threshold_policy,
    evaluate_exact,
    local_only_policy,
    mec_only_policy,
    service_threshold_policy,
    threshold_table_policy,
)
from aoi_offload.core import ModelParams, State
from aoi_offload.mdp import (
    _backup,
    bellman_residual,
    brute_force_best_threshold,
    default_a_max,
    discounted_vi,
    expand_value_grid,
    rvi_solve,
    sweep_lambdas,
    verify_structure,
)


def test_perfect_local_server_never_pays():
    report = rvi_solve(ModelParams(mu=1.0, lam=5.0, a_max=50))
    assert report.converged
    assert report.g == pytest.approx(1.5, abs=1e-9)
    # on the occurring column (fresh update in service) the edge is never used
    assert not report.action_grid[:-1, 0].any()


def test_free_edge_is_used_everywhere():
    report = rvi_solve(ModelParams(mu=0.5, lam=0.0, a_max=50))
    assert set(report.full_thresholds) == {1}
    assert report.g == pytest.approx(1.5, abs=1e-9)


def test_discounted_iterates_start_at_zero_and_grow():
    params = ModelParams(mu=0.5, lam=3.0, beta=0.9, a_max=12)
    tables = discounted_vi(params, 40)
    assert not tables[0].grid.any()
    ages = np.arange(1, 13, dtype=float) + 0.5
    assert np.allclose(tables[1].grid, ages[:, None], atol=1e-12)
    for prev, cur in zip(tables, tables[1:]):
        assert (cur.grid >= prev.grid - 1e-12).all()


def _padded_square_vi(params, n_iters):
    """Discounted iterates backed up on one fixed grid padded by ``n_iters``."""
    pad = ModelParams(mu=params.mu, lam=params.lam, beta=params.beta,
                      a_max=params.a_max + n_iters)
    k = params.a_max
    v = np.zeros((pad.a_max, pad.a_max))
    out = [v[:k, :k].copy()]
    for _ in range(n_iters):
        v = _backup(v, pad, params.beta)
        out.append(v[:k, :k].copy())
    return out


# the last point keeps work local at the ceiling, so a pad ceiling leaking
# into the stored block would show there
@pytest.mark.parametrize("mu, lam, a_max, n_iters", [
    (0.5, 3.0, 50, 300), (0.01, 0.5, 120, 50), (0.9, 20.0, 6, 60),
])
def test_shrinking_pad_is_bitwise_the_padded_square(mu, lam, a_max, n_iters):
    params = ModelParams(mu=mu, lam=lam, beta=0.99, a_max=a_max)
    got = discounted_vi(params, n_iters)
    want = _padded_square_vi(params, n_iters)
    assert len(got) == len(want) == n_iters + 1
    for table, ref in zip(got, want):
        assert table.grid.shape == ref.shape
        assert table.grid.tobytes() == ref.tobytes()


def test_value_table_accessor():
    params = ModelParams(mu=0.5, lam=3.0, beta=0.9, a_max=8)
    table = discounted_vi(params, 1)[1]
    assert table.value(3, 0) == pytest.approx(3.5)
    assert table.a_max == 8
    assert table.h()[0, 0] == 0.0


def test_structure_checks_pass_on_solved_instance():
    params = ModelParams(mu=0.5, lam=3.0, beta=0.99, a_max=30)
    report = rvi_solve(params)
    iterates = discounted_vi(params, 200)
    sr = verify_structure(iterates, report.policy)
    assert sr.passed, sr.to_dict()


def test_corrupted_values_are_caught_with_witness():
    params = ModelParams(mu=0.5, lam=3.0, beta=0.99, a_max=20)
    report = rvi_solve(params)
    iterates = discounted_vi(params, 50)
    iterates[-1].grid[10, 0] -= 1000.0
    sr = verify_structure(iterates, report.policy)
    failed = {c.name for c in sr.failures()}
    assert "value_nondecreasing_in_age" in failed
    witness = next(c.witness for c in sr.failures() if c.name == "value_nondecreasing_in_age")
    assert witness is not None


def test_non_threshold_policy_is_caught():
    params = ModelParams(mu=0.5, lam=3.0, beta=0.99, a_max=10)
    iterates = discounted_vi(params, 5)

    def holey(a, z):  # offloads at age 4 but not at age 5
        return 1 if (a == 4 or a >= 6) else 0

    from aoi_offload.chain import Policy

    sr = verify_structure(iterates, Policy(name="holey", action_fn=holey))
    failed = {c.name for c in sr.failures()}
    assert "offload_upward_closed_in_age" in failed
    assert "policy_is_threshold_table" in failed


@pytest.mark.parametrize("policy", [local_only_policy(), mec_only_policy(),
                                    service_threshold_policy(3), age_threshold_policy(7, 20)],
                         ids=lambda p: p.name)
def test_threshold_families_pass_policy_structure_checks(policy):
    # columns that offload only at the ceiling (never-offload thresholds) are
    # threshold columns of the truncated model, not gaps
    sr = verify_structure(discounted_vi(ModelParams(mu=0.5, lam=3.0, a_max=20), 5), policy)
    assert sr.passed, sr.to_dict()


def test_rvi_satisfies_optimality_equation():
    for mu, lam in ((0.3, 1.0), (0.5, 3.0), (0.9, 10.0)):
        params = ModelParams(mu=mu, lam=lam, a_max=40)
        report = rvi_solve(params)
        assert report.converged
        assert bellman_residual(report, params) <= 1e-8


def test_gain_matches_exact_evaluation_of_greedy_policy():
    params = ModelParams(mu=0.5, lam=3.0, a_max=50)
    report = rvi_solve(params)
    res = evaluate_exact(report.policy, params)
    assert abs(res.g - report.g) <= 1e-6


def test_oracle_equivalence_small_instance():
    params = ModelParams(mu=0.5, lam=3.0, a_max=20)
    rv = rvi_solve(params)
    bf = brute_force_best_threshold(params, search_bound=8)
    assert abs(rv.g - bf.g) <= 1e-6
    # the two winners act identically on every occurring state
    a = evaluate_exact(rv.policy, params)
    b = evaluate_exact(bf.policy, params)
    assert a.delta == pytest.approx(b.delta, abs=1e-9)
    assert a.p_bar == pytest.approx(b.p_bar, abs=1e-9)


def test_brute_force_free_edge_degenerate():
    bf = brute_force_best_threshold(ModelParams(mu=0.4, lam=0.0, a_max=12), search_bound=6)
    assert bf.full_thresholds == (1,)
    assert bf.g == pytest.approx(1.5, abs=1e-10)


def test_brute_force_ties_go_to_the_first_table_enumerated():
    # a perfect local server delivers age 1 in one slot under every vector
    # that starts work locally, so all of them cost 1.5 exactly
    bf = brute_force_best_threshold(ModelParams(mu=1.0, lam=3.0, a_max=20), search_bound=8)
    assert bf.full_thresholds == (8,) * 8
    assert bf.g == 1.5


def test_brute_force_exorbitant_price_pins_at_ceiling():
    params = ModelParams(mu=0.5, lam=1e4, a_max=10)
    bf = brute_force_best_threshold(params, search_bound=10)
    assert bf.full_thresholds == (10,) * 10
    never = evaluate_exact(local_only_policy(), params)
    assert bf.g == pytest.approx(never.g, rel=1e-8)


def test_brute_force_rejects_oversized_search():
    with pytest.raises(ValueError, match="candidate"):
        brute_force_best_threshold(ModelParams(mu=0.5, a_max=20), search_bound=20)
    with pytest.raises(ValueError):
        brute_force_best_threshold(ModelParams(mu=0.5, a_max=10), search_bound=11)


def test_truncation_insensitivity_at_moderate_rate():
    g50 = rvi_solve(ModelParams(mu=0.5, lam=3.0, a_max=50)).g
    g100 = rvi_solve(ModelParams(mu=0.5, lam=3.0, a_max=100)).g
    assert abs(g50 - g100) < 1e-4


def test_expand_value_grid_warm_start_is_nearly_fixed():
    params = ModelParams(mu=0.5, lam=3.0, a_max=50)
    small = rvi_solve(params)
    big_params = ModelParams(mu=0.5, lam=3.0, a_max=120)
    warm = rvi_solve(big_params, v_init=expand_value_grid(small.values.grid, 120))
    cold = rvi_solve(big_params)
    assert warm.iterations < cold.iterations
    assert warm.g == pytest.approx(cold.g, abs=1e-8)


def test_sweep_matches_cold_solves_and_orders_prices():
    lambdas = [3.0, 0.5, 1.5]
    sweep = sweep_lambdas(0.5, lambdas, 40)
    assert [lam for lam, _ in sweep] == [0.5, 1.5, 3.0]
    for lam, report in sweep:
        cold = rvi_solve(ModelParams(mu=0.5, lam=lam, a_max=40))
        assert report.g == pytest.approx(cold.g, abs=1e-8)
    gains = [r.g for _, r in sweep]
    assert gains == sorted(gains)  # a pricier edge cannot lower the optimal cost


def test_threshold_trimming_stops_at_saturated_column():
    report = rvi_solve(ModelParams(mu=0.5, lam=3.0, a_max=50))
    trimmed = report.thresholds
    last = max(trimmed)
    assert trimmed[last] <= last + 1
    assert all(trimmed[z] > z + 1 for z in range(last))
    assert report.threshold_exact


def test_default_ceiling_rule():
    assert default_a_max(0.5) == 50
    assert default_a_max(0.1) == 50
    assert default_a_max(0.01) == 400


def test_solver_rejects_bad_warm_start_shape():
    with pytest.raises(ValueError):
        rvi_solve(ModelParams(mu=0.5, a_max=20), v_init=np.zeros((10, 10)))

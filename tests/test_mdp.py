import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from aoi_offload import mdp
from aoi_offload.chain import (
    abort_indices,
    age_threshold_policy,
    cycle_table,
    delivery_system,
    delivery_values,
    evaluate_exact,
    local_only_policy,
    mec_only_policy,
    occurring_ages,
    service_threshold_policy,
    threshold_table_policy,
)
from aoi_offload.cli import lambda_grid
from aoi_offload.core import ModelParams, State
from aoi_offload.mdp import (
    _backup,
    _rebuild_grid,
    brute_force_best_threshold,
    default_a_max,
    discounted_vi,
    rvi_solve,
    sweep_lambdas,
    verify_structure,
)


def test_perfect_local_server_never_pays():
    report = rvi_solve(ModelParams(mu=1.0, lam=5.0, a_max=50))
    assert report.converged
    assert report.g == pytest.approx(1.5, abs=1e-9)
    # on the occurring column (fresh update in service) the edge is never
    # used: column 0 offloads only at the ceiling
    assert report.full_thresholds[0] == 50


def test_free_edge_is_used_everywhere():
    report = rvi_solve(ModelParams(mu=0.5, lam=0.0, a_max=50))
    assert set(report.full_thresholds) == {1}
    assert report.g == pytest.approx(1.5, abs=1e-9)


def test_discounted_iterates_start_at_zero_and_grow():
    params = ModelParams(mu=0.5, lam=3.0, beta=0.9, a_max=12)
    tables = list(discounted_vi(params, 40))
    assert not tables[0].any()
    ages = np.arange(1, 13, dtype=float) + 0.5
    assert np.allclose(tables[1], ages[:, None], atol=1e-12)
    for prev, cur in zip(tables, tables[1:]):
        assert (cur >= prev - 1e-12).all()


def _padded_square_vi(params, n_iters):
    """Discounted iterates backed up on one fixed grid padded by ``n_iters``."""
    pad = ModelParams(mu=params.mu, lam=params.lam, beta=params.beta,
                      a_max=params.a_max + n_iters)
    k = params.a_max
    v = np.zeros((pad.a_max, pad.a_max))
    out = [v[:k, :k].copy()]
    for _ in range(n_iters):
        v = _backup(v, pad, params.beta)[0]
        out.append(v[:k, :k].copy())
    return out


# the third point keeps work local at the ceiling, so a pad ceiling leaking
# into the stored block would show there.  Of the offload plane's extremes:
# at price 1e6, and at mu 1 where column 0 always works locally, no row
# offloads everywhere; at price 0 every row does from the first backup on;
# at mu 1e-4 all but two rows do from the third
@pytest.mark.parametrize("mu, lam, a_max, n_iters", [
    (0.5, 3.0, 50, 300), (0.01, 0.5, 120, 50), (0.9, 20.0, 6, 60),
    (0.5, 1e6, 20, 60), (0.5, 0.0, 20, 60), (1e-4, 3.0, 50, 120), (1.0, 3.0, 10, 40),
])
def test_shrinking_pad_is_bitwise_the_padded_square(mu, lam, a_max, n_iters):
    params = ModelParams(mu=mu, lam=lam, beta=0.99, a_max=a_max)
    got = list(discounted_vi(params, n_iters))
    want = _padded_square_vi(params, n_iters)
    assert len(got) == len(want) == n_iters + 1
    for grid, ref in zip(got, want):
        assert grid.shape == ref.shape
        assert grid.tobytes() == ref.tobytes()


def test_iterates_form_only_the_rows_above_the_offload_plane(monkeypatch):
    # forming every row of the shrinking pad takes sum(m**2, m = 50..349)
    # cells; the rows that offload at every column are left out
    formed = []
    local_side = mdp._local_side

    def spy(v, mu, beta, out):
        formed.append(out.size)
        return local_side(v, mu, beta, out)

    monkeypatch.setattr(mdp, "_local_side", spy)
    iterates = list(discounted_vi(ModelParams(mu=0.5, lam=3.0, beta=0.99, a_max=50), 300))
    assert len(iterates) == len(formed) + 1 == 301
    assert sum(formed) < 0.1 * sum(m * m for m in range(50, 350))


def _backup_by_cells(v, params, beta):
    """The optimality backup of ``v`` and its local side, cell by cell in
    Python floats, each cell's operations in the order of ``_backup``'s
    formula."""
    side, mu, v = len(v), params.mu, v.tolist()
    offload = [(a + 0.5) + params.lam + beta * v[0][0] for a in range(1, side + 1)]
    local = [[(i + 1.5) + beta * (mu * v[j][0] + (1.0 - mu) * v[i + 1][j + 1])
              for j in range(side - 1)] for i in range(side - 1)]
    backup = [[min(local[i][j], offload[i]) for j in range(side - 1)] + [offload[i]]
              for i in range(side - 1)]
    backup.append([offload[-1]] * side)
    return np.array(backup), np.array(local)


@pytest.mark.parametrize("beta", [0.5, 0.99])
@pytest.mark.parametrize("lam", [0.0, 3.0, 1e6])
@pytest.mark.parametrize("mu", [1e-4, 0.5, 1.0])
def test_backup_and_iterates_are_bitwise_the_per_cell_backup(mu, lam, beta):
    rng = np.random.default_rng(27)
    n_iters = 10
    for side in range(2, 9):
        params = ModelParams(mu=mu, lam=lam, beta=beta, a_max=side)
        v = rng.uniform(-10.0, 10.0, (side, side))
        t, local = _backup(v, params, beta)
        want_t, want_local = _backup_by_cells(v, params, beta)
        assert t.tobytes() == want_t.tobytes()
        assert local.tobytes() == want_local.tobytes()
        # iterates on a square padded by n_iters, whose ceiling cannot reach the block
        padded = np.zeros((side + n_iters, side + n_iters))
        for grid in discounted_vi(params, n_iters):
            assert grid.tobytes() == padded[:side, :side].tobytes()
            padded = _backup_by_cells(padded, params, beta)[0]


def test_yielded_iterates_keep_their_values_after_the_generator_ends():
    items = [(grid, grid.tobytes())
             for grid in discounted_vi(ModelParams(mu=0.3, lam=2.0, beta=0.9, a_max=6), 12)]
    assert len(items) == 13
    assert all(grid.tobytes() == when_yielded for grid, when_yielded in items)


def test_structure_checks_pass_on_solved_instance():
    params = ModelParams(mu=0.5, lam=3.0, beta=0.99, a_max=30)
    report = rvi_solve(params)
    iterates = discounted_vi(params, 200)
    sr = verify_structure(iterates, report.policy)
    assert sr.passed, sr.to_dict()


def test_corrupted_values_are_caught_with_witness():
    params = ModelParams(mu=0.5, lam=3.0, beta=0.99, a_max=20)
    report = rvi_solve(params)
    iterates = list(discounted_vi(params, 50))
    iterates[-1][10, 0] -= 1000.0
    sr = verify_structure(iterates, report.policy)
    failed = {c.name for c in sr.failures()}
    assert "value_nondecreasing_in_age" in failed
    witness = next(c.witness for c in sr.failures() if c.name == "value_nondecreasing_in_age")
    assert witness is not None


def test_each_value_check_keeps_its_first_failure():
    # iterate 7's dent at (6, 2) breaks all three checks again, but the age
    # and relative-value checks already failed at iterate 3's dent at (11, 0)
    iterates = list(discounted_vi(ModelParams(mu=0.5, lam=3.0, beta=0.99, a_max=20), 10))
    iterates[3][10, 0] -= 100.0
    iterates[7][5, 2] -= 100.0
    sr = verify_structure(iterates, local_only_policy())
    assert {c.name: (c.witness, c.detail.partition(":")[0]) for c in sr.failures()} == {
        "value_nondecreasing_in_age": (State(11, 0), "iterate 3"),
        "value_nondecreasing_in_service": (State(6, 2), "iterate 7"),
        "relative_value_nonnegative": (State(11, 0), "iterate 3"),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_fail_the_value_checks(bad):
    iterates = list(discounted_vi(ModelParams(mu=0.5, lam=3.0, a_max=10), 5))
    iterates[-1][4, 3] = bad
    sr = verify_structure(iterates, local_only_policy())
    assert {c.name: (c.witness, c.detail.partition(":")[0]) for c in sr.failures()} == {
        name: (State(5, 3), "iterate 5") for name in (
            "value_nondecreasing_in_age", "value_nondecreasing_in_service",
            "relative_value_nonnegative")
    }
    all_nan = verify_structure([np.full((10, 10), np.nan)], local_only_policy())
    assert [c.name for c in all_nan.failures()] == [c.name for c in sr.failures()]


def test_no_value_iterate_is_an_error():
    for iterates in ([], iter([])):
        with pytest.raises(ValueError, match="need at least one value iterate"):
            verify_structure(iterates, local_only_policy())


def test_structure_check_holds_one_iterate_at_a_time():
    # the 301 iterates at a_max 100 take 24 MB; streamed, the check holds the
    # padded grid and one backup's temporaries (400 x 400 at most)
    params = ModelParams(mu=0.3, lam=2.0, a_max=100)
    tracemalloc.start()
    try:
        sr = verify_structure(discounted_vi(params, 300), local_only_policy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sr.passed, sr.to_dict()
    assert peak < 8 * 2**20


def test_rising_table_is_caught():
    # offloads at age 2 in column 0 but keeps working there in column 1: the
    # one policy check a threshold table can fail
    iterates = discounted_vi(ModelParams(mu=0.5, lam=3, a_max=10), 5)
    sr = verify_structure(iterates, threshold_table_policy((2, 5)))
    assert {c.name: c.witness for c in sr.failures()} == {
        "thresholds_nonincreasing": State(5, 1),
    }


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
        assert report.bellman_residual <= 1e-8


def test_grids_over_the_side_limit_are_refused_before_allocation():
    # 100000 is far over the limit: a check placed after the allocation
    # would fail at once on numpy's refusal of a 74.5 GiB array
    with pytest.raises(ValueError, match="a_max 100000 exceeds 3200"):
        rvi_solve(ModelParams(mu=0.5, a_max=100000))
    with pytest.raises(ValueError, match="a_max \\+ n_iters 100050 exceeds 3200"):
        discounted_vi(ModelParams(mu=0.5, a_max=50), 100000)


def test_sweep_retains_no_value_grid():
    # the 25 default frontier prices at a_max 400 held 34 MB of grids when
    # each report kept its (a, z) values and actions
    tracemalloc.start()
    try:
        sweep = sweep_lambdas(0.01, lambda_grid(0.01, 50, 25), 400)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(sweep) == 25
    assert retained < 2**20


@pytest.mark.parametrize("mu, lam, a_max", [(0.5, 3.0, 50), (0.01, 1.0, 120), (0.9, 20.0, 8)])
def test_certificate_and_bellman_residual_read_one_backup(mu, lam, a_max):
    params = ModelParams(mu=mu, lam=lam, a_max=a_max)
    report = rvi_solve(params)
    v = _rebuild_grid(report.g, report.h, params)
    t, local = _backup(v, params, 1.0)
    assert report.span_residual == np.ptp(t - v)
    u = np.ones(v.shape, dtype=bool)
    u[:-1, :-1] = local > t[:-1, :-1]
    thresholds = u.argmax(axis=0) + 1  # first offloading row per column
    assert report.full_thresholds == tuple(thresholds)
    assert report.threshold_exact == np.array_equal(
        u, np.arange(1, a_max + 1)[:, None] >= thresholds)
    assert report.bellman_residual == np.abs(t - v - report.g).max()


def test_offload_set_not_upward_closed_in_age_is_not_threshold_exact(monkeypatch):
    # no real solve reaches threshold_exact False; a local value of inf at
    # (1, 0) makes column 0 offload at age 1, keep the work at ages 2 to 4
    # and offload again from its threshold 5
    params = ModelParams(mu=0.5, lam=3.0, a_max=50)
    clean = rvi_solve(params)
    assert clean.threshold_exact and clean.full_thresholds[0] == 5

    def backup(v, p, beta):
        t, local = _backup(v, p, beta)
        local[0, 0] = np.inf
        return t, local

    monkeypatch.setattr(mdp, "_backup", backup)
    report = rvi_solve(params)
    assert report.threshold_exact is False
    assert report.full_thresholds == (1, *clean.full_thresholds[1:])
    assert report.span_residual == clean.span_residual


def _rebuild_by_rows(g, h, params):
    # the row sweep written plainly: each row's local side in one expression
    a_max, mu = params.a_max, params.mu
    base = np.arange(1, a_max + 1) + 0.5 - g
    offload = base + params.lam
    v = np.empty((a_max, a_max))
    v[:, -1] = offload
    v[-1, :] = offload[-1]
    for i in range(a_max - 2, -1, -1):
        local = base[i] + mu * h[: a_max - 1] + (1.0 - mu) * v[i + 1, 1:]
        v[i, :-1] = np.minimum(local, offload[i])
    return v - v[0, 0]


def test_rebuilt_grid_is_bitwise_the_plain_row_sweep():
    rng = np.random.default_rng(25)
    for _ in range(100):
        params = ModelParams(mu=rng.uniform(0.005, 1.0), lam=float(np.exp(rng.uniform(-3, 5))),
                             a_max=int(rng.integers(2, 150)))
        h = np.append(0.0, rng.uniform(0.0, 50.0, params.a_max - 1))
        g = rng.uniform(0.0, 20.0)
        assert _rebuild_grid(g, h, params).tobytes() == _rebuild_by_rows(g, h, params).tobytes()
    params = ModelParams(mu=0.01, lam=3.0, a_max=120)
    report = rvi_solve(params)
    assert (_rebuild_grid(report.g, report.h, params).tobytes()
            == _rebuild_by_rows(report.g, report.h, params).tobytes())


def test_rebuilt_grid_is_bitwise_the_row_sweep_at_the_offload_planes_edges():
    # the plane covers every row at price 0 and no row below the ceiling at
    # price 1e6
    for lam, first_rows in ((0.0, {1}), (1e6, {30})):
        params = ModelParams(mu=0.5, lam=lam, a_max=30)
        report = rvi_solve(params)
        assert set(report.full_thresholds[:-1]) == first_rows
        assert (_rebuild_grid(report.g, report.h, params).tobytes()
                == _rebuild_by_rows(report.g, report.h, params).tobytes())
    # with g 0 and min h 0 at mu 1/2 and price 8.5, row 6's least local value,
    # 7.5 + 0.5 * 17, ties exactly with its offload value 16
    params = ModelParams(mu=0.5, lam=8.5, a_max=12)
    h = np.append(0.0, np.random.default_rng(27).uniform(0.0, 50.0, 11))
    assert (7.5 + 0.5 * h.min()) + 0.5 * (8.5 + 8.5) == 7.5 + 8.5
    assert _rebuild_grid(0.0, h, params).tobytes() == _rebuild_by_rows(0.0, h, params).tobytes()
    # a non-finite h
    for bad in (np.inf, -np.inf, np.nan):
        h[5] = bad
        for lam in (0.0, 8.5):
            params = ModelParams(mu=0.5, lam=lam, a_max=12)
            with np.errstate(invalid="ignore"):  # inf - inf
                assert (_rebuild_grid(1.0, h, params).tobytes()
                        == _rebuild_by_rows(1.0, h, params).tobytes())


def _cycles(k, params):
    slots, lags, w = cycle_table(params)
    return (np.arange(1, k.size + 1) + 0.5) * slots[k] + lags[k] + params.lam * w[k], slots[k], w


def _dense_evaluation(k, params):
    # the evaluation system on every age 1..a_max: one dense solve
    cost, slots, w = _cycles(k, params)
    x = np.linalg.solve(delivery_system(k, slots, w, params.mu), cost)
    return float(x[0]), np.append(0.0, x[1:])


def _closed_set_evaluation(k, params):
    return delivery_values(k, params, cycle_table(params))


@pytest.mark.parametrize("k, r, size", [
    ([1, 1, 4, 0, 0, 0, 0, 0], 1, 4),  # age 3 never occurs but delivers up to age 4
    (abort_indices(local_only_policy(), 6), 5, 5),
    (abort_indices(mec_only_policy(), 6), 1, 1),
])
def test_evaluation_solves_only_the_closed_ages(monkeypatch, k, r, size):
    k = np.asarray(k)
    params = ModelParams(mu=0.3, lam=2.0, a_max=k.size)
    assert occurring_ages(k) == r
    assert size == max(r, k[r:].max(initial=r))  # 1..size closed, older ages deliver into it
    sides = []
    solve = np.linalg.solve

    def spy(a, b):
        sides.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    g, h = _closed_set_evaluation(k, params)
    assert sides == [(size, size)]
    g0, h0 = _dense_evaluation(k, params)
    assert abs(g - g0) <= 1e-11 * (1 + abs(g0))
    assert np.all(np.abs(h - h0) <= 1e-11 * (1 + np.abs(h0)))


def test_closed_set_evaluation_matches_the_dense_solve():
    # arbitrary abort indices under the ceiling's cap, often non-monotone,
    # about half of them capped further so that the closed set is small
    rng = np.random.default_rng(2025)
    older = 0
    for _ in range(3000):
        a_max = int(rng.integers(2, 120))
        params = ModelParams(mu=rng.uniform(0.005, 1.0), lam=rng.uniform(0.0, 10.0), a_max=a_max)
        k = rng.integers(0, a_max - np.arange(a_max))
        if rng.random() < 0.5:
            k = np.minimum(k, rng.integers(0, a_max))
        older += max(1, k.max()) > occurring_ages(k)
        g, h = _closed_set_evaluation(k, params)
        g0, h0 = _dense_evaluation(k, params)
        assert h[0] == 0.0
        assert abs(g - g0) <= 1e-11 * (1 + abs(g0))
        assert np.all(np.abs(h - h0) <= 1e-11 * (1 + np.abs(h0)))
    assert older > 0  # some cases solve on ages that never occur


@pytest.mark.parametrize("mu", [1e-12, 1e-4, 1.0])
@pytest.mark.parametrize("lam", [0.0, 1e6])
@pytest.mark.parametrize("a_max", [2, 400])
def test_edge_inputs_solve_to_their_dense_evaluation(mu, lam, a_max):
    params = ModelParams(mu=mu, lam=lam, a_max=a_max)
    report = rvi_solve(params)
    assert report.converged and report.threshold_exact
    g0, _ = _dense_evaluation(abort_indices(report.policy, a_max), params)
    assert abs(report.g - g0) <= 1e-12 * abs(g0)
    assert report.bellman_residual <= 1e-8


GOLDEN_TABLES = json.loads(
    (Path(__file__).parent / "golden" / "solver_tables.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("point", GOLDEN_TABLES,
                         ids=lambda p: f"mu{p['mu']}-lam{p['lambda']}-amax{p['a_max']}")
def test_solver_tables_match_their_golden_file(point):
    # full tables, unreachable rows included, at points whose table is the
    # same at price * (1 +- 1e-9): mu {0.05, 0.3, 0.5, 0.9} x price {0.7,
    # 2.9, 17.3} x a_max {20, 50} less (0.05, 2.9, 50), (0.3, 0.7, 20) and
    # (0.3, 0.7, 50), plus criterion 5's (0.5, 3, 50)
    report = rvi_solve(ModelParams(mu=point["mu"], lam=point["lambda"], a_max=point["a_max"]))
    assert list(report.full_thresholds) == point["full_thresholds"]
    assert report.iterations == point["iterations"]
    assert report.threshold_exact is point["threshold_exact"]
    assert format(report.g, ".12g") == point["g"]


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
    assert bf.h is None and bf.bellman_residual is None  # the oracle solves no grid
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
        brute_force_best_threshold(ModelParams(mu=0.5, a_max=30), search_bound=25)
    with pytest.raises(ValueError):
        brute_force_best_threshold(ModelParams(mu=0.5, a_max=10), search_bound=11)


def test_truncation_insensitivity_at_moderate_rate():
    g50 = rvi_solve(ModelParams(mu=0.5, lam=3.0, a_max=50)).g
    g100 = rvi_solve(ModelParams(mu=0.5, lam=3.0, a_max=100)).g
    assert abs(g50 - g100) < 1e-4


def test_warm_start_from_a_smaller_ceiling_is_nearly_fixed():
    params = ModelParams(mu=0.5, lam=3.0, a_max=50)
    small = rvi_solve(params)
    big_params = ModelParams(mu=0.5, lam=3.0, a_max=120)
    warm = rvi_solve(big_params, start=small.policy)
    cold = rvi_solve(big_params)
    assert warm.iterations < cold.iterations
    assert warm.g == pytest.approx(cold.g, abs=1e-8)


@pytest.mark.parametrize("mu, lam, a_max, start", [
    (0.5, 3.0, 50, local_only_policy), (0.01, 1.0, 120, mec_only_policy),
    (1.0, 5.0, 50, local_only_policy), (0.5, 0.0, 50, mec_only_policy),
    (0.5, 1e6, 50, local_only_policy),
])
def test_cold_start_is_the_cheaper_extreme_policy(mu, lam, a_max, start):
    # edge-only where its gain 1.5 + lam is at most local-only's (4 - mu) / (2 mu)
    params = ModelParams(mu=mu, lam=lam, a_max=a_max)
    cold, warm = rvi_solve(params), rvi_solve(params, start=start())
    assert (warm.iterations, warm.g, warm.full_thresholds) == (
        cold.iterations, cold.g, cold.full_thresholds)
    assert warm.h.tobytes() == cold.h.tobytes()


def test_cold_solve_at_an_extreme_price_keeps_local_only_gain():
    # at price 1e6 abort vectors that offload earlier than the ceiling tie with
    # local-only's within the improvement tolerance; the cold start must not
    # settle on one of them
    for mu in (0.3, 0.45, 0.7, 0.9):
        for a_max in (20, 50, 120, 400):
            params = ModelParams(mu=mu, lam=1e6, a_max=a_max)
            g0 = evaluate_exact(local_only_policy(), params).g
            assert abs(rvi_solve(params).g - g0) <= 1e-14 * g0, (mu, a_max)


def test_cold_solve_never_solves_the_full_size_system(monkeypatch):
    sizes = []
    values = mdp.delivery_values

    def spy(k, params, cycles):
        sizes.append(max(1, int(k.max())))  # the closed set 1..R the step solves
        return values(k, params, cycles)

    monkeypatch.setattr(mdp, "delivery_values", spy)
    report = rvi_solve(ModelParams(mu=0.01, lam=3.0, a_max=1600))
    assert report.converged
    assert len(sizes) == report.iterations
    assert max(sizes) <= 3


def _reference_lines(g, h, params):
    """Per delivered age ``d``, the values ``q(d, j)`` of aborting after ``j <=
    a_max - d`` slots, each summed alone in plain floats: the line
    ``(d + 1/2) slots[j] + c_j``, ``c_j = lags[j] + lam w[j] - g slots[j] +
    sum_{i < j} mu w[i] h[i]``."""
    slots, lags, w = (x.tolist() for x in cycle_table(params))
    g, h, a_max = float(g), h.tolist(), params.a_max
    future = [0.0]
    for i in range(a_max - 1):
        future.append(future[-1] + params.mu * w[i] * h[i])
    c = [lags[j] + params.lam * w[j] - g * slots[j] + future[j] for j in range(a_max)]
    return [[(d + 0.5) * slots[j] + c[j] for j in range(a_max - d + 1)]
            for d in range(1, a_max + 1)]


def test_each_step_improves_by_the_line_family_under_the_keep_rule(monkeypatch):
    # every policy-iteration step, cell by cell: an age moves to its first
    # least line only when that undercuts its current line by the keep rule's
    # margin; and outside near-ties the least line's index does not rise with
    # the delivered age, the age-threshold structure at every step
    steps = []
    values = mdp.delivery_values

    def spy(k, params, cycles):
        g, h = values(k, params, cycles)
        steps.append((k.copy(), g, h.copy()))
        return g, h

    monkeypatch.setattr(mdp, "delivery_values", spy)
    rng = np.random.default_rng(30)
    starts = [local_only_policy(), mec_only_policy(), None]
    compared = descents = 0
    for case in range(200):
        params = ModelParams(mu=float(rng.uniform(0.005, 1.0)),
                             lam=float(np.exp(rng.uniform(-3.0, 5.0))),
                             a_max=int(rng.integers(2, 81)))
        start = starts[case % 3] or threshold_table_policy(
            rng.integers(1, params.a_max + 1, size=int(rng.integers(1, 8))))
        steps.clear()
        report = rvi_solve(params, start=start)
        assert report.converged and len(steps) == report.iterations
        for i, (k, g, h) in enumerate(steps):
            lines = _reference_lines(g, h, params)
            want = []
            for kd, q in zip(k.tolist(), lines):
                best = q.index(min(q))
                keep = q[best] >= q[kd] - mdp._IMPROVE_REL_TOL * (1.0 + abs(q[kd]))
                want.append(kd if keep else best)
            nxt = steps[i + 1][0] if i + 1 < len(steps) else k
            assert nxt.tolist() == want, (case, i)
            best = [q.index(min(q)) for q in lines]
            for d, q in enumerate(lines[:-1]):
                low, second = sorted(q)[:2]
                if second - low > 1e-9 * (1.0 + abs(low)):
                    assert best[d + 1] <= best[d], (case, i, d + 1)
                    compared += 1
                    descents += best[d + 1] < best[d]
    assert compared > 15_000 and descents > 1_500


@pytest.mark.parametrize("mu, lam, a_max", [(0.5, 3.0, 50), (0.01, 1.0, 120)])
def test_every_start_reaches_the_cold_solution(mu, lam, a_max):
    # points where no two abort indices tie within the improvement tolerance
    params = ModelParams(mu=mu, lam=lam, a_max=a_max)
    cold = rvi_solve(params)
    table = np.random.default_rng(14).integers(1, a_max + 1, size=10)
    for start in (local_only_policy(), mec_only_policy(), service_threshold_policy(3),
                  threshold_table_policy(table),
                  rvi_solve(ModelParams(mu=mu, lam=lam, a_max=20)).policy):
        warm = rvi_solve(params, start=start)
        assert warm.converged
        assert abs(warm.g - cold.g) <= 1e-9
        assert warm.full_thresholds == cold.full_thresholds


def test_sweep_matches_cold_solves_and_orders_prices():
    lambdas = [3.0, 0.5, 1.5]
    sweep = sweep_lambdas(0.5, lambdas, 40)
    assert [lam for lam, _ in sweep] == [0.5, 1.5, 3.0]
    for lam, report in sweep:
        cold = rvi_solve(ModelParams(mu=0.5, lam=lam, a_max=40))
        assert report.g == pytest.approx(cold.g, abs=1e-8)
    gains = [r.g for _, r in sweep]
    assert gains == sorted(gains)  # a pricier edge cannot lower the optimal cost


# no shrink phase, so that a failure reports in seconds
@settings(max_examples=20, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(mu=st.floats(0.05, 0.95), a_max=st.integers(8, 30),
       prices=st.lists(st.floats(0.0, 20.0), min_size=5, max_size=5, unique=True))
def test_optimal_gain_is_concave_in_the_price(mu, a_max, prices):
    # g(lam) is a minimum of the affine delta + lam * p_bar over policies, so
    # the optimal p_bar bounds every chord slope from both sides:
    # p_bar(lam_i) >= (g_{i+1} - g_i) / (lam_{i+1} - lam_i) >= p_bar(lam_{i+1})
    sweep = sweep_lambdas(mu, prices, a_max)
    lams = [lam for lam, _ in sweep]
    gains = [report.g for _, report in sweep]
    p_bars = [evaluate_exact(report.policy, ModelParams(mu=mu, lam=lam, a_max=a_max)).p_bar
              for lam, report in sweep]
    for i in range(len(sweep) - 1):
        step, rise = lams[i + 1] - lams[i], gains[i + 1] - gains[i]
        assert rise >= -1e-9
        assert p_bars[i] * step + 1e-9 >= rise >= p_bars[i + 1] * step - 1e-9


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


import math

import numpy as np
import pytest

from aoi_offload.chain import (
    Policy,
    age_threshold_policy,
    evaluate_exact,
    service_threshold_policy,
    threshold_table_policy,
)
from aoi_offload.cli import lambda_grid
from aoi_offload.core import (
    LOCAL,
    MEMORY_BUDGET,
    OFFLOAD,
    RESET,
    ModelParams,
    State,
    cost,
    transitions,
    validate_whole,
)
from aoi_offload.heuristics import service_moments, service_threshold_eval, validate_z_star
from aoi_offload.mdp import brute_force_best_threshold, discounted_vi, rvi_solve
from aoi_offload.sim import SimConfig, simulate


def test_offload_always_resets():
    p = ModelParams(mu=0.37)
    out = transitions(State(3, 1), OFFLOAD, p)
    assert out == [(State(1, 0), 1.0)]


def test_local_splits_between_completion_and_progress():
    p = ModelParams(mu=0.5)
    out = transitions(State(3, 1), LOCAL, p)
    assert out == [(State(2, 0), 0.5), (State(4, 2), 0.5)]


def test_deterministic_service_collapses_to_completion():
    p = ModelParams(mu=1.0)
    assert transitions(State(1, 0), LOCAL, p) == [(State(1, 0), 1.0)]


@pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0])
@pytest.mark.parametrize("s", [State(1, 0), State(2, 1), State(7, 3), State(40, 39)])
@pytest.mark.parametrize("u", [LOCAL, OFFLOAD])
def test_probabilities_conserve_mass(mu, s, u):
    total = sum(t.prob for t in transitions(s, u, ModelParams(mu=mu)))
    assert abs(total - 1.0) <= 2.3e-16


@pytest.mark.parametrize("s", [State(1, 0), State(5, 2), State(9, 8)])
def test_age_offset_preserved_without_completion(s):
    p = ModelParams(mu=0.4)
    progress = [t.next for t in transitions(s, LOCAL, p) if t.next.z == s.z + 1]
    assert len(progress) == 1
    nxt = progress[0]
    assert nxt.a - nxt.z == s.a - s.z


def test_cost_examples():
    assert cost(State(1, 0), OFFLOAD, ModelParams(mu=0.5, lam=3.0)) == 4.5
    assert cost(State(7, 2), LOCAL, ModelParams(mu=0.5, lam=3.0)) == 7.5
    assert cost(State(1, 0), OFFLOAD, ModelParams(mu=0.5, lam=0.0)) == 1.5


def test_cost_monotone_in_age_and_action():
    p = ModelParams(mu=0.5, lam=2.0)
    for a in range(1, 20):
        assert cost(State(a + 1, 0), LOCAL, p) > cost(State(a, 0), LOCAL, p)
        assert cost(State(a, 0), OFFLOAD, p) > cost(State(a, 0), LOCAL, p)


def test_invalid_states_and_actions_rejected():
    p = ModelParams(mu=0.5)
    with pytest.raises(ValueError):
        transitions(State(0, 0), LOCAL, p)
    with pytest.raises(ValueError):
        transitions(State(3, -1), LOCAL, p)
    with pytest.raises(ValueError):
        transitions(State(3, 1), 2, p)
    with pytest.raises(ValueError):
        cost(State(0, 5), LOCAL, p)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mu=0.0),
        dict(mu=1.2),
        dict(mu=0.5, lam=-1.0),
        dict(mu=0.5, lam=float("nan")),
        dict(mu=0.5, lam=float("inf")),
        dict(mu=0.5, beta=1.0),
        dict(mu=0.5, beta=0.0),
        dict(mu=0.5, a_max=1),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_reachable_set_stays_in_triangle():
    p = ModelParams(mu=0.5)
    seen = {RESET}
    frontier = [RESET]
    for _ in range(12):  # twelve slots of closure under both actions
        nxt = []
        for s in frontier:
            for u in (LOCAL, OFFLOAD):
                for t in transitions(s, u, p):
                    if t.next not in seen:
                        seen.add(t.next)
                        nxt.append(t.next)
        frontier = nxt
    assert all(s.a >= s.z + 1 for s in seen)


def _solved(a_max):
    params = ModelParams(mu=0.5, a_max=a_max)
    report = rvi_solve(params)
    return report.g, report.full_thresholds, evaluate_exact(report.policy, params)


def _simulated(**config):
    config = {"horizon": 1000, "seed": 1, "batches": 10, **config}
    return simulate(age_threshold_policy(4, 50), ModelParams(mu=0.3), SimConfig(**config))


# entry point: (call on the whole-number input, least accepted value, a valid
# value, further inputs that must raise)
WHOLE_INPUTS = {
    "validate_whole": (lambda x: validate_whole(x, 3, "x must be an integer"), 3, 7, ()),
    "Policy": (lambda t: Policy("t", (5, t)), 1, 2, ()),
    "threshold_table_policy": (lambda t: threshold_table_policy(np.array([5.0, t])), 1, 2, ()),
    "age_threshold_policy": (lambda a: age_threshold_policy(a, 50), 1, 4, ()),
    "service_threshold_policy": (service_threshold_policy, 0, 3, ()),
    "validate_z_star": (validate_z_star, 0, 3, ()),
    "service_threshold_eval": (lambda z: service_threshold_eval(0.3, z, 2.0), 0, 3, ()),
    "service_moments": (lambda z: service_moments(0.3, z), 0, 3, ()),
    "ModelParams.a_max": (_solved, 2, 50, ()),
    "brute_force_best_threshold": (
        lambda b: brute_force_best_threshold(ModelParams(mu=0.5, lam=3.0, a_max=12), b), 1, 6, ()),
    "discounted_vi": (
        lambda n: [v.tolist() for v in discounted_vi(ModelParams(mu=0.5, a_max=6), n)], 0, 4, ()),
    "SimConfig.horizon": (lambda h: _simulated(horizon=h), 1, 1000, ()),
    # seeds outside [0, 2**64) would alias the streams of 2**64 - 5 and 1
    "SimConfig.seed": (lambda s: _simulated(seed=s), 0, 1, (-5, 2**64 + 1)),
    "SimConfig.warmup": (lambda w: _simulated(warmup=w), 0, 7, ()),
    "SimConfig.batches": (lambda b: _simulated(batches=b), 10, 10, ()),
    "lambda_grid.count": (lambda n: lambda_grid(0.01, 3.0, n).tolist(), 1, 2, ()),
}


@pytest.mark.parametrize("entry", WHOLE_INPUTS)
def test_whole_number_inputs_are_checked_and_normalised(entry):
    # every count, size, seed and threshold reads through validate_whole: a
    # non-whole, infinite, NaN or too small input raises ValueError, and a
    # whole float or numpy scalar gives the same result as the int
    call, least, valid, more_bad = WHOLE_INPUTS[entry]
    for bad in (math.inf, -math.inf, math.nan, 2.5, least - 1, *more_bad):
        with pytest.raises(ValueError):
            call(bad)
    want = call(valid)
    for same in (float(valid), np.float64(valid), np.int64(valid)):
        assert call(same) == want


def test_whole_inputs_are_stored_as_ints():
    params = ModelParams(mu=0.5, a_max=50.0)
    config = SimConfig(horizon=1000.0, seed=np.float64(1.0), warmup=np.int64(7), batches=10.0)
    stored = [params.a_max, config.horizon, config.seed, config.warmup, config.batches]
    assert stored == [50, 1000, 1, 7, 10]
    assert all(type(x) is int for x in stored)
    assert SimConfig(horizon=1000, seed=2**64 - 1).seed == 2**64 - 1


def test_counts_past_the_memory_budget_are_refused():
    most = MEMORY_BUDGET // 56_000
    assert lambda_grid(0.01, 3.0, most).size == most
    with pytest.raises(ValueError, match=f"lambda-count {most + 1} exceeds {most}"):
        lambda_grid(0.01, 3.0, most + 1)
    most = MEMORY_BUDGET // 40
    assert SimConfig(horizon=most, seed=1, warmup=0, batches=most).batches == most
    with pytest.raises(ValueError, match=f"batches {most + 1} exceeds {most}"):
        SimConfig(horizon=10**13, seed=1, batches=most + 1)


@pytest.mark.parametrize("lo, hi", [(3.0, 0.01), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                    (1.0, math.inf), (math.nan, 1.0)])
def test_price_grid_needs_rising_positive_finite_ends(lo, hi):
    with pytest.raises(ValueError):
        lambda_grid(lo, hi, 3)

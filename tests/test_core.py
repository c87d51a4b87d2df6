
import pytest

from aoi_offload.core import (
    LOCAL,
    OFFLOAD,
    RESET,
    ModelParams,
    State,
    cost,
    transitions,
)


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

import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from aoi_offload import sim as sim_module
from aoi_offload.chain import (
    NEVER_OFFLOAD,
    abort_rule,
    age_threshold_policy,
    build_chain,
    local_only_policy,
    mec_only_policy,
    service_threshold_policy,
    stationary,
    threshold_table_policy,
)
from aoi_offload.core import ModelParams, State
from aoi_offload.heuristics import local_only, service_threshold_eval
from aoi_offload.sim import _CHUNK, SimConfig, SimResult, batch_stderr, simulate, uniforms


def replay_states(policy, mu, seed, n):
    """Third, loop-free-of-the-kernel implementation of the slot dynamics,
    used to audit the kernel against the shared uniform stream."""
    draws = uniforms(seed, 0, n)
    a, z = 1, 0
    states = []
    for k in range(n):
        states.append((a, z))
        if policy.action(a, z) == 1:
            a, z = 1, 0
        elif draws[k] < mu:
            a, z = z + 1, 0
        else:
            a, z = a + 1, z + 1
    return states


def test_uniforms_are_a_pure_function_of_slot_index():
    u = uniforms(7, 0, 100)
    assert np.array_equal(u[50:], uniforms(7, 50, 50))
    assert np.array_equal(u, uniforms(7, 0, 100))
    assert ((0.0 <= u) & (u < 1.0)).all()
    assert not np.array_equal(u, uniforms(8, 0, 100))


def splitmix64_uniform(seed, n):
    """Slot-n uniform from the module docstring's recipe, in Python ints."""
    mask = (1 << 64) - 1
    x = (seed + (n + 1) * 0x9E3779B97F4A7C15) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return (x >> 11) * 2.0**-53


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 12345, 2**40])
def test_uniforms_match_python_splitmix64(seed, start):
    for count in (1, 7, _CHUNK):
        want = [splitmix64_uniform(seed, start + i) for i in range(count)]
        assert uniforms(seed, start, count).tolist() == want


def test_uniforms_look_uniform():
    u = uniforms(123, 0, 200_000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs((u < 0.25).mean() - 0.25) < 0.005


def test_always_offload_is_exact():
    res = simulate(mec_only_policy(), ModelParams(mu=0.3), SimConfig(horizon=200_000, seed=5))
    assert res.delta_hat == 1.5
    assert res.p_bar_hat == 1.0
    assert res.stderr_delta == 0.0
    assert res.stderr_p == 0.0


def test_deterministic_service_is_exact():
    res = simulate(local_only_policy(), ModelParams(mu=1.0), SimConfig(horizon=200_000, seed=5))
    assert res.delta_hat == 1.5
    assert res.p_bar_hat == 0.0


def test_matches_local_only_formula():
    res = simulate(local_only_policy(), ModelParams(mu=0.5),
                   SimConfig(horizon=2_000_000, seed=11))
    assert abs(res.delta_hat - local_only(0.5).delta) <= 3 * res.stderr_delta
    assert res.p_bar_hat == 0.0


def test_matches_service_threshold_closed_form():
    closed = service_threshold_eval(0.5, 1)
    res = simulate(service_threshold_policy(1), ModelParams(mu=0.5),
                   SimConfig(horizon=2_000_000, seed=12))
    assert abs(res.delta_hat - closed.delta) <= 3 * res.stderr_delta
    assert abs(res.p_bar_hat - closed.p_bar) <= 3 * res.stderr_p


def test_identical_runs_are_bit_identical():
    cfg = SimConfig(horizon=300_000, seed=99)
    pol = threshold_table_policy((6, 4, 2))
    a = simulate(pol, ModelParams(mu=0.4), cfg)
    b = simulate(pol, ModelParams(mu=0.4), cfg)
    assert a == b
    c = simulate(pol, ModelParams(mu=0.4), SimConfig(horizon=300_000, seed=100))
    assert c != a


def test_kernel_agrees_with_replay():
    pol = threshold_table_policy((5, 3, 2))
    params = ModelParams(mu=0.45)
    n = 50_000
    states = replay_states(pol, params.mu, seed=21, n=n)
    ages = sum(a for a, _ in states)
    offloads = sum(1 for a, z in states if pol.action(a, z) == 1)
    res = simulate(pol, params, SimConfig(horizon=n, seed=21, warmup=0, batches=10))
    assert res.slots == n
    assert res.delta_hat == ages / n + 0.5
    assert res.p_bar_hat == offloads / n


@pytest.mark.parametrize("policy", [
    threshold_table_policy((5, 3, 2)),
    threshold_table_policy((9, 7, 5, 3, 1), name="diagonal"),
], ids=lambda p: p.name)
def test_batch_sums_match_replay(policy):
    # warmup, batch size and chunk size align with none of each other, and
    # the run spans four chunks
    params = ModelParams(mu=0.4)
    cfg = SimConfig(horizon=60_001, seed=5, warmup=5_003, batches=11)
    size = (cfg.horizon - cfg.warmup) // cfg.batches
    total = cfg.warmup + size * cfg.batches
    assert total > 3 * _CHUNK and _CHUNK % size and cfg.warmup % size and cfg.warmup % _CHUNK
    states = replay_states(policy, params.mu, cfg.seed, total)[cfg.warmup:]
    age_sums = [sum(a for a, _ in states[b * size:(b + 1) * size]) for b in range(cfg.batches)]
    mec_sums = [sum(policy.action(a, z) for a, z in states[b * size:(b + 1) * size])
                for b in range(cfg.batches)]
    expected = SimResult(
        delta_hat=sum(age_sums) / (size * cfg.batches) + 0.5,
        p_bar_hat=sum(mec_sums) / (size * cfg.batches),
        stderr_delta=batch_stderr([s / size for s in age_sums]),
        stderr_p=batch_stderr([s / size for s in mec_sums]),
        slots=size * cfg.batches,
    )
    assert simulate(policy, params, cfg) == expected


def replay_result(policy, mu, cfg):
    """The ``SimResult`` built from ``replay_states`` batch sums, as in
    ``test_batch_sums_match_replay``."""
    warmup = cfg.resolved_warmup()
    size = (cfg.horizon - warmup) // cfg.batches
    states = replay_states(policy, mu, cfg.seed, warmup + size * cfg.batches)[warmup:]
    age_sums = [sum(a for a, _ in states[b * size:(b + 1) * size]) for b in range(cfg.batches)]
    mec_sums = [sum(policy.action(a, z) for a, z in states[b * size:(b + 1) * size])
                for b in range(cfg.batches)]
    return SimResult(
        delta_hat=sum(age_sums) / (size * cfg.batches) + 0.5,
        p_bar_hat=sum(mec_sums) / (size * cfg.batches),
        stderr_delta=batch_stderr([s / size for s in age_sums]),
        stderr_p=batch_stderr([s / size for s in mec_sums]),
        slots=size * cfg.batches,
    )


# no shrink phase: every example replays chunks slot by slot in Python, so
# shrinking a failure took minutes before it was reported
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(
    table=st.lists(st.integers(1, 12), min_size=1, max_size=5),
    mu=st.floats(0.005, 1.0),
    seed=st.integers(0, 2**64 - 1),
    warmup=st.integers(1, 2 * _CHUNK),
    span=st.integers(_CHUNK + 100, 2 * _CHUNK),
    batches=st.integers(10, 23),
)
def test_kernel_matches_replay_on_random_tables(table, mu, seed, warmup, span, batches):
    # tables of length 1 are age thresholds; longer ones make k_d depend on d
    # in other ways
    policy = threshold_table_policy(table)
    cfg = SimConfig(horizon=warmup + span, seed=seed, warmup=warmup, batches=batches)
    size = span // batches
    assume(_CHUNK % size and warmup % size and warmup % _CHUNK)
    assert warmup + size * batches > _CHUNK  # at least two chunks
    assert simulate(policy, ModelParams(mu=mu), cfg) == replay_result(policy, mu, cfg)


def test_success_on_the_last_slot_of_a_chunk():
    mu = 0.3
    seed = next(s for s in range(1_000) if uniforms(s, _CHUNK - 1, 1)[0] < mu
                and uniforms(s, 2 * _CHUNK - 1, 1)[0] < mu)
    cfg = SimConfig(horizon=3 * _CHUNK + 17, seed=seed, warmup=1_001, batches=13)
    for policy in (threshold_table_policy((5, 3, 2)), service_threshold_policy(2),
                   threshold_table_policy((9, 7, 5, 3, 1), name="diagonal")):
        assert simulate(policy, ModelParams(mu=mu), cfg) == replay_result(policy, mu, cfg)


@pytest.mark.parametrize("policy", [
    local_only_policy(),
    service_threshold_policy(20_000),
    age_threshold_policy(25_000, a_max=10**6),
    threshold_table_policy((30_000, 20_000, 18_000)),
], ids=lambda p: p.name)
def test_cycle_carried_across_chunks(policy):
    # cycles far longer than a chunk: ages above _CHUNK, offloads and
    # deliveries in the middle of a carried cycle
    mu, seed = 2e-5, 3
    cfg = SimConfig(horizon=5 * _CHUNK + 3, seed=seed, warmup=7, batches=10)
    assert max(a for a, _ in replay_states(policy, mu, seed, cfg.horizon)) > _CHUNK
    assert simulate(policy, ModelParams(mu=mu), cfg) == replay_result(policy, mu, cfg)


@pytest.mark.parametrize("policy", [
    local_only_policy(),
    service_threshold_policy(20_000),
    age_threshold_policy(25_000, a_max=10**6),
    threshold_table_policy((30_000, 20_000, 18_000)),
], ids=lambda p: p.name)
def test_open_cycle_carried_across_kernel_calls(monkeypatch, policy):
    # a kernel call spans blocks until it holds a block's worth of segments,
    # so at low mu it covers many blocks; with 31-slot blocks the run still
    # takes several calls, and a cycle open at a call's end runs on for more
    # than a block in the next one
    block = 31
    monkeypatch.setattr(sim_module, "_CHUNK", block)
    carried = []  # per call: service slots of the cycle carried in, and its whole length
    kernel = sim_module._chunk

    def spy(ends, abort_at, d, z, cuts, work):
        carried.append((z, int(ends[0]) + z))
        return kernel(ends, abort_at, d, z, cuts, work)

    monkeypatch.setattr(sim_module, "_chunk", spy)
    mu = 0.005
    cfg = SimConfig(horizon=20_000, seed=3, warmup=7, batches=10)
    assert simulate(policy, ModelParams(mu=mu), cfg) == replay_result(policy, mu, cfg)
    assert len(carried) >= 3
    assert any(z > 0 and length > block for z, length in carried[1:])


def test_a_span_keeps_no_per_slot_array_beyond_one_block():
    # about 20 successes in 2 * 10**7 slots: one kernel call spans the whole
    # run, where a bool mask of the span alone would take 19 MiB
    tracemalloc.start()
    try:
        simulate(local_only_policy(), ModelParams(mu=1e-6), SimConfig(horizon=2 * 10**7, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("policy", [
    threshold_table_policy((5, 3, 2)),
    local_only_policy(),
    mec_only_policy(),
    service_threshold_policy(1),
    threshold_table_policy((9, 7, 5, 3, 1), name="diagonal"),
], ids=lambda p: p.name)
def test_every_slot_succeeds_at_mu_one(policy):
    cfg = SimConfig(horizon=2 * _CHUNK + 5, seed=8, warmup=3, batches=10)
    assert simulate(policy, ModelParams(mu=1.0), cfg) == replay_result(policy, 1.0, cfg)


def slot_prefix(x, d, k, k1):
    """Age total and offload count of the first ``x`` slots after a delivery
    at age ``d`` with no success among them, stepped slot by slot: the first
    cycle offloads at service slot ``k``, later ones at ``k1``."""
    a, z, limit, ages, offloads = d, 0, k, 0, 0
    for _ in range(x):
        ages += a
        if z == limit:
            offloads += 1
            a, z, limit = 1, 0, k1
        else:
            a, z = a + 1, z + 1
    return ages, offloads


def closed_prefix(x, d, k, k1):
    """The same totals from the kernel's closed form."""
    period = k1 + 1
    head, off, cycles, rest = sim_module._split(x, np.minimum(k, x), period)
    ages = sim_module._age_total(head, d, rest) + cycles * (period * (period + 1) // 2)
    return ages, off + cycles


def test_closed_form_prefix_matches_slot_by_slot_sums():
    # x = 0, k = 0 (edge only), k1 = 0, k >= x (no abort) and the uncapped
    # local-only k = NEVER_OFFLOAD - d, for every small combination
    grid = [(x, d, k, k1) for x, d, k1 in itertools.product(range(26), range(1, 6), range(7))
            for k in (*range(9), NEVER_OFFLOAD - d)]
    x, d, k, k1 = (np.array(col, dtype=np.int64) for col in zip(*grid))
    want = np.array([slot_prefix(*case) for case in grid])
    for col in np.unique(k1):  # the period is one number per chunk
        at = k1 == col
        ages, offloads = closed_prefix(x[at], d[at], k[at], int(col))
        assert np.array_equal(ages, want[at, 0]) and np.array_equal(offloads, want[at, 1])
    # the scalar path that reads totals at the cuts
    assert all(tuple(map(int, closed_prefix(*case))) == tuple(want[i])
               for i, case in enumerate(grid))
    # local-only, uncapped in both cycles: the period is 2**31
    local = (40, 3, NEVER_OFFLOAD - 3, NEVER_OFFLOAD - 1)
    assert closed_prefix(*local) == slot_prefix(*local)


@pytest.mark.parametrize("chunk", [997, 4097])
def test_results_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # the warmup spans more than one patched chunk, so whole chunks are warmup
    cfg = SimConfig(horizon=40_000, seed=6, warmup=9_001, batches=13)
    policies = [threshold_table_policy((5, 3, 2)), age_threshold_policy(4, 50), mec_only_policy(),
                local_only_policy(), service_threshold_policy(2)]
    cases = [(policy, ModelParams(mu=mu)) for policy in policies for mu in (0.05, 0.4, 0.8)]
    default = [simulate(policy, params, cfg) for policy, params in cases]
    monkeypatch.setattr(sim_module, "_CHUNK", chunk)
    assert [simulate(policy, params, cfg) for policy, params in cases] == default


def test_perfbench_sim_workloads_match_their_recorded_digests(tmp_path, monkeypatch):
    # the benchmark's default-seed reference values, bit for bit, so that a
    # kernel change that moves any simulated total fails here too
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root))
    from perfbench import workloads

    recorded = json.loads((root / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    for name in ("sim_short", "sim_long"):
        workload = workloads.build(name, 1, tmp_path, recorded[name])
        for op in workload.ops:
            digest, failure = op.verify(op.call())
            assert failure is None, f"{op.label}: {failure}"
            assert digest == op.recorded, op.label


def test_a_huge_table_is_read_once_per_run(monkeypatch):
    calls = 0

    def counting(policy):
        nonlocal calls
        calls += 1
        return abort_rule(policy)

    monkeypatch.setattr(sim_module, "abort_rule", counting)
    params, cfg = ModelParams(mu=0.01), SimConfig(horizon=200_000, seed=1)
    # no cycle of the run lasts 10**6 slots, so the table acts as local-only;
    # its 10**6 + 1 entries are read once, not once per chunk
    huge = simulate(service_threshold_policy(10**6), params, cfg)
    assert calls == 1
    assert huge == simulate(local_only_policy(), params, cfg)
    assert calls == 2


def test_batch_stderr_basics():
    assert batch_stderr([2.0] * 15) == 0.0
    with pytest.raises(ValueError):
        batch_stderr([1.0] * 9)
    rng = np.random.default_rng(0)
    batches = rng.binomial(10_000, 0.5, size=400) / 10_000
    analytic = math.sqrt(0.25 / 10_000 / 400)
    assert abs(batch_stderr(batches) - analytic) / analytic < 0.2


def test_stderr_shrinks_with_horizon():
    pol = service_threshold_policy(2)
    params = ModelParams(mu=0.3)
    short = simulate(pol, params, SimConfig(horizon=100_000, seed=8))
    long = simulate(pol, params, SimConfig(horizon=1_600_000, seed=8))
    assert long.stderr_delta < short.stderr_delta


def test_completion_runs_are_geometric():
    # under never-abort dynamics the completion indicator per slot is an
    # independent Bernoulli(mu), so gaps between completions are geometric
    mu, n = 0.3, 400_000
    draws = uniforms(17, 0, n)
    hits = np.flatnonzero(draws < mu)
    gaps = np.diff(hits)
    total = gaps.size
    for k in range(1, 11):
        expected = mu * (1 - mu) ** (k - 1)
        observed = (gaps == k).mean()
        se = math.sqrt(expected * (1 - expected) / total)
        assert abs(observed - expected) <= 3 * se


def test_reset_occupancy_matches_stationary_distribution():
    pol = threshold_table_policy((5, 3, 2))
    params = ModelParams(mu=0.45, a_max=30)
    n = 200_000
    states = replay_states(pol, params.mu, seed=33, n=n)
    frac = sum(1 for s in states if s == (1, 0)) / n
    chain = build_chain(pol, params)
    pi_reset = stationary(chain).probs[chain.index[State(1, 0)]]
    se = math.sqrt(pi_reset * (1 - pi_reset) / n) * 3  # iid bound, generous scale
    assert abs(frac - pi_reset) <= 3 * se


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(horizon=100, seed=1, warmup=100)
    with pytest.raises(ValueError):
        SimConfig(horizon=100, seed=1, batches=5)
    with pytest.raises(ValueError):
        SimConfig(horizon=15, seed=1, warmup=10)


def test_warmup_defaults_to_one_percent():
    cfg = SimConfig(horizon=1_000_000, seed=1)
    assert cfg.resolved_warmup() == 10_000
    assert SimConfig(horizon=500, seed=1, warmup=7).resolved_warmup() == 7


def test_counted_slots_are_whole_batches():
    res = simulate(mec_only_policy(), ModelParams(mu=0.5),
                   SimConfig(horizon=100_007, seed=1, warmup=7, batches=20))
    assert res.slots == (100_007 - 7) // 20 * 20

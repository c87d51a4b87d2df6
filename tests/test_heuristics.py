
from fractions import Fraction

import pytest

from aoi_offload.heuristics import (
    EvalResult,
    Z_STAR_CAP,
    local_only,
    mec_only,
    service_moments,
    service_threshold_eval,
)


def service_threshold_age_expanded(mu, z_star):
    """Average age of the abort policy as one fraction over the cycle length.

    Algebraically identical to the moment form in ``service_threshold_eval``;
    kept as an independent expansion for cross-checking.  Note the middle
    numerator's ``z_star * q`` term carries a factor ``mu`` (dropping it is a
    tempting transcription slip that breaks the identity).
    """
    mubar = 1.0 - mu
    q = mubar**z_star
    head = mu * z_star + mubar
    denom = 2.0 * mu * (1.0 - mubar ** (z_star + 1))
    t1 = 2.0 * (1.0 - q * head - mubar ** (z_star + 1) + mubar ** (2 * z_star + 1) * head)
    t2 = mu**2 * q * (z_star + 1) + mu - mu * q * z_star - mu * q
    t3 = 2.0 * mubar - mubar ** (z_star + 1) * (2.0 + z_star * mu)
    return (t1 + t2 + t3) / denom


def enumerated_moments(mu, z_star):
    """Independent oracle: sum the z_star + 1 atoms of the capped service
    time S = min(Z, z_star + 1) and the delivered age Y directly."""
    mubar = 1.0 - mu
    e_s = e_s2 = e_y = 0.0
    for j in range(1, z_star + 1):
        w = mu * mubar ** (j - 1)
        e_s += j * w
        e_s2 += j * j * w
        e_y += j * w
    tail = mubar**z_star
    e_s += (z_star + 1) * tail
    e_s2 += (z_star + 1) ** 2 * tail
    e_y += 1.0 * tail
    return e_s, e_s2, e_y


def test_local_only_values():
    assert local_only(1.0).delta == 1.5
    assert local_only(0.5).delta == 3.5
    assert local_only(0.01).delta == 199.5
    assert local_only(0.5).p_bar == 0.0
    assert local_only(0.5, lam=7.0).g == 3.5  # edge never used, price irrelevant


@pytest.mark.parametrize("mu", [0.0, -0.1, 1.5])
def test_local_only_rejects_bad_rates(mu):
    with pytest.raises(ValueError):
        local_only(mu)


def test_mec_only_values():
    res = mec_only()
    assert (res.delta, res.p_bar) == (1.5, 1.0)
    assert mec_only(lam=3.0).g == 4.5
    assert res.delta == local_only(1.0).delta


def test_service_moments_examples():
    m = service_moments(0.5, 1)
    assert m.e_s == pytest.approx(1.5, abs=1e-15)
    assert m.e_y == pytest.approx(1.0, abs=1e-15)
    assert m.e_s2 == pytest.approx(2.5, abs=1e-15)
    for mu in (0.2, 0.7, 1.0):
        m = service_moments(mu, 0)
        assert (m.e_s, m.e_s2, m.e_y) == (1.0, 1.0, 1.0)
    m = service_moments(1.0, 5)
    assert (m.e_s, m.e_s2, m.e_y) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
@pytest.mark.parametrize("z_star", range(7))
def test_moments_match_enumeration(mu, z_star):
    m = service_moments(mu, z_star)
    e_s, e_s2, e_y = enumerated_moments(mu, z_star)
    assert m.e_s == pytest.approx(e_s, abs=1e-12)
    assert m.e_s2 == pytest.approx(e_s2, abs=1e-12)
    assert m.e_y == pytest.approx(e_y, abs=1e-12)


def test_moment_consistency_bounds():
    for mu in (0.2, 0.5, 0.8):
        for z_star in (0, 1, 4, 9):
            m = service_moments(mu, z_star)
            assert m.e_s >= 1.0
            assert m.e_y >= 1.0 - 1e-15
            assert m.e_s2 >= m.e_s**2 - 1e-12


def test_service_threshold_example():
    res = service_threshold_eval(0.5, 1)
    assert res.delta == pytest.approx(11.0 / 6.0, abs=1e-15)
    assert res.p_bar == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert service_threshold_eval(0.5, 1, lam=3.0).g == pytest.approx(11 / 6 + 1.0, abs=1e-12)


@pytest.mark.parametrize("mu", [0.2, 0.3, 0.5, 0.9])
def test_zero_threshold_degenerates_to_edge_only(mu):
    res = service_threshold_eval(mu, 0)
    assert res.delta == pytest.approx(1.5, abs=1e-12)
    assert res.p_bar == pytest.approx(1.0, abs=1e-12)


def test_large_threshold_approaches_local_only():
    res = service_threshold_eval(0.5, 200)
    assert res.delta == pytest.approx(local_only(0.5).delta, abs=1e-6)
    assert res.p_bar == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("mu", [0.1 * k for k in range(1, 10)])
@pytest.mark.parametrize("z_star", range(21))
def test_expanded_form_agrees_with_moment_form(mu, z_star):
    compact = service_threshold_eval(mu, z_star).delta
    expanded = service_threshold_age_expanded(mu, z_star)
    assert abs(expanded - compact) / compact <= 1e-9


@pytest.mark.parametrize("mu", [0.3, 0.5, 0.8])
def test_independent_cycle_decomposition(mu):
    # the per-cycle area E[Y S] + E[S^2]/2 over E[S], with E[Y S] = E[Y] E[S]
    for z_star in range(8):
        m = service_moments(mu, z_star)
        direct = (m.e_y * m.e_s + 0.5 * m.e_s2) / m.e_s
        assert service_threshold_eval(mu, z_star).delta == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("mu", [0.2, 0.5, 0.8])
def test_monotone_in_threshold(mu):
    prev = service_threshold_eval(mu, 0)
    for z_star in range(1, 25):
        cur = service_threshold_eval(mu, z_star)
        assert cur.p_bar < prev.p_bar
        assert cur.delta >= prev.delta - 1e-12
        prev = cur


@pytest.mark.parametrize("mu", [1e-12, 1e-9, 1e-6, 1e-4, 0.01, 0.5, 0.9])
@pytest.mark.parametrize("z_star", [1, 2, 5, 100])
def test_closed_form_matches_exact_rationals(mu, z_star):
    # the renewal sums over the cycle's slots, exactly, at the float's own mu
    m = Fraction(mu)
    x = 1 - m
    e_s = sum(x**j for j in range(z_star + 1))
    e_s2 = sum((2 * j + 1) * x**j for j in range(z_star + 1))
    e_y = sum(j * m * x ** (j - 1) for j in range(1, z_star + 1)) + x**z_star
    moments = service_moments(mu, z_star)
    res = service_threshold_eval(mu, z_star)
    for got, want in ((moments.e_s, e_s), (moments.e_s2, e_s2), (moments.e_y, e_y),
                      (res.delta, e_y + e_s2 / (2 * e_s)), (res.p_bar, x**z_star / e_s)):
        assert abs(Fraction(got) - want) <= 1e-13 * want


def test_threshold_cap_and_validation():
    with pytest.raises(ValueError):
        service_moments(0.5, -1)
    with pytest.raises(ValueError):
        service_moments(0.5, Z_STAR_CAP + 1)
    with pytest.raises(ValueError):
        service_threshold_eval(0.5, 2.5)


def test_eval_result_guards():
    with pytest.raises(ValueError):
        EvalResult(delta=1.0, p_bar=0.5, g=1.0)
    with pytest.raises(ValueError):
        EvalResult(delta=2.0, p_bar=1.5, g=2.0)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
def test_closed_forms_reject_bad_prices(lam):
    for evaluate in (lambda: local_only(0.5, lam), lambda: mec_only(lam),
                     lambda: service_threshold_eval(0.5, 1, lam)):
        with pytest.raises(ValueError):
            evaluate()
    assert mec_only(1e6).g == 1.5 + 1e6

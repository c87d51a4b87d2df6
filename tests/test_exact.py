"""Exact rational references for small instances, on stdlib ``fractions``.

With a rational ``mu`` and price every delivery-cycle sum is a finite sum
of rationals, so renewal reward on the delivery-age chain gives the average
cost exactly.  The float solver, evaluator, closed forms and cycle sums are
bounded against it in units in the last place (ulps) of the exact value.
"""

import math
from fractions import Fraction

import pytest

from aoi_offload.chain import (abort_indices, cycle_table, delivery_values, evaluate_exact,
                               occurring_ages, service_threshold_policy, threshold_table_policy)
from aoi_offload.core import ModelParams
from aoi_offload.heuristics import service_threshold_eval
from aoi_offload.mdp import _abort_vectors, rvi_solve

MUS = [Fraction(1, 2), Fraction(3, 10), Fraction(7, 10), Fraction(1, 10), Fraction(1, 100)]

#: Every on-path behaviour of a table with entries up to 8, as abort vectors.
VECTORS = [tuple(int(x) for x in row) for group in _abort_vectors(8) for row in group]


def _solve(a):
    """Solution of the augmented rational system ``a`` by Gauss-Jordan elimination."""
    n = len(a)
    for c in range(n):
        pivot = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            f = a[i][c]
            if i != c and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[-1] for row in a]


def exact_eval(k, mu: Fraction) -> tuple[Fraction, Fraction]:
    """Average age ``delta`` and edge-use frequency ``p_bar`` of the abort
    indices ``k[d - 1]`` on the occurring delivery ages ``1..r`` (each
    ``k_d <= r``): the cycle from ``d`` reaches slot ``j`` with probability
    ``(1 - mu)**j``, delivers age ``j + 1`` there with probability ``mu``
    while ``j < k_d``, and offloads at slot ``k_d``."""
    r = len(k)
    w = [(1 - mu) ** j for j in range(r + 1)]
    move = [[mu * w[e] if e < kd else Fraction(0) for e in range(r)] for kd in k]
    for d, kd in enumerate(k):
        move[d][0] += w[kd]
    # balance equations nu (P - I) = 0, the first replaced by sum nu = 1
    balance = [[move[d][e] - (d == e) for d in range(r)] + [Fraction(0)] for e in range(r)]
    balance[0] = [Fraction(1)] * (r + 1)
    nu = _solve(balance)
    slots = [sum(w[:kd + 1]) for kd in k]
    age = [(d + Fraction(3, 2)) * s + sum(j * w[j] for j in range(kd + 1))
           for d, (kd, s) in enumerate(zip(k, slots))]
    cycle = sum(n * s for n, s in zip(nu, slots))
    return sum(n * a for n, a in zip(nu, age)) / cycle, sum(n * w[kd] for n, kd in zip(nu, k)) / cycle


def exact_gain(k, mu: Fraction, lam: Fraction) -> Fraction:
    """Average cost ``delta + lam * p_bar`` of the abort indices ``k``, as in ``exact_eval``."""
    delta, p_bar = exact_eval(k, mu)
    return delta + lam * p_bar


def on_path(policy, a_max: int) -> tuple[int, ...]:
    """The policy's abort indices on the ages it delivers at ceiling ``a_max``."""
    k = abort_indices(policy, a_max)
    return tuple(int(x) for x in k[:occurring_ages(k)])


def lower_envelope(points, hi):
    """Vertices of the lower envelope of the lines ``delta + lam * p_bar``
    over the prices ``[0, hi]``, ``points`` mapping each key to its
    ``(p_bar, delta)``, and the prices at which the envelope changes vertex;
    at a tie the flatter line wins, as it does past the tie."""
    key = min(points, key=lambda v: points[v][::-1])
    vertices, breaks = [key], []
    while True:
        p, d = points[key]
        meets = [((dv - d) / (p - pv), pv, v) for v, (pv, dv) in points.items() if pv < p]
        if not meets or min(meets)[0] > hi:
            return vertices, breaks
        price, _, key = min(meets)
        vertices.append(key)
        breaks.append(price)


def ulps(x: float, exact: Fraction) -> float:
    return float(abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact))))


def test_criterion_5_costs_are_exact():
    # the solver's table (5, 3, 2, 1) and the best table reading (4, 3) in
    # columns 1 and 2, (6, 4, 3, 1), on the ages they deliver
    assert on_path(rvi_solve(ModelParams(mu=0.5, lam=3.0, a_max=50)).policy, 50) == (2, 1)
    assert on_path(threshold_table_policy((6, 4, 3, 1)), 50) == (2, 2)
    assert exact_gain((2, 1), Fraction(1, 2), Fraction(3)) == Fraction(93, 34)
    assert exact_gain((2, 2), Fraction(1, 2), Fraction(3)) == Fraction(77, 28)


@pytest.mark.parametrize("mu", [Fraction(1, 2), Fraction(3, 10), Fraction(7, 10)], ids=str)
def test_solver_and_evaluator_gains_are_within_ulps_of_exact(mu):
    # measured at most 0.64 and 1.37 ulp, both at mu 7/10
    params = ModelParams(mu=float(mu), lam=3.0, a_max=50)
    report = rvi_solve(params)
    exact = exact_gain(on_path(report.policy, 50), mu, Fraction(3))
    assert ulps(report.g, exact) <= 1
    assert ulps(evaluate_exact(report.policy, params).g, exact) <= 2


@pytest.mark.parametrize("mu", MUS, ids=str)
def test_cycle_vectors_are_within_ulps_of_exact_sums(mu):
    # exact at the float's own base, so only the sums' rounding counts;
    # measured at most 0.59, 3.1 and 4.2 ulp
    base = Fraction(1.0 - float(mu))
    slots, lags, w = cycle_table(ModelParams(mu=float(mu), a_max=50))
    for k in range(50):
        reach = [base ** j for j in range(k + 1)]
        assert ulps(w[k], reach[-1]) <= 1
        assert ulps(slots[k], sum(reach)) <= 4
        assert ulps(lags[k], sum(j * r for j, r in enumerate(reach))) <= 5


@pytest.mark.parametrize("mu", MUS, ids=str)
def test_evaluator_and_closed_form_are_within_ulps_of_exact(mu):
    # exact at the float's own mu, so the input's rounding, which p_bar
    # amplifies to 18 ulp at mu 7/10 and price 30, does not count; measured
    # at most 2.3 and 2.3 ulp (evaluator), 4.6 and 3.1 ulp (closed form)
    own = Fraction(float(mu))
    for lam in (1.0, 3.0, 10.0, 30.0):
        params = ModelParams(mu=float(mu), lam=lam, a_max=50)
        for policy in (rvi_solve(params).policy, service_threshold_policy(2),
                       threshold_table_policy((5, 3, 2))):
            delta, p_bar = exact_eval(on_path(policy, 50), own)
            point = evaluate_exact(policy, params)
            assert ulps(point.delta, delta) <= 3
            assert ulps(point.p_bar, p_bar) <= 3
    for z in range(9):
        delta, p_bar = exact_eval((z,) * max(z, 1), own)
        closed = service_threshold_eval(float(mu), z)
        assert ulps(closed.delta, delta) <= 5
        assert ulps(closed.p_bar, p_bar) <= 4


@pytest.mark.parametrize("mu", [Fraction(1, 2), Fraction(3, 10), Fraction(7, 10)], ids=str)
def test_oracle_gains_are_within_ulps_of_exact(mu):
    # exact at the float's own mu; measured at most 2.59 ulp over the 34 vectors
    own = Fraction(float(mu))
    params = ModelParams(mu=float(mu), lam=3.0, a_max=8)
    for k in _abort_vectors(8):
        for row, g in zip(k, delivery_values(k, params, cycle_table(params))[0]):
            assert ulps(g, exact_gain(tuple(int(x) for x in row), own, Fraction(3))) <= 4


def assert_envelope_is_exact(mu: Fraction, vertices, breaks) -> None:
    """Neighbouring vertices tie exactly at each break, and the solver returns
    each interval's vertex on path at its midpoint."""
    for left, right, price in zip(vertices, vertices[1:], breaks):
        assert exact_gain(left, mu, price) == exact_gain(right, mu, price)
    for k, lo, hi in zip(vertices, [0, *breaks], breaks):
        report = rvi_solve(ModelParams(mu=float(mu), lam=float((lo + hi) / 2), a_max=50))
        assert on_path(report.policy, 50) == k


def test_price_breakpoints_at_one_half_are_exact():
    # the envelope over the abort vectors is the optimal cost g*(lam)
    mu = Fraction(1, 2)
    assert len(VECTORS) == 34
    vertices, breaks = lower_envelope({k: exact_eval(k, mu)[::-1] for k in VECTORS}, 6)
    assert vertices == [(0,), (1,), (2, 1), (2, 2), (3, 2, 2), (3, 3, 2)]
    assert [exact_eval(k, mu)[::-1] for k in vertices] == [
        (1, Fraction(3, 2)), (Fraction(1, 3), Fraction(11, 6)),
        (Fraction(3, 17), Fraction(75, 34)), (Fraction(1, 7), Fraction(65, 28)),
        (Fraction(1, 11), Fraction(227, 88)), (Fraction(5, 67), Fraction(1435, 536))]
    # (2, 2), the on-path form of criterion 5's reference (4, 3), is
    # optimal exactly on [55/16, 159/32]
    assert breaks == [Fraction(1, 2), Fraction(19, 8), Fraction(55, 16), Fraction(159, 32), 6]
    assert_envelope_is_exact(mu, vertices, breaks)


@pytest.mark.parametrize("mu, vertices, breaks", [
    (Fraction(3, 10), [(0,), (1,), (2, 1), (2, 2), (3, 2, 1)],
     [Fraction(7, 10), Fraction(2757, 1000), Fraction(45399, 10000), Fraction(4703421, 790000)]),
    (Fraction(7, 10), [(0,), (1,), (2, 1), (2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3), (4, 3, 3, 3)],
     [Fraction(3, 10), Fraction(1873, 1000), Fraction(23719, 10000), Fraction(372437, 100000),
      Fraction(104351, 25000), Fraction(4625411, 1000000), Fraction(56058333, 10000000)]),
], ids=["3/10", "7/10"])
def test_price_breakpoints_at_other_rates_are_exact(mu, vertices, breaks):
    # the first break is 1 - mu, where offloading from (1, 0) ties with one local slot
    assert lower_envelope({k: exact_eval(k, mu)[::-1] for k in VECTORS}, 6) == (vertices, breaks)
    assert breaks[0] == 1 - mu
    assert_envelope_is_exact(mu, vertices, breaks)

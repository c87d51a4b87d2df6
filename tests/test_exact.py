"""Exact rational references for small instances, on stdlib ``fractions``.

With a rational ``mu`` and price every delivery-cycle sum is a finite sum
of rationals, so renewal reward on the delivery-age chain gives the average
cost exactly.  The float solver and evaluator are bounded against it in
units in the last place (ulps) of the exact value.
"""

import math
from fractions import Fraction

import pytest

from aoi_offload.chain import abort_indices, evaluate_exact, occurring_ages, threshold_table_policy
from aoi_offload.core import ModelParams
from aoi_offload.mdp import rvi_solve


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


def exact_gain(k, mu: Fraction, lam: Fraction) -> Fraction:
    """Average cost of the abort indices ``k[d - 1]`` on the occurring
    delivery ages ``1..r`` (each ``k_d <= r``): the cycle from ``d`` reaches
    slot ``j`` with probability ``(1 - mu)**j``, delivers age ``j + 1`` there
    with probability ``mu`` while ``j < k_d``, and offloads at slot ``k_d``."""
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
    cost = [(d + Fraction(3, 2)) * s + sum(j * w[j] for j in range(kd + 1)) + lam * w[kd]
            for d, (kd, s) in enumerate(zip(k, slots))]
    return sum(n * c for n, c in zip(nu, cost)) / sum(n * s for n, s in zip(nu, slots))


def on_path(policy, a_max: int) -> tuple[int, ...]:
    """The policy's abort indices on the ages it delivers at ceiling ``a_max``."""
    k = abort_indices(policy, a_max)
    return tuple(int(x) for x in k[:occurring_ages(k)])


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

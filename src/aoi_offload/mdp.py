"""Average-cost optimal offloading on the truncated state grid.

Values live on a dense ``(a_max, a_max)`` grid indexed ``[a - 1, z]``.  The
grid deliberately covers every column at every row: entries with
``z >= a`` cannot occur on a trajectory from ``(1, 0)``, but their values
are well defined, they keep the backups branch-free, and occurring states
never read them (a slot from an occurring state lands on an occurring
state).  Covering the full rectangle also makes the per-column offload
thresholds meaningful all the way down to age 1.

Truncation: at ``a == a_max`` the scheduler must offload, and the top
service column (``z == a_max - 1``) offloads as well since its local branch
would leave the grid.  Both rules only touch states an optimal policy keeps
away from when ``a_max`` is generous, which the truncation-stability check
quantifies.

The solver is semi-Markov policy iteration (Puterman 1994, ch. 11) on the
delivery-age chain of ``chain``: a policy is one abort index per delivered
age, each evaluation is one dense solve of size ``a_max`` for the average
cost ``g`` and the relative values ``h(d)`` of the delivery states
``(d, 0)``, and each improvement picks the best abort index per age from
prefix sums.  The full value grid is then rebuilt from ``g`` and ``h`` by
one backward row sweep of the optimality equation, so the greedy actions,
thresholds and Bellman residual read off it exactly as from a value
iteration fixed point.  The name ``rvi_solve`` is kept from the relative
value iteration this replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import ModelParams, State
from .chain import Policy, delivery_matrix, threshold_table_policy
from .chain import evaluate_exact  # noqa: F401  -- perfbench/tracing.py patches it at this name

__all__ = [
    "ValueTable",
    "SolveReport",
    "StructureCheck",
    "StructureReport",
    "rvi_solve",
    "discounted_vi",
    "verify_structure",
    "brute_force_best_threshold",
    "bellman_residual",
    "sweep_lambdas",
    "expand_value_grid",
    "default_a_max",
]


def default_a_max(mu: float) -> int:
    """Age ceiling generous enough for the policies worth considering: slow
    local processors need room of the order of the mean service time."""
    return 400 if mu < 0.1 else 50


@dataclass
class ValueTable:
    """Dense value grid, ``grid[a - 1, z]`` for ``a in 1..a_max``."""

    grid: np.ndarray

    @property
    def a_max(self) -> int:
        return self.grid.shape[0]

    def value(self, a: int, z: int) -> float:
        return float(self.grid[a - 1, z])

    def h(self) -> np.ndarray:
        """Values relative to the reference state ``(1, 0)``."""
        return self.grid - self.grid[0, 0]


@dataclass
class SolveReport:
    """Converged policy with its average cost and per-column thresholds.

    ``thresholds`` is trimmed at the first saturated column (one whose
    threshold already fires at every occurring age); ``full_thresholds``
    keeps all ``a_max`` columns.  ``threshold_exact`` records whether the
    greedy action grid was exactly an age-threshold table per column.
    """

    policy: Policy
    g: float
    thresholds: dict[int, int]
    iterations: int
    span_residual: float
    converged: bool
    values: ValueTable | None = None
    action_grid: np.ndarray | None = None
    threshold_exact: bool = True
    full_thresholds: tuple[int, ...] = ()


def _base_ages(a_max: int) -> np.ndarray:
    return np.arange(1, a_max + 1, dtype=float) + 0.5


def _backup(v: np.ndarray, p: ModelParams, beta: float) -> np.ndarray:
    """One synchronous sweep of the optimality backup over the grid."""
    a_max = p.a_max
    base = _base_ages(a_max)
    out = np.broadcast_to((base + p.lam + beta * v[0, 0])[:, None], (a_max, a_max)).copy()
    comp = v[: a_max - 1, 0]
    local = base[: a_max - 1, None] + beta * (p.mu * comp[None, :] + (1.0 - p.mu) * v[1:, 1:])
    blk = out[: a_max - 1, : a_max - 1]
    np.minimum(local, blk, out=blk)
    return out


def _greedy_actions(v: np.ndarray, p: ModelParams) -> np.ndarray:
    """Offload exactly where it is strictly cheaper; ties keep the work local.
    The age ceiling row and the top service column are forced offloads."""
    a_max = p.a_max
    base = _base_ages(a_max)
    u = np.ones((a_max, a_max), dtype=bool)
    offload = (base + p.lam + v[0, 0])[: a_max - 1, None]
    comp = v[: a_max - 1, 0]
    local = base[: a_max - 1, None] + p.mu * comp[None, :] + (1.0 - p.mu) * v[1:, 1:]
    u[: a_max - 1, : a_max - 1] = local > offload
    return u


def _thresholds_from_actions(u: np.ndarray) -> tuple[np.ndarray, bool]:
    a_max = u.shape[0]
    first = u.argmax(axis=0)  # first offloading row per column; ceiling row is always True
    thresholds = first + 1
    rows = np.arange(1, a_max + 1)
    exact = bool(np.array_equal(u, rows[:, None] >= thresholds[None, :]))
    return thresholds, exact


def _trim_thresholds(full: np.ndarray) -> dict[int, int]:
    out: dict[int, int] = {}
    for z, t in enumerate(full):
        out[z] = int(t)
        if t <= z + 1:
            break
    return out


def _abort_from_grid(u: np.ndarray) -> np.ndarray:
    """Abort indices of an action grid: the first offload on each diagonal
    ``(d + j, j)``; the ceiling row offloads everywhere."""
    a_max = u.shape[0]
    z = np.arange(a_max)
    rows = np.minimum(z[:, None] + z[None, :], a_max - 1)
    return u[rows, z[None, :]].argmax(axis=1)


def _evaluate(k: np.ndarray, params: ModelParams, w, slots, lags):
    """Average cost ``g`` and relative values ``h`` (``h[d - 1]``, with
    ``h[0] = 0``) of the abort indices ``k`` on the delivery-age chain."""
    a_max = params.a_max
    cost = (np.arange(1, a_max + 1) + 0.5) * slots[k] + lags[k] + params.lam * w[k]
    # h_d + g * slots_d - sum_e P[d, e] h_e = cost_d; with h_1 = 0 pinned,
    # the first column carries g instead
    m = np.eye(a_max) - delivery_matrix(k, params.mu)
    m[:, 0] = slots[k]
    x = np.linalg.solve(m, cost)
    g = float(x[0])
    x[0] = 0.0
    return g, x


def _rebuild_grid(g: float, h: np.ndarray, params: ModelParams) -> np.ndarray:
    """Value grid from ``g`` and the delivery-state values ``h``, one
    backward row sweep of the optimality equation anchored at ``v[0, 0]``."""
    a_max = params.a_max
    base = _base_ages(a_max) - g
    offload = base + params.lam
    comp = params.mu * h[: a_max - 1]
    v = np.empty((a_max, a_max))
    v[:, -1] = offload
    v[-1, :] = offload[-1]
    for i in range(a_max - 2, -1, -1):
        local = base[i] + comp + (1.0 - params.mu) * v[i + 1, 1:]
        np.minimum(local, offload[i], out=v[i, :-1])
    return v - v[0, 0]


def rvi_solve(
    params: ModelParams,
    tol: float = 1e-10,
    max_iters: int = 100_000,
    v_init: np.ndarray | None = None,
) -> SolveReport:
    """Optimal policy by policy iteration on the delivery-age chain.

    Starts from the greedy policy on ``v_init`` (all zeros when omitted,
    which is the local-only policy), and alternates exact evaluation with
    improvement over every abort index ``k <= a_max - d`` per delivered age
    ``d``.  An age keeps its abort index unless another lowers its value by
    more than ``tol`` relative to the value's size, and the loop stops at
    the first step that changes nothing.  ``iterations`` counts improvement
    steps; ``span_residual`` is the span of one optimality backup of the
    rebuilt grid minus the grid, which is zero at an exact solution.
    """
    a_max = params.a_max
    if v_init is None:
        v_init = np.zeros((a_max, a_max))
    elif v_init.shape != (a_max, a_max):
        raise ValueError(f"v_init shape {v_init.shape} does not match grid {(a_max, a_max)}")
    k = _abort_from_grid(_greedy_actions(v_init, params))
    rows = np.arange(a_max)
    # slot j of a delivery cycle is reached with probability w_j; a cycle
    # aborted after k slots lasts slots[k] and accrues d * slots[k] + lags[k]
    w = (1.0 - params.mu) ** rows
    slots, lags = np.cumsum(w), np.cumsum(rows * w)
    # q[d - 1, k]: value of delivery state (d, 0) when it aborts after k slots
    # and every later cycle follows the evaluated policy
    q_age = (rows + 1.5)[:, None] * slots[None, :]
    q_age[rows[None, :] > a_max - 1 - rows[:, None]] = np.inf
    q_cycle = lags + params.lam * w
    g, h = _evaluate(k, params, w, slots, lags)
    converged = False
    iterations = 0
    while iterations < max_iters:
        iterations += 1
        future = np.concatenate(([0.0], np.cumsum(params.mu * w * h)[:-1]))
        q = q_age - g * slots[None, :] + (q_cycle + future)[None, :]
        best = q.argmin(axis=1)
        current = q[rows, k]
        better = q[rows, best] < current - tol * (1.0 + np.abs(current))
        if not better.any():
            converged = True
            break
        k = np.where(better, best, k)
        g, h = _evaluate(k, params, w, slots, lags)
    v = _rebuild_grid(g, h, params)
    diff = _backup(v, params, 1.0) - v
    u = _greedy_actions(v, params)
    thresholds, exact = _thresholds_from_actions(u)
    full = tuple(int(t) for t in thresholds)
    policy = threshold_table_policy(
        full, name=f"rvi(mu={params.mu:g}, lam={params.lam:g}, a_max={a_max})"
    )
    return SolveReport(
        policy=policy,
        g=g,
        thresholds=_trim_thresholds(thresholds),
        iterations=iterations,
        span_residual=float(diff.max() - diff.min()),
        converged=converged,
        values=ValueTable(v),
        action_grid=u,
        threshold_exact=exact,
        full_thresholds=full,
    )


def discounted_vi(params: ModelParams, n_iters: int) -> list[ValueTable]:
    """Discounted value iterates from the all-zero table (returned as entry 0).

    Each iterate looks one more slot ahead, so computing on a grid padded by
    one row and column per iterate still to come keeps the stored ``a_max``
    block free of any edge effects: it is exactly the unbounded-grid
    iterate.  The pad shrinks by one per iterate: each backup runs on the
    previous grid, whose last row and column are the only ones the ceiling
    touches, and slices them off.
    """
    if n_iters < 0:
        raise ValueError("n_iters must be >= 0")
    k = params.a_max
    v = np.zeros((k + n_iters, k + n_iters))
    tables = [ValueTable(v[:k, :k].copy())]
    for n in range(n_iters, 0, -1):
        v = _backup(v, replace(params, a_max=k + n), params.beta)[: k + n - 1, : k + n - 1]
        tables.append(ValueTable(v[:k, :k].copy()))
    return tables


@dataclass
class StructureCheck:
    name: str
    passed: bool
    witness: State | None = None
    detail: str = ""


@dataclass
class StructureReport:
    checks: list[StructureCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[StructureCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "witness": list(c.witness) if c.witness else None,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _actions_grid(policy: Policy, a_max: int) -> np.ndarray:
    """Actions ``[a - 1, z]`` of ``policy`` in the truncated model, where the
    ceiling row offloads whatever the policy says."""
    ages = np.arange(1, a_max + 1)
    if policy.thresholds is not None:
        thr = np.array([policy.threshold(z) for z in range(a_max)])
        u = ages[:, None] >= thr[None, :]
    else:
        u = np.zeros((a_max, a_max), dtype=bool)
        for i, a in enumerate(ages):
            for z in range(a_max):
                u[i, z] = bool(policy.action(int(a), z))
    u[-1, :] = True
    return u


def verify_structure(
    value_iterates: list[ValueTable],
    policy: Policy,
    rel_tol: float = 1e-8,
) -> StructureReport:
    """Check the structural facts a correct solution must satisfy.

    Over every discounted iterate: values are non-decreasing in the age and
    in the elapsed service, and non-negative relative to the reference state
    ``(1, 0)``.  Over the converged policy: offloading is upward closed in
    the age and in the elapsed service, so the per-column offload ages form
    a non-increasing threshold table.
    """
    checks: list[StructureCheck] = []
    if not value_iterates:
        raise ValueError("need at least one value iterate")

    # name, the differences that must be non-negative, and the offset from
    # their index to the witness state (a, z)
    value_checks = (
        ("value_nondecreasing_in_age", lambda g: g[1:, :] - g[:-1, :], (2, 0)),
        ("value_nondecreasing_in_service", lambda g: g[:, 1:] - g[:, :-1], (1, 1)),
        ("relative_value_nonnegative", lambda g: g - g[0, 0], (1, 0)),
    )
    for name, diff_of, (da, dz) in value_checks:
        for k, table in enumerate(value_iterates):
            tol = rel_tol * (1.0 + float(np.abs(table.grid).max()))
            arr = diff_of(table.grid)
            if arr.min() >= -tol:  # most iterates pass; skip the index search on them
                continue
            bad = np.argwhere(arr < -tol)  # empty if a NaN hid the minimum
            if bad.size:
                i, j = int(bad[0][0]), int(bad[0][1])
                checks.append(StructureCheck(name, False, State(i + da, j + dz),
                                             f"iterate {k}: violated by {float(arr[i, j]):.3e}"))
                break
        else:
            checks.append(StructureCheck(name, True))

    u = _actions_grid(policy, value_iterates[0].a_max)
    for name, gaps, (da, dz) in (
        ("offload_upward_closed_in_age", u[:-1, :] & ~u[1:, :], (2, 0)),
        ("offload_upward_closed_in_service", u[:, :-1] & ~u[:, 1:], (1, 1)),
    ):
        w = np.argwhere(gaps)
        checks.append(StructureCheck(name, w.size == 0,
                                     State(int(w[0][0]) + da, int(w[0][1]) + dz) if w.size else None))
    thresholds, exact = _thresholds_from_actions(u)
    checks.append(StructureCheck(
        "policy_is_threshold_table", exact,
        detail="" if exact else "greedy actions have a gap below some threshold"))
    rising = np.flatnonzero(np.diff(thresholds) > 0)
    z = int(rising[0]) + 1 if rising.size else None
    checks.append(StructureCheck(
        "thresholds_nonincreasing", z is None, None if z is None else State(int(thresholds[z]), z),
        "" if z is None else f"threshold rises between columns {z - 1} and {z}"))
    return StructureReport(checks)


def bellman_residual(report: SolveReport, params: ModelParams) -> float:
    """Max violation of the average-cost optimality equation at the solution."""
    v = report.values.grid
    t = _backup(v, params, 1.0)
    return float(np.abs(t - v - report.g).max())


def expand_value_grid(grid: np.ndarray, new_a_max: int) -> np.ndarray:
    """Extend a converged value grid to a larger age ceiling.

    In the region the extension covers every state offloads, where the
    relative values grow with slope exactly one per age unit and are flat in
    the service columns, so the extension is essentially the larger fixed
    point already and makes a warm start that converges in few steps.
    """
    old = grid.shape[0]
    if new_a_max < old:
        raise ValueError("can only expand to a larger grid")
    out = np.empty((new_a_max, new_a_max))
    out[:old, :old] = grid
    out[:old, old:] = grid[:, -1:]
    steps = np.arange(1, new_a_max - old + 1, dtype=float)[:, None]
    out[old:, :] = out[old - 1 : old, :] + steps
    return out


def sweep_lambdas(mu: float, lambdas, a_max: int) -> list[tuple[float, SolveReport]]:
    """Solve the optimal policy for each price, cheapest first.

    Neighbouring prices have nearly identical value tables, so each solve
    warm-starts from the previous one; results do not depend on that, only
    the iteration counts do.
    """
    out: list[tuple[float, SolveReport]] = []
    v = None
    for lam in sorted(float(x) for x in lambdas):
        params = ModelParams(mu=mu, lam=lam, a_max=a_max)
        report = rvi_solve(params, v_init=v)
        v = report.values.grid
        out.append((lam, report))
    return out


@lru_cache(maxsize=None)
def _count_tables(z: int, cap: int) -> int:
    """Truncated non-increasing tables from column ``z`` with entries <= ``cap``."""
    total = 0
    for v in range(1, cap + 1):
        total += 1 if v <= z + 1 else _count_tables(z + 1, v)
    return total


def _abort_vectors(bound: int) -> list[np.ndarray]:
    """Abort indices ``k_1..k_r`` on the occurring delivery ages of every
    non-increasing table with entries in ``[1, bound]``, one ``(count, r)``
    array per length: ``k_1 = m <= bound - 1``, ``r = max(m, 1)``, steps of 0
    or -1, and ``k_m <= bound - m``, so ``k_d <= bound - d <= a_max - d``."""
    groups = [np.arange(min(bound, 2))[:, None]]
    for m in range(2, bound):
        k = np.array([[m]])
        for d in range(2, m + 1):
            k = np.vstack([np.c_[k, k[:, -1]], np.c_[k, k[:, -1] - 1]])
            k = k[k[:, -1] - (m - d) <= bound - m]  # k_m can still meet its bound
        groups.append(k)
    return groups


def _table_of(k, bound: int) -> tuple[int, ...]:
    """The largest truncated table with entries at most ``bound`` whose abort
    indices on the occurring ages are ``k``: column ``z`` offloads from age
    ``z + d`` for the least delivered age ``d`` with ``k_d <= z``."""
    table = [bound]
    for z in range(bound):  # returns by z = bound - 1, where t_z <= bound <= z + 1
        d = next((d for d, kd in enumerate(k, 1) if kd <= z), bound)
        table.append(min(table[-1], z + d))
        if table[-1] <= z + 1:
            return tuple(table[1:])


def _vector_gains(k: np.ndarray, params: ModelParams) -> np.ndarray:
    """Average cost of each row of abort indices ``k`` by renewal reward on
    its delivery-age chain, ``g = sum nu_d C_d / sum nu_d slots[k_d]``, with
    the stationary vectors ``nu`` from one stacked solve."""
    n, r = k.shape
    rows = np.arange(r + 1)
    w = (1.0 - params.mu) ** rows
    slots, lags = np.cumsum(w)[k], np.cumsum(rows * w)[k]
    balance = np.swapaxes(delivery_matrix(k, params.mu), 1, 2) - np.eye(r)
    balance[:, 0, :] = 1.0  # one balance equation replaced by the normalisation
    nu = np.linalg.solve(balance, np.broadcast_to(np.eye(r)[:, :1], (n, r, 1)))[..., 0]
    cycle = (rows[1:] + 0.5) * slots + lags + params.lam * w[k]
    return (nu * cycle).sum(axis=1) / (nu * slots).sum(axis=1)


def brute_force_best_threshold(
    params: ModelParams,
    search_bound: int,
    max_candidates: int = 100_000,
) -> SolveReport:
    """Exhaustive search over threshold tables with entries in [1, bound].

    Tables that share their abort indices on the occurring delivery ages act
    alike on every occurring state, so the search runs over those abort
    vectors instead: ``F(bound + 1)`` of them (34 at bound 8), each evaluated
    exactly on its delivery-age chain without the solver, which makes this a
    solver-independent oracle for the optimal policy class.  Each vector
    stands for its first table in descending lexicographic order, and ties
    go to the vector whose table comes first: the result is that of
    scanning every table in that order and keeping each strict improvement.
    ``iterations`` counts the vectors evaluated.  The budget counts tables,
    not vectors, since tables grow much faster with the bound; oversized
    searches are rejected up front with the count.
    """
    if int(search_bound) != search_bound or search_bound < 1:
        raise ValueError(f"search_bound must be an integer >= 1, got {search_bound}")
    if search_bound > params.a_max:
        raise ValueError(f"search_bound {search_bound} exceeds a_max {params.a_max}")
    bound = int(search_bound)
    count = _count_tables(0, bound)
    if count > max_candidates:
        raise ValueError(
            f"search_bound {search_bound} yields {count} candidate tables, "
            f"over the {max_candidates} budget"
        )
    groups = _abort_vectors(bound)
    g = [_vector_gains(k, params) for k in groups]
    best_g = min(x.min() for x in g)
    best_tab = max(_table_of(k[i], bound) for k, x in zip(groups, g)
                   for i in np.flatnonzero(x == best_g))
    policy = threshold_table_policy(
        best_tab, name=f"brute_force(bound={search_bound}, mu={params.mu:g}, lam={params.lam:g})"
    )
    return SolveReport(
        policy=policy,
        g=float(best_g),
        thresholds=dict(enumerate(best_tab)),
        iterations=sum(len(k) for k in groups),
        span_residual=0.0,
        converged=True,
        full_thresholds=best_tab,
    )

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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ModelParams, State
from .chain import (
    Policy,
    abort_indices,
    delivery_matrix,
    evaluate_exact,
    occurring_ages,
    threshold_table_policy,
)

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
    one row and column per iterate keeps the stored ``a_max`` block free of
    any edge effects: it is exactly the unbounded-grid iterate.
    """
    if n_iters < 0:
        raise ValueError("n_iters must be >= 0")
    pad = ModelParams(mu=params.mu, lam=params.lam, beta=params.beta,
                      a_max=params.a_max + n_iters)
    k = params.a_max
    v = np.zeros((pad.a_max, pad.a_max))
    tables = [ValueTable(v[:k, :k].copy())]
    for _ in range(n_iters):
        v = _backup(v, pad, params.beta)
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


def _first_negative(arr: np.ndarray, tol: float) -> tuple[int, int] | None:
    bad = np.argwhere(arr < -tol)
    if bad.size == 0:
        return None
    return int(bad[0][0]), int(bad[0][1])


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

    def value_check(name: str, diff_of) -> None:
        for k, table in enumerate(value_iterates):
            g = table.grid
            tol = rel_tol * (1.0 + float(np.abs(g).max()))
            arr, to_state = diff_of(g)
            w = _first_negative(arr, tol)
            if w is not None:
                a, z = to_state(*w)
                checks.append(StructureCheck(
                    name, False, State(a, z),
                    f"iterate {k}: violated by {float(arr[w]):.3e}"))
                return
        checks.append(StructureCheck(name, True))

    value_check(
        "value_nondecreasing_in_age",
        lambda g: (g[1:, :] - g[:-1, :], lambda i, j: (i + 2, j)),
    )
    value_check(
        "value_nondecreasing_in_service",
        lambda g: (g[:, 1:] - g[:, :-1], lambda i, j: (i + 1, j + 1)),
    )
    value_check(
        "relative_value_nonnegative",
        lambda g: (g - g[0, 0], lambda i, j: (i + 1, j)),
    )

    a_max = value_iterates[0].a_max
    u = _actions_grid(policy, a_max)

    w = np.argwhere(u[:-1, :] & ~u[1:, :])
    checks.append(
        StructureCheck("offload_upward_closed_in_age", w.size == 0,
                       State(int(w[0][0]) + 2, int(w[0][1])) if w.size else None)
    )
    w = np.argwhere(u[:, :-1] & ~u[:, 1:])
    checks.append(
        StructureCheck("offload_upward_closed_in_service", w.size == 0,
                       State(int(w[0][0]) + 1, int(w[0][1]) + 1) if w.size else None)
    )
    thresholds, exact = _thresholds_from_actions(u)
    checks.append(StructureCheck(
        "policy_is_threshold_table", exact,
        detail="" if exact else "greedy actions have a gap below some threshold"))
    rising = np.argwhere(np.diff(thresholds) > 0)
    checks.append(
        StructureCheck("thresholds_nonincreasing", rising.size == 0,
                       State(int(thresholds[int(rising[0][0]) + 1]), int(rising[0][0]) + 1) if rising.size else None,
                       "" if rising.size == 0 else
                       f"threshold rises between columns {int(rising[0][0])} and {int(rising[0][0]) + 1}")
    )
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
    total = 0
    for v in range(1, cap + 1):
        total += 1 if v <= z + 1 else _count_tables(z + 1, v)
    return total


def _canonical_tables(bound: int):
    """Non-increasing threshold tables, truncated at the first saturated
    column; columns past it cannot occur, so longer tables are equivalent."""

    def rec(z: int, cap: int, prefix: tuple[int, ...]):
        for v in range(cap, 0, -1):
            tab = prefix + (v,)
            if v <= z + 1:
                yield tab
            else:
                yield from rec(z + 1, v, tab)

    yield from rec(0, bound, ())


def brute_force_best_threshold(
    params: ModelParams,
    search_bound: int,
    max_candidates: int = 100_000,
) -> SolveReport:
    """Exhaustive search over threshold tables with entries in [1, bound].

    Every table is evaluated exactly on its delivery-age chain, which makes
    this a solver-independent oracle for the optimal policy class.  The
    candidate count grows quickly with the bound, so oversized searches are
    rejected up front with the count.
    """
    if int(search_bound) != search_bound or search_bound < 1:
        raise ValueError(f"search_bound must be an integer >= 1, got {search_bound}")
    if search_bound > params.a_max:
        raise ValueError(f"search_bound {search_bound} exceeds a_max {params.a_max}")
    count = _count_tables(0, int(search_bound))
    if count > max_candidates:
        raise ValueError(
            f"search_bound {search_bound} yields {count} candidate tables, "
            f"over the {max_candidates} budget"
        )
    best_g = np.inf
    best_tab: tuple[int, ...] | None = None
    n_evaluated = 0
    # tables that share their abort indices on the occurring delivery ages act
    # alike on every occurring state, so each such index vector is evaluated
    # once; its result is bitwise that of every table sharing it
    seen: dict[bytes, float] = {}
    for tab in _canonical_tables(int(search_bound)):
        policy = threshold_table_policy(tab)
        k = abort_indices(policy, params.a_max)
        key = k[: occurring_ages(k)].tobytes()
        g = seen.get(key)
        if g is None:
            g = seen[key] = evaluate_exact(policy, params).g
        n_evaluated += 1
        if g < best_g:
            best_g = g
            best_tab = tab
    policy = threshold_table_policy(
        best_tab, name=f"brute_force(bound={search_bound}, mu={params.mu:g}, lam={params.lam:g})"
    )
    trimmed = {z: t for z, t in enumerate(best_tab)}
    return SolveReport(
        policy=policy,
        g=float(best_g),
        thresholds=trimmed,
        iterations=n_evaluated,
        span_residual=0.0,
        converged=True,
        full_thresholds=best_tab,
    )

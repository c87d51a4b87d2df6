"""Average-cost optimal offloading on the truncated state grid.

Values live on a dense ``(a_max, a_max)`` array indexed ``[a - 1, z]``.  The
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
age, and each step evaluates it once, for the average cost ``g`` and the
relative values ``h(d)`` of the delivery states ``(d, 0)``, then picks the
best abort index per age off a family of lines: from delivered age ``d``,
aborting after ``k`` slots is worth ``q(d, k) = (d + 1/2) slots[k] + c_k``,
slopes rising with ``k``, from the cycle sums of ``chain.cycle_table``.  The
slope table, ``inf`` past the ceiling's cap ``k <= a_max - d``, is built once
per solve; a step adds its intercepts ``c`` into one reused table.  The
evaluation is ``chain.delivery_values``, the one linear solve that the
exhaustive oracle also batches; the oracle is independent of the solver
through its search.  ``_rebuild_grid`` solves the optimality equation for the
full value grid from ``g`` and ``h``, in one backward row sweep that starts
below the rows which offload everywhere.  ``_backup`` applies that equation
to a given grid: one backup of the rebuilt grid gives the greedy offload set,
exactly as at a value iteration fixed point, and the thresholds,
``threshold_exact`` and both residuals are read off it.  The discounted
iterates are backups too, less the ceiling row and column they drop; both
take the backup's local side from ``_local_side``.  The iterates form only
the rows above their offload plane, the rows next to the ceiling that
offload at every column, by the test ``_rebuild_grid`` uses: a row joins
when the row under it lies in the plane and its least local value, at the
least ``v[j, 0]``, offloads.  Each yielded iterate is assembled from the
formed rows and the plane's offload values.  The solve reads its grid once
and keeps only ``g`` and ``h``.  The name ``rvi_solve`` is kept from the
relative value iteration this replaced.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .core import ModelParams, State, validate_whole
from .chain import (Policy, abort_indices, cycle_table, delivery_values, local_only_policy,
                    mec_only_policy, threshold_table_policy)
from .chain import evaluate_exact  # noqa: F401  -- perfbench/tracing.py patches it at this name
from .heuristics import local_only, mec_only

__all__ = [
    "SolveReport",
    "StructureCheck",
    "StructureReport",
    "rvi_solve",
    "discounted_vi",
    "verify_structure",
    "brute_force_best_threshold",
    "sweep_lambdas",
    "default_a_max",
    "check_grid_side",
]

#: Tolerance of ``verify_structure``'s value checks, relative to 1 + max |value|.
_STRUCTURE_REL_TOL = 1e-8

#: Policy iteration's stopping rule: the value decrease, relative to 1 + |value|,
#: that changes an abort index, and a step guard ``SolveReport.converged`` reports.
_IMPROVE_REL_TOL = 1e-10
_MAX_STEPS = 100_000

#: The exhaustive oracle's largest search bound: F(25) = 75,025 abort vectors,
#: about 0.6 s and 120 MB on 2 CPUs.
_MAX_SEARCH_BOUND = 24

#: The largest side of an ``(a, z)`` grid, checked before one is allocated, within
#: ``core.MEMORY_BUDGET``: at side 3200 a solve peaks at 362 MB RSS, four grids
#: at its final backup, and the discounted iterates at 340 MB with an offload
#: plane or without one, two buffers that the first two backups fill and two
#: yielded iterates; about 36 B per cell (2 CPUs, one BLAS thread).
_MAX_GRID_SIDE = 3200


def check_grid_side(side: int, what: str = "a_max") -> int:
    """``side`` if an ``(a, z)`` grid of that side is within ``_MAX_GRID_SIDE``,
    else ``ValueError`` naming the limit; ``what`` names the side."""
    if side > _MAX_GRID_SIDE:
        raise ValueError(f"{what} {side} exceeds {_MAX_GRID_SIDE}, "
                         f"the largest side of an (a, z) value grid")
    return side


def default_a_max(mu: float) -> int:
    """Age ceiling generous enough for the policies worth considering: slow
    local processors need room of the order of the mean service time."""
    return 400 if mu < 0.1 else 50


@dataclass
class SolveReport:
    """Converged policy with its average cost and per-column thresholds.

    Both threshold views read the policy's table: ``full_thresholds`` whole,
    ``thresholds`` trimmed at the first saturated column (one whose threshold
    already fires at every occurring age).  ``threshold_exact`` records
    whether each column's greedy offload set, read off the solve's one
    backup, is upward closed in age: the paper's age-threshold structure.
    Ties keep the work local; at every price ``lam = 1 - mu`` offloading
    from ``(1, 0)`` ties exactly with one local slot, so column 0 reads 2.
    ``h[d - 1]`` is the relative value of delivery state ``(d, 0)``, with
    ``h[0] = 0``; ``g`` and ``h`` belong to the last abort vector evaluated,
    not to the returned table.  Both residuals read the one backup ``t`` of
    ``v = _rebuild_grid(g, h, params)``: the span of ``t - v`` and the miss
    ``max |t - v - g|`` (``None``, like ``h``, from the oracle)."""

    policy: Policy
    g: float
    iterations: int
    span_residual: float
    converged: bool
    h: np.ndarray | None = None
    threshold_exact: bool = True
    bellman_residual: float | None = None

    @property
    def full_thresholds(self) -> tuple[int, ...]:
        return self.policy.thresholds

    @property
    def thresholds(self) -> dict[int, int]:
        table = self.policy.thresholds
        end = next((z + 1 for z, t in enumerate(table) if t <= z + 1), len(table))
        return dict(enumerate(table[:end]))


def _base_ages(a_max: int) -> np.ndarray:
    return np.arange(1, a_max + 1, dtype=float) + 0.5


def _local_side(v: np.ndarray, mu: float, beta: float, out: np.ndarray) -> np.ndarray:
    """The backup's local side of ``v`` on the top-left ``(r, c)`` corner of
    its block ``[:-1, :-1]``, ``(r, c)`` being ``out``'s shape, written into
    the contiguous ``out`` one operation at a time:
    ``base[i] + beta * (mu * v[j, 0] + (1 - mu) * v[i + 1, j + 1])`` at
    ``[i, j]``, the same rounding as that expression since IEEE ``+`` and
    ``*`` commute.  It reads rows ``1..r`` of ``v`` and ``c`` entries of its
    column 0."""
    r, c = out.shape
    np.multiply(v[1:r + 1, 1:c + 1], 1.0 - mu, out=out)
    out += mu * v[:c, 0]
    out *= beta
    out += _base_ages(r)[:, None]
    return out


def _backup(v: np.ndarray, p: ModelParams, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous sweep of the optimality backup of ``v`` at its own
    size, not ``p.a_max``, and its local side on the block ``[:-1, :-1]``:
    the ceiling row and the top service column have no local branch, so
    they offload."""
    side = len(v)
    local = _local_side(v, p.mu, beta, np.empty((side - 1, side - 1)))
    offload = _base_ages(side) + p.lam + beta * v[0, 0]
    out = np.empty_like(v)
    np.minimum(local, offload[:-1, None], out=out[:-1, :-1])
    out[:, -1] = offload
    out[-1, :-1] = offload[-1]
    return out, local


def _rebuild_grid(g: float, h: np.ndarray, params: ModelParams) -> np.ndarray:
    """Value grid from ``g`` and the delivery-state values ``h``, one
    backward row sweep of the optimality equation anchored at ``v[0, 0]``.

    The sweep starts below the offload plane, the rows next to the ceiling
    that offload at every column.  Under a row that is the constant
    ``offload[i + 1]``, row ``i``'s least local value sits at ``min(comp)``,
    since float ``+`` is monotone, so the row offloads everywhere iff that
    value is at least ``offload[i]``; a NaN fails the test, and then the
    sweep covers every row."""
    a_max, mu = params.a_max, params.mu
    base = _base_ages(a_max) - g
    offload = base + params.lam
    comp = mu * h[: a_max - 1]
    plane = (base[:-1] + comp.min()) + (1.0 - mu) * offload[1:] >= offload[:-1]
    fails = np.flatnonzero(~plane)
    top = int(fails[-1]) + 1 if fails.size else 0  # the plane's first row
    v = np.empty((a_max, a_max))
    v[top:] = offload[top:, None]
    v[:top, -1] = offload[:top]
    np.add(base[:top, None], comp, out=v[:top, :-1])  # each row's constant, base + mu h
    for i in range(top - 1, -1, -1):
        row = v[i, :-1]
        row += (1.0 - mu) * v[i + 1, 1:]
        np.minimum(row, offload[i], out=row)
    v -= v[0, 0]
    return v


def rvi_solve(params: ModelParams, start: Policy | None = None) -> SolveReport:
    """Optimal policy by policy iteration on the delivery-age chain.

    Starts from the abort indices of ``start`` at this ceiling, so a policy
    solved at any ``a_max`` or price warm-starts it.  Without ``start`` it
    begins at the extreme policy with the lower closed-form gain: edge-only
    when ``heuristics.mec_only(lam).g <= heuristics.local_only(mu).g``,
    whose first step solves one delivery age where local-only's solves
    ``a_max - 1``, and local-only otherwise.  Edge-only at every price would
    stop at abort vectors that tie with the optimum within the improvement
    tolerance yet cost more: at mu 0.9, price 1e6, a_max 50 its gain is
    4.8e-11 relative above the local-only start's 31/18.  It alternates
    exact evaluation with improvement over the lines ``q(d, k)``, every abort
    index ``k <= a_max - d`` per delivered age ``d``.  An age keeps its abort
    index unless another lowers its value by more than ``1e-10`` relative to
    its size, and the loop stops at the first step that changes nothing
    (``converged`` is false if the 100,000-step guard stops it first).
    ``iterations`` counts improvement steps; both residuals read one
    optimality backup of the rebuilt grid minus the grid, zero at an exact
    solution.
    """
    a_max = check_grid_side(params.a_max)
    if start is None:
        cheap_edge = mec_only(params.lam).g <= local_only(params.mu).g
        start = mec_only_policy() if cheap_edge else local_only_policy()
    k = abort_indices(start, a_max)
    rows = np.arange(a_max)
    slots, lags, w = cycles = cycle_table(params)
    # q[d - 1, k] = slopes[d - 1, k] + c[k]: the lines of the module docstring
    slopes = np.multiply.outer(_base_ages(a_max), slots)
    slopes[rows + rows[:, None] > a_max - 1] = np.inf
    q = np.empty_like(slopes)
    for iterations in range(1, _MAX_STEPS + 1):
        g, h = delivery_values(k, params, cycles)
        c = lags + params.lam * w - g * slots + np.append(0.0, np.cumsum(params.mu * w * h)[:-1])
        np.add(slopes, c, out=q)
        best = q.argmin(axis=1)
        current = q[rows, k]
        better = q[rows, best] < current - _IMPROVE_REL_TOL * (1.0 + np.abs(current))
        if not better.any():
            break
        k = np.where(better, best, k)
    # the backup needs neither; slopes first: freeing q first made later solves fault pages in
    del slopes, q
    v = _rebuild_grid(g, h, params)
    # one backup of the rebuilt grid: the greedy action offloads exactly where
    # that is strictly cheaper (ties keep the work local); the ceiling row and
    # the top column offload everywhere
    t, local = _backup(v, params, 1.0)
    off = local > t[:-1, :-1]
    miss = t - v  # the optimality equation's miss, off by g
    hi, lo = miss.max(), miss.min()
    policy = threshold_table_policy(
        np.append(np.where(off.any(axis=0), off.argmax(axis=0) + 1, a_max), 1),
        name=f"rvi(mu={params.mu:g}, lam={params.lam:g}, a_max={a_max})"
    )
    return SolveReport(
        policy=policy,
        g=float(g),
        iterations=iterations,
        span_residual=float(hi - lo),
        converged=not better.any(),  # the last step changed nothing
        h=h,
        threshold_exact=not (off[:-1] > off[1:]).any(),  # offload sets upward closed in age
        bellman_residual=float(max(hi - g, g - lo)),
    )


def discounted_vi(params: ModelParams, n_iters: int) -> Iterator[np.ndarray]:
    """Discounted value iterates from the all-zero table (yielded first),
    ``n_iters + 1`` of them, one at a time.  ``n_iters`` is checked at the
    call, before any iterate is computed.

    Each iterate looks one more slot ahead, so computing on a grid padded by
    one row and column per iterate still to come keeps the yielded
    ``a_max`` block free of any edge effects: it is exactly the
    unbounded-grid iterate.  The pad shrinks by one per iterate: each backup
    runs on the previous grid, whose last row and column are the only ones
    the ceiling touches, and forms only its block ``[:-1, :-1]``.  Two
    buffers of ``(a_max + n_iters)**2`` floats hold every grid.

    Each grid forms only the rows above its offload plane, the rows that
    offload at every column, each the constant ``offload[i]``.  Row ``i``
    joins the plane when row ``i + 1`` of the previous grid lies in it and
    the least of its local values, which sits at the least ``v[j, 0]`` since
    each float operation of the local side is monotone, is no less than
    ``offload[i]``; a NaN fails the test and the row is formed.  Formed rows
    join it too when the last of them offloads everywhere.  Each yielded
    iterate is a new array, assembled from the formed rows and the plane's
    offload values, and bitwise the iterate that forms every row.
    """
    n_iters = validate_whole(n_iters, 0, "n_iters must be an integer")
    check_grid_side(params.a_max + n_iters, "a_max + n_iters")
    return _discounted_iterates(params, n_iters)


def _discounted_iterates(params: ModelParams, n_iters: int) -> Iterator[np.ndarray]:
    # each grid is the previous one's backup block [:-1, :-1].  Its rows from
    # `top` on are the plane, row i the constant `plane[i]`; the rows above are
    # formed as one contiguous block into the buffer the grid before last
    # used.  A plane row is written into its buffer only where formed rows
    # read it: column 0 always, the whole row when a formed row lies above it.
    # The all-zero start is formed: `top = side`, so its `plane` is not read.
    k, mu, beta = params.a_max, params.mu, params.beta
    side = k + n_iters
    buffers = np.zeros((2, side * side))
    base = _base_ages(side)
    v, plane, top = buffers[0].reshape(side, side), base, side
    yield _assembled(v, plane, top, k)
    for m in range(side - 1, k - 1, -1):
        v[top:m, 0] = plane[top:m]
        offload = base[:m] + params.lam + beta * v[0, 0]
        rows = m
        if top <= m:
            # the join test on the rows over the plane, each row's least local
            # value in _local_side's operation order
            low = max(top - 1, 0)
            least = plane[low + 1:m + 1] * (1.0 - mu)
            least += mu * v[:m, 0].min()
            least *= beta
            least += base[low:m]
            fails = np.flatnonzero(~(least >= offload[low:]))
            rows = low + int(fails[-1]) + 1 if fails.size else low
            v[top:rows + 1] = plane[top:rows + 1, None]
        grid = buffers[(side - m) % 2, : m * m].reshape(m, m)
        w = _local_side(v, mu, beta, grid[:rows])
        np.minimum(w, offload[:rows, None], out=w)
        # a formed row is at most its offload value, so it offloads everywhere
        # iff its least value is that value.  Column 0, the least column of a
        # grid non-decreasing in age and service, goes first: a grid with no
        # plane pays one cell's test per iterate.
        while rows and w[rows - 1, 0] == offload[rows - 1] == w[rows - 1].min():
            rows -= 1
        v, plane, top = grid, offload, rows
        yield _assembled(v, plane, top, k)


def _assembled(v: np.ndarray, plane: np.ndarray, top: int, k: int) -> np.ndarray:
    """The ``(k, k)`` corner of grid ``v`` whose rows from ``top`` on are the
    plane, each row ``i`` the constant ``plane[i]``, as a new array."""
    t = min(top, k)
    out = np.empty((k, k))
    out[:t] = v[:t, :k]
    out[t:] = plane[t:k, None]
    return out


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
        return {"passed": self.passed, **asdict(self)}


# name, the differences that must be non-negative, the offset from their
# index to the witness state (a, z) and, where it needs no array of them,
# their least value (NaN if any difference is NaN) from the grid and its least
# value.  Subtracting a constant is monotone, so the relative values' least is
# exact.
_VALUE_CHECKS = (
    ("value_nondecreasing_in_age", lambda g: g[1:, :] - g[:-1, :], (2, 0)),
    ("value_nondecreasing_in_service", lambda g: g[:, 1:] - g[:, :-1], (1, 1)),
    ("relative_value_nonnegative", lambda g: g - g[0, 0], (1, 0), lambda g, lo: lo - g[0, 0]),
)


def verify_structure(value_iterates: Iterable[np.ndarray], policy: Policy) -> StructureReport:
    """Check the structural facts a correct solution must satisfy.

    In one pass over the discounted iterates, each read once: values are
    non-decreasing in the age and in the elapsed service, and non-negative
    relative to the reference state ``(1, 0)``, each within ``1e-8``
    relative to ``1 + max |value|`` of the iterate; a NaN or infinite
    difference fails.  Each check reports its first failure.  Over the
    policy, on the iterates' ``a_max``: the per-column offload ages
    ``min(threshold(z), a_max)`` do not increase.
    """
    found: dict[str, StructureCheck] = {}
    a_max = None
    for k, grid in enumerate(value_iterates):
        a_max = len(grid)
        lo = grid.min()
        scale = float(max(grid.max(), -lo))  # max |value|, NaN if any value is
        finite = math.isfinite(scale)  # false if any value is NaN or infinite
        # an infinite tolerance leaves only the non-finite differences failing
        tol = _STRUCTURE_REL_TOL * (1.0 + scale) if finite else math.inf
        for name, diff_of, (da, dz), *least_of in _VALUE_CHECKS:
            if name in found:
                continue
            least = least_of[0](grid, lo) if least_of else diff_of(grid).min()
            if finite and least >= -tol:  # most iterates pass; skip the index search
                continue
            arr = diff_of(grid)
            i, j = np.argwhere(~(np.isfinite(arr) & (arr >= -tol)))[0]
            found[name] = StructureCheck(name, False, State(int(i) + da, int(j) + dz),
                                         f"iterate {k}: violated by {float(arr[i, j]):.3e}")
    if a_max is None:
        raise ValueError("need at least one value iterate")
    checks = [found.get(name, StructureCheck(name, True)) for name, *_ in _VALUE_CHECKS]

    thresholds = np.array([min(policy.threshold(z), a_max) for z in range(a_max)])
    rising = np.flatnonzero(np.diff(thresholds) > 0)
    z = int(rising[0]) + 1 if rising.size else None
    checks.append(StructureCheck(
        "thresholds_nonincreasing", z is None, None if z is None else State(int(thresholds[z]), z),
        "" if z is None else f"threshold rises between columns {z - 1} and {z}"))
    return StructureReport(checks)


def sweep_lambdas(mu: float, lambdas, a_max: int) -> list[tuple[float, SolveReport]]:
    """Solve the optimal policy for each price, cheapest first.

    Each solve warm-starts from the previous price's policy.  That changes
    the iteration counts, and ``g`` in its last digits where abort indices
    tie within the improvement tolerance (over ``lambda_grid(0.01, 50, 25)``
    at mu 0.9, a_max 40: 7.9e-12 off a cold solve at price 12.80 and 3.9e-11
    at 17.99, with equal thresholds).
    """
    out: list[tuple[float, SolveReport]] = []
    policy = None
    for lam in sorted(float(x) for x in lambdas):
        report = rvi_solve(ModelParams(mu=mu, lam=lam, a_max=a_max), start=policy)
        policy = report.policy
        out.append((lam, report))
    return out


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


def brute_force_best_threshold(params: ModelParams, search_bound: int) -> SolveReport:
    """Exhaustive search over threshold tables with entries in [1, bound].

    Tables that share their abort indices on the occurring delivery ages act
    alike on every occurring state, so the search runs over those abort
    vectors instead: ``F(bound + 1)`` of them (34 at bound 8), each evaluated
    exactly by ``chain.delivery_values`` with no policy iteration, which makes
    this a solver-independent oracle for the optimal policy class.  Each vector
    stands for its first table in descending lexicographic order, and ties
    go to the vector whose table comes first: the result is that of
    scanning every table in that order and keeping each strict improvement.
    ``iterations`` counts the vectors evaluated.  Bounds above
    ``_MAX_SEARCH_BOUND`` are rejected up front.
    """
    bound = validate_whole(search_bound, 1, "search_bound must be an integer")
    if bound > params.a_max:
        raise ValueError(f"search_bound {bound} exceeds a_max {params.a_max}")
    if bound > _MAX_SEARCH_BOUND:
        raise ValueError(f"search_bound {bound} exceeds {_MAX_SEARCH_BOUND}, "
                         f"the largest bound whose candidate abort vectors are searched")
    groups = _abort_vectors(bound)
    cycles = cycle_table(params, bound)
    g = [delivery_values(k, params, cycles)[0] for k in groups]
    best_g = min(x.min() for x in g)
    best_tab = max(_table_of(k[i], bound) for k, x in zip(groups, g)
                   for i in np.flatnonzero(x == best_g))
    policy = threshold_table_policy(
        best_tab, name=f"brute_force(bound={bound}, mu={params.mu:g}, lam={params.lam:g})"
    )
    return SolveReport(
        policy=policy,
        g=float(best_g),
        iterations=sum(len(k) for k in groups),
        span_residual=0.0,
        converged=True,
    )

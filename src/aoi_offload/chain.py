"""Exact policy evaluation on the delivery-age renewal chain.

Every trajectory from ``(1, 0)`` is a sequence of delivery cycles.  A cycle
starts in state ``(d, 0)`` right after an update of age ``d`` is delivered,
and its slots visit ``(d + j, j)`` for ``j = 0, 1, ...`` until the local
server finishes (delivering age ``j + 1``) or the policy aborts and offloads
(delivering age 1).  On those states a deterministic policy is just an abort
index ``k_d``: work locally for at most ``k_d`` slots, then offload.  The
solver and the evaluator cap it at ``a_max - d``, where the age ceiling
forces the offload; the simulator has no ceiling and reads it uncapped.

The abort indices define a Markov chain on ``d`` with ``a_max`` states: from
``d`` it moves to ``j + 1`` with probability ``mu (1 - mu)**j`` for
``j < k_d``, and to 1 with probability ``(1 - mu)**k_d``.  One system,
``delivery_system``, has two solves: ``delivery_values`` gives the average
cost and relative values of abort vectors, for the solver and its oracle;
its transpose gives the stationary vector, which ``evaluate_exact`` lifts to
the full chain for the average age ``delta = E[a] + 1/2`` and edge-use
frequency ``p_bar``, exactly: the reference evaluator for every policy family.

A policy is a threshold table: per service column ``z`` it stores the least
age at which it offloads.  That one representation covers never-offload
(threshold ``NEVER_OFFLOAD``), always-offload (threshold 1), age and service
thresholds and the solver's optimal tables.  ``abort_rule`` is the one
reader that turns a table into abort indices, for evaluator and simulator.

``build_chain`` expands a policy into the full ``(a, z)`` chain from the
one-slot kernel, independently of the abort indices, and keeps its
transitions as COO triplets.  The evaluator uses it to lift its solution
and to check the balance equations of the full chain, whose flow ``pi P``
it sums from the triplets with ``np.bincount``.  ``stationary`` solves that
chain directly, by one sparse LU solve, and is the reference the tests
compare against.  Only ``stationary`` and ``ChainModel.matrix`` import
scipy, which the package does not require: it comes with the ``test``
extra.  Importing the package and evaluating, solving or simulating
policies loads numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .core import MEMORY_BUDGET, RESET, ModelParams, State, transitions, validate_whole
from .heuristics import EvalResult, validate_z_star

__all__ = [
    "NEVER_OFFLOAD",
    "Policy",
    "age_threshold_policy",
    "service_threshold_policy",
    "local_only_policy",
    "mec_only_policy",
    "threshold_table_policy",
    "abort_rule",
    "abort_indices",
    "occurring_ages",
    "delivery_system",
    "delivery_values",
    "cycle_table",
    "ChainModel",
    "build_chain",
    "StationaryDistribution",
    "StationarySolveError",
    "stationary",
    "check_chain_size",
    "evaluate_exact",
]

#: Age-threshold entry meaning "no finite age triggers an offload".
NEVER_OFFLOAD = 2**31

#: The most ``(a, z)`` states ``evaluate_exact`` builds within ``core.MEMORY_BUDGET``,
#: at 360 B per state: the whole call peaks at 332 and 352 B per state under
#: tracemalloc (local-only at mu 0.01, a_max 400 and 800).  1,388,888 states
#: hold local-only up to a_max 1666.
_MAX_CHAIN_STATES = MEMORY_BUDGET // 360


@dataclass(frozen=True)
class Policy:
    """Stationary deterministic action rule, total on every state: a table of
    one age threshold per service column, offloading in ``(a, z)`` iff
    ``a >= thresholds[z]``; the last entry applies to all larger ``z``.  The
    evaluator and the simulator read it only through ``abort_rule``."""

    name: str
    thresholds: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.thresholds) == 0:
            raise ValueError("threshold table must not be empty")
        object.__setattr__(self, "thresholds", tuple(
            validate_whole(t, 1, "thresholds must be integers") for t in self.thresholds))

    def action(self, a: int, z: int) -> int:
        return 1 if a >= self.threshold(z) else 0

    def threshold(self, z: int) -> int:
        """Offload age at service column ``z``."""
        return self.thresholds[z] if z < len(self.thresholds) else self.thresholds[-1]


def age_threshold_policy(a_star: int, a_max: int) -> Policy:
    """Offload exactly when the age reaches ``a_star``.

    Defined with ``>=`` rather than ``==`` so the rule is total on every
    state even though trajectories from ``(1, 0)`` only ever hit the
    threshold with equality.
    """
    a_star = validate_whole(a_star, 1, "a_star must be an integer")
    if a_star > a_max:
        raise ValueError(f"a_star {a_star} exceeds the age ceiling {a_max}")
    return Policy(name=f"age_threshold({a_star})", thresholds=(a_star,))


def service_threshold_policy(z_star: int) -> Policy:
    """Offload exactly when the in-service update has been busy ``z_star`` slots.

    In state terms: act 1 iff ``z >= z_star``, which at every occurring age
    (``a >= z + 1``) is an age threshold of 1 from column ``z_star`` onward.
    """
    z_star = validate_z_star(z_star)
    return Policy(
        name=f"service_threshold({z_star})",
        thresholds=(NEVER_OFFLOAD,) * z_star + (1,),
    )


def local_only_policy() -> Policy:
    return Policy(name="local_only", thresholds=(NEVER_OFFLOAD,))


def mec_only_policy() -> Policy:
    return Policy(name="mec_only", thresholds=(1,))


def threshold_table_policy(table, name: str | None = None) -> Policy:
    """Policy of ``table``, any iterable of thresholds; ``Policy`` stores them as ints."""
    return Policy(name=name or "threshold_table", thresholds=tuple(table))


def abort_rule(policy: Policy) -> Callable[[np.ndarray], np.ndarray]:
    """Abort index ``k_d`` of ``policy``, the least ``j`` at which it offloads
    in state ``(d + j, j)``, as a function ``at(ages)`` of the delivered ages;
    uncapped, it reaches ``NEVER_OFFLOAD - d`` for a table that never
    offloads.  The table is read here, once, not per call."""
    table = np.asarray(policy.thresholds, dtype=np.int64)
    # (d + z, z) offloads iff d >= t_z - z; the running minimum of t_z - z is
    # the least delivered age whose cycle has offloaded by slot z.  Past the
    # table it is t_last - z, which reaches a smaller d at z = t_last - d.
    least_age = np.minimum.accumulate(table - np.arange(table.size))
    rising = least_age[::-1].copy()

    def at(ages) -> np.ndarray:
        ages = np.asarray(ages, dtype=np.int64)
        # k_d counts the columns whose least age is above d
        k = table.size - np.searchsorted(rising, ages, side="right")
        if least_age[-1] > 1:  # else every delivered age offloads within the table
            np.copyto(k, table[-1] - ages, where=ages < least_age[-1])
        return k

    return at


def abort_indices(policy: Policy, a_max: int) -> np.ndarray:
    """Abort index ``k_d`` of ``policy`` for ``d = 1..a_max`` (entry ``d - 1``),
    capped at ``a_max - d``, where the evaluator's ceiling forces the offload."""
    d = np.arange(1, a_max + 1)
    return np.minimum(abort_rule(policy)(d), a_max - d)


def occurring_ages(k: np.ndarray) -> int:
    """Number ``r`` of delivery ages that occur from ``(1, 0)`` under the
    abort indices ``k``.

    Deliveries from ``d`` have ages ``1..k_d``, so the occurring ages are
    ``1..r`` for the least ``r`` with ``k_d <= r`` at every ``d <= r``.  Two
    policies with equal ``k[:r]`` act alike on every occurring state.
    """
    return int(np.argmax(np.maximum.accumulate(k) <= np.arange(1, k.size + 1))) + 1


def delivery_system(k: np.ndarray, lengths: np.ndarray, w: np.ndarray, mu: float) -> np.ndarray:
    """``I - P`` of the delivery-age chain on the ages ``1..r``, batched over
    the leading axes of ``k`` (each ``k_d <= r``), with its first column, the
    moves to age 1, replaced by the cycle lengths ``lengths``: from ``d`` it
    moves to ``j + 1`` with probability ``mu w[j]`` for ``j < k_d``, ``w`` the
    reach probabilities of ``cycle_table``.  ``delivery_values`` solves it; its
    negated transpose, first row set to ones, is the normalised balance system."""
    r = k.shape[-1]
    system = np.eye(r) - np.where(np.arange(r) < k[..., None], mu * w[:r], 0.0)
    system[..., 0] = lengths
    return system


def delivery_values(k: np.ndarray, params: ModelParams, cycles) -> tuple[np.ndarray, np.ndarray]:
    """Average cost ``g[...]`` and relative values ``h[..., d - 1]``
    (``h[..., 0] = 0``) of the abort indices ``k``, batched over its leading
    axes, with ``cycles = cycle_table(params, n)``, ``n > max k``: the cycle
    from age ``d`` lasts ``slots[k_d]`` and costs ``(d + 1/2) slots[k_d] +
    lags[k_d] + lam w[k_d]``.

    Deliveries from age ``d`` land on ages ``1..k_d``, so the ages ``1..R``,
    ``R = max(1, max k)``, are closed: one dense solve of ``delivery_system``
    there, ``h_1 = 0`` pinned and ``g`` in the first column, then each older
    age by one back-substitution, ``h_d = cost_d - g slots[k_d] + sum_{j <
    k_d} mu w_j h_{j+1}``.
    """
    slots, lags, w = cycles
    lengths = slots[k]
    cost = (np.arange(1, k.shape[-1] + 1) + 0.5) * lengths + lags[k] + params.lam * w[k]
    size = max(1, int(k.max()))
    h = np.empty(k.shape)
    h[..., :size] = np.linalg.solve(
        delivery_system(k[..., :size], lengths[..., :size], w, params.mu),
        cost[..., :size, None])[..., 0]
    g = h[..., 0].copy()
    h[..., 0] = 0.0
    if size < k.shape[-1]:  # the oracle's vectors have no older ages
        c = np.cumsum(params.mu * w[:size] * h[..., :size], axis=-1)
        c = np.concatenate((np.zeros(c.shape[:-1] + (1,)), c), axis=-1)
        h[..., size:] = (cost[..., size:] - g[..., None] * lengths[..., size:]
                         + np.take_along_axis(c, k[..., size:], axis=-1))
    return g, h


def cycle_table(params: ModelParams, n: int | None = None) -> tuple[np.ndarray, ...]:
    """Delivery-cycle sums ``(slots, lags, w)`` per abort index ``k < n``
    (default ``a_max``): slot ``j`` is reached with probability ``w[j] =
    (1 - mu)**j``, so the cycle offloads with probability ``w[k]``, lasts
    ``slots[k] = sum_{j <= k} w[j]`` and, from delivered age ``d``, accrues
    the age ``(d + 1/2) slots[k] + lags[k]``, ``lags[k] = sum_{j <= k} j w[j]``."""
    j = np.arange(params.a_max if n is None else n)
    w = (1.0 - params.mu) ** j
    return np.cumsum(w), np.cumsum(j * w), w


@dataclass
class ChainModel:
    """Row-stochastic transition structure of a policy restricted to the
    states reachable from ``(1, 0)`` under the truncated dynamics.

    Transition ``t`` moves from state ``rows[t]`` to ``cols[t]`` with
    probability ``probs[t]``.  ``matrix`` is the same structure as a scipy
    csr matrix, built (and scipy imported) on first access.
    """

    states: list[State]
    index: dict[State, int]
    rows: np.ndarray
    cols: np.ndarray
    probs: np.ndarray
    actions: np.ndarray
    params: ModelParams

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def matrix(self):
        import scipy.sparse as sp

        return sp.csr_matrix((self.probs, (self.rows, self.cols)), shape=(self.n, self.n))


def build_chain(policy: Policy, params: ModelParams) -> ChainModel:
    """Breadth-first expansion of the chain induced by ``policy``.

    States at the age ceiling offload regardless of the policy (that is what
    truncation means), so the reachable set is finite and every row sums to
    one exactly.
    """
    states: list[State] = [RESET]
    index: dict[State, int] = {RESET: 0}
    actions: list[int] = []
    rows: list[int] = []
    cols: list[int] = []
    probs: list[float] = []
    for i, s in enumerate(states):  # the list is its own queue: states appended here are visited
        u = 1 if s.a >= params.a_max else policy.action(s.a, s.z)
        actions.append(u)
        for t in transitions(s, u, params):
            j = index.get(t.next)
            if j is None:
                j = len(states)
                index[t.next] = j
                states.append(t.next)
            rows.append(i)
            cols.append(j)
            probs.append(t.prob)
    return ChainModel(states=states, index=index, rows=np.asarray(rows),
                      cols=np.asarray(cols), probs=np.asarray(probs),
                      actions=np.asarray(actions), params=params)


class StationarySolveError(RuntimeError):
    """Stationary solve did not reach the required balance residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class StationaryDistribution:
    """Probability vector with its balance residual ``max |pi P - pi|``.

    ``method`` names the solve (always ``"direct"``) and ``iterations`` its
    iteration count (always 0).
    """

    states: list[State]
    probs: np.ndarray
    residual: float
    method: str
    iterations: int = 0


def _check_balance(flow: np.ndarray, pi: np.ndarray) -> float:
    """Balance residual ``max |pi P - pi|`` of the probability vector ``pi``,
    given its flow ``pi P``; raises ``StationarySolveError`` above 1e-10 or
    on a negative mass."""
    res = float(np.max(np.abs(flow - pi)))
    if res > 1e-10 or pi.min() < -1e-12:
        raise StationarySolveError(
            f"stationary vector failed the balance check: residual {res:.3e}", residual=res)
    return res


def stationary(chain: ChainModel) -> StationaryDistribution:
    """Stationary distribution of the chain from one sparse LU solve of its
    balance equations, one of them replaced by the normalisation.

    The result must pass the balance check, or a ``StationarySolveError``
    carrying the residual is raised.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = chain.n
    balance = (chain.matrix.T - sp.identity(n, format="csr")).tolil()
    balance[0, :] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    pi = spla.spsolve(balance.tocsr(), rhs)
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    pi /= pi.sum()
    res = _check_balance(pi @ chain.matrix, pi)
    return StationaryDistribution(states=chain.states, probs=np.maximum(pi, 0.0),
                                  residual=res, method="direct")


def check_chain_size(policy: Policy, params: ModelParams) -> np.ndarray:
    """Abort indices of ``policy`` on its occurring ages ``1..r``, if the
    ``(a, z)`` chain ``evaluate_exact`` builds from them, with ``sum (k_d + 1)``
    states, is within ``_MAX_CHAIN_STATES``; else ``ValueError`` naming the limit."""
    k = abort_indices(policy, params.a_max)
    k = k[: occurring_ages(k)]
    states = int(k.sum()) + k.size
    if states > _MAX_CHAIN_STATES:
        raise ValueError(f"the (a, z) chain of {policy.name} at a_max {params.a_max} has "
                         f"{states} states, above {_MAX_CHAIN_STATES}, the most that "
                         f"evaluate_exact builds")
    return k


def evaluate_exact(policy: Policy, params: ModelParams) -> EvalResult:
    """Average age, edge-use frequency and cost of ``policy``, solved exactly.

    The delivery-age chain is solved on the occurring ages only, so policies
    that act alike on every occurring state give bitwise equal results.  Its
    stationary vector ``nu`` lifts to the full chain of ``build_chain``:
    state ``(d + j, j)`` has mass proportional to ``nu_d (1 - mu)**j``.  The
    lifted vector must pass the same balance check as ``stationary``, which
    certifies the reduction on every call.  ``check_chain_size`` bounds that
    chain before it is built.
    """
    k = check_chain_size(policy, params)
    slots, _, w = cycle_table(params, k.size + 1)
    # P^T - I: the balance equations, the first replaced by the normalisation
    balance = -delivery_system(k, slots[k], w, params.mu).T
    balance[0] = 1.0
    nu = np.linalg.solve(balance, np.eye(k.size)[0])
    chain = build_chain(policy, params)
    ages, service = np.array(chain.states).reshape(-1, 2).T
    pi = nu[ages - service - 1] * (1.0 - params.mu) ** service
    pi /= pi.sum()
    flow = np.bincount(chain.cols, weights=pi[chain.rows] * chain.probs, minlength=chain.n)
    _check_balance(flow, pi)
    delta = float(ages @ pi) + 0.5
    p_bar = min(max(float(pi[chain.actions == 1].sum()), 0.0), 1.0)
    return EvalResult(delta=delta, p_bar=p_bar, g=delta + params.lam * p_bar)

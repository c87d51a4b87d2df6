"""Exact policy evaluation on the delivery-age renewal chain.

Every trajectory from ``(1, 0)`` is a sequence of delivery cycles.  A cycle
starts in state ``(d, 0)`` right after an update of age ``d`` is delivered,
and its slots visit ``(d + j, j)`` for ``j = 0, 1, ...`` until the local
server finishes (delivering age ``j + 1``) or the policy aborts and offloads
(delivering age 1).  On those states a deterministic policy is just an abort
index ``k_d``: work locally for at most ``k_d`` slots, then offload.  The age
ceiling caps it at ``a_max - d``, where the offload is forced; the simulator,
which has no ceiling, derives it at the ages and caps it needs.

The abort indices define a Markov chain on ``d`` with ``a_max`` states: from
``d`` it moves to ``j + 1`` with probability ``mu (1 - mu)**j`` for
``j < k_d``, and to 1 with probability ``(1 - mu)**k_d``.  One dense
stationary solve of that chain, lifted to the states of the full chain,
gives the long-run average age ``delta = E[a] + 1/2`` and the edge-use
frequency ``p_bar`` exactly.  This makes the module the reference evaluator
for every policy family.

All built-in policies are threshold-form: per service column ``z`` they
store the least age at which they offload.  That single representation
covers never-offload (threshold ``NEVER_OFFLOAD``), always-offload
(threshold 1), age thresholds, service thresholds (offload at every
occurring age once ``z >= z_star``) and the solver's optimal tables.

``build_chain`` expands a policy into the full ``(a, z)`` chain from the
one-slot kernel, independently of the abort indices.  The evaluator uses it
to lift its solution and to check the balance equations of the full chain;
``stationary`` solves that chain directly, by one sparse LU solve, and is
the reference the tests compare against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import RESET, ModelParams, State, transitions
from .heuristics import EvalResult

__all__ = [
    "NEVER_OFFLOAD",
    "Policy",
    "age_threshold_policy",
    "service_threshold_policy",
    "local_only_policy",
    "mec_only_policy",
    "threshold_table_policy",
    "abort_indices",
    "abort_indices_at",
    "occurring_ages",
    "delivery_matrix",
    "ChainModel",
    "build_chain",
    "StationaryDistribution",
    "StationarySolveError",
    "stationary",
    "evaluate_exact",
]

#: Age-threshold entry meaning "no finite age triggers an offload".
NEVER_OFFLOAD = 2**31


@dataclass(frozen=True)
class Policy:
    """Stationary deterministic action rule, total on every state.

    Threshold-form policies store one age threshold per service column; the
    last entry applies to all larger ``z``.  Arbitrary rules can instead
    supply ``action_fn``; those lose threshold introspection but evaluate
    and simulate exactly the same way, since the evaluator and the simulator
    read every policy through its abort indices.
    """

    name: str
    thresholds: tuple[int, ...] | None = None
    action_fn: Callable[[int, int], int] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if (self.thresholds is None) == (self.action_fn is None):
            raise ValueError("exactly one of thresholds/action_fn must be given")
        if self.thresholds is not None:
            if len(self.thresholds) == 0:
                raise ValueError("threshold table must not be empty")
            if any(int(t) != t or t < 1 for t in self.thresholds):
                raise ValueError("thresholds must be integers >= 1")

    def action(self, a: int, z: int) -> int:
        if self.thresholds is not None:
            t = self.thresholds[z] if z < len(self.thresholds) else self.thresholds[-1]
            return 1 if a >= t else 0
        return 1 if self.action_fn(a, z) else 0

    def threshold(self, z: int) -> int | None:
        """Offload age at service column ``z`` for threshold-form policies."""
        if self.thresholds is None:
            return None
        return self.thresholds[z] if z < len(self.thresholds) else self.thresholds[-1]


def age_threshold_policy(a_star: int, a_max: int) -> Policy:
    """Offload exactly when the age reaches ``a_star``.

    Defined with ``>=`` rather than ``==`` so the rule is total on every
    state even though trajectories from ``(1, 0)`` only ever hit the
    threshold with equality.
    """
    if int(a_star) != a_star or a_star < 1:
        raise ValueError(f"a_star must be an integer >= 1, got {a_star}")
    if a_star > a_max:
        raise ValueError(f"a_star {a_star} exceeds the age ceiling {a_max}")
    return Policy(name=f"age_threshold({a_star})", thresholds=(int(a_star),))


def service_threshold_policy(z_star: int) -> Policy:
    """Offload exactly when the in-service update has been busy ``z_star`` slots.

    In state terms: act 1 iff ``z >= z_star``, which at every occurring age
    (``a >= z + 1``) is an age threshold of 1 from column ``z_star`` onward.
    """
    if int(z_star) != z_star or z_star < 0:
        raise ValueError(f"z_star must be a non-negative integer, got {z_star}")
    return Policy(
        name=f"service_threshold({z_star})",
        thresholds=(NEVER_OFFLOAD,) * int(z_star) + (1,),
    )


def local_only_policy() -> Policy:
    return Policy(name="local_only", thresholds=(NEVER_OFFLOAD,))


def mec_only_policy() -> Policy:
    return Policy(name="mec_only", thresholds=(1,))


def threshold_table_policy(table, name: str | None = None) -> Policy:
    return Policy(name=name or "threshold_table", thresholds=tuple(int(t) for t in table))


def abort_indices_at(policy: Policy, ages, caps) -> np.ndarray:
    """Abort index ``k_d`` of ``policy`` at each delivered age ``d`` in
    ``ages``, capped at the matching entry of ``caps``.

    ``k_d`` is the least ``j`` at which the policy offloads in state
    ``(d + j, j)``.  An ``action_fn`` policy is asked only about the states
    ``j < cap`` of the given ages.
    """
    ages = np.asarray(ages, dtype=np.int64)
    if policy.thresholds is None:
        caps = np.broadcast_to(caps, ages.shape)
        return np.array([next((j for j in range(c) if policy.action(d + j, j)), c)
                         for d, c in zip(ages.tolist(), caps.tolist())], dtype=np.int64)
    table = np.asarray(policy.thresholds, dtype=np.int64)
    # (d + z, z) offloads iff d >= t_z - z; the running minimum of t_z - z is
    # the least delivered age whose cycle has offloaded by slot z.  Past the
    # table it is t_last - z, which reaches a smaller d at z = t_last - d.
    least_age = np.minimum.accumulate(table - np.arange(table.size))
    k = np.searchsorted(-least_age, -ages)
    if least_age[-1] > 1:  # else every delivered age offloads within the table
        beyond = ages < least_age[-1]
        k[beyond] = table[-1] - ages[beyond]
    return np.minimum(k, caps)


def abort_indices(policy: Policy, a_max: int) -> np.ndarray:
    """Abort index ``k_d`` of ``policy`` for ``d = 1..a_max`` (entry ``d - 1``),
    capped at ``a_max - d`` where the ceiling forces the offload."""
    d = np.arange(1, a_max + 1)
    return abort_indices_at(policy, d, a_max - d)


def occurring_ages(k: np.ndarray) -> int:
    """Number ``r`` of delivery ages that occur from ``(1, 0)`` under the
    abort indices ``k``.

    Deliveries from ``d`` have ages ``1..k_d``, so the occurring ages are
    ``1..r`` for the least ``r`` with ``k_d <= r`` at every ``d <= r``.  Two
    policies with equal ``k[:r]`` act alike on every occurring state.
    """
    return int(np.argmax(np.maximum.accumulate(k) <= np.arange(1, k.size + 1))) + 1


def delivery_matrix(k: np.ndarray, mu: float) -> np.ndarray:
    """Transition matrix ``[..., d - 1, d' - 1]`` of the delivery-age chain on
    the ages ``1..r``, whose abort indices ``k[..., :r]`` are at most ``r``.
    Leading axes of ``k`` are batch axes.

    Slot ``j`` of a cycle is reached with probability ``(1 - mu)**j``; it
    delivers age ``j + 1`` with probability ``mu`` if ``j < k_d`` and is the
    offload slot, delivering age 1, if ``j == k_d``.
    """
    r = k.shape[-1]
    w = (1.0 - mu) ** np.arange(r + 1)
    trans = np.where(np.arange(r) < k[..., None], mu * w[:-1], 0.0)
    trans[..., 0] += w[k]
    return trans


@dataclass
class ChainModel:
    """Row-stochastic transition structure of a policy restricted to the
    states reachable from ``(1, 0)`` under the truncated dynamics."""

    states: list[State]
    index: dict[State, int]
    matrix: sp.csr_matrix
    actions: np.ndarray
    params: ModelParams

    @property
    def n(self) -> int:
        return len(self.states)


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
    queue: deque[State] = deque([RESET])
    while queue:
        s = queue.popleft()
        i = index[s]
        u = 1 if s.a >= params.a_max else policy.action(s.a, s.z)
        actions.append(u)
        for t in transitions(s, u, params):
            j = index.get(t.next)
            if j is None:
                j = len(states)
                index[t.next] = j
                states.append(t.next)
                queue.append(t.next)
            rows.append(i)
            cols.append(j)
            probs.append(t.prob)
    n = len(states)
    matrix = sp.csr_matrix((probs, (rows, cols)), shape=(n, n))
    return ChainModel(states=states, index=index, matrix=matrix,
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

    def prob(self, s) -> float:
        s = State(*s)
        for st, p in zip(self.states, self.probs):
            if st == s:
                return float(p)
        return 0.0

    def as_dict(self) -> dict[State, float]:
        return {s: float(p) for s, p in zip(self.states, self.probs)}


def _check_balance(matrix: sp.csr_matrix, pi: np.ndarray) -> float:
    """Balance residual ``max |pi P - pi|`` of the probability vector ``pi``;
    raises ``StationarySolveError`` above 1e-10 or on a negative mass."""
    res = float(np.max(np.abs(pi @ matrix - pi)))
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
    n = chain.n
    balance = (chain.matrix.T - sp.identity(n, format="csr")).tolil()
    balance[0, :] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    pi = spla.spsolve(balance.tocsr(), rhs)
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    pi /= pi.sum()
    res = _check_balance(chain.matrix, pi)
    return StationaryDistribution(states=chain.states, probs=np.maximum(pi, 0.0),
                                  residual=res, method="direct")


def evaluate_exact(policy: Policy, params: ModelParams) -> EvalResult:
    """Average age, edge-use frequency and cost of ``policy``, solved exactly.

    The delivery-age chain is solved on the occurring ages only, so policies
    that act alike on every occurring state give bitwise equal results.  Its
    stationary vector ``nu`` lifts to the full chain of ``build_chain``:
    state ``(d + j, j)`` has mass proportional to ``nu_d (1 - mu)**j``.  The
    lifted vector must pass the same balance check as ``stationary``, which
    certifies the reduction on every call.
    """
    k = abort_indices(policy, params.a_max)
    r = occurring_ages(k)
    balance = delivery_matrix(k[:r], params.mu).T - np.eye(r)
    balance[0, :] = 1.0  # one balance equation replaced by the normalisation
    rhs = np.zeros(r)
    rhs[0] = 1.0
    nu = np.linalg.solve(balance, rhs)
    chain = build_chain(policy, params)
    ages, service = np.array(chain.states).reshape(-1, 2).T
    pi = nu[ages - service - 1] * (1.0 - params.mu) ** service
    pi /= pi.sum()
    _check_balance(chain.matrix, pi)
    delta = float(ages @ pi) + 0.5
    p_bar = min(max(float(pi[chain.actions == 1].sum()), 0.0), 1.0)
    return EvalResult(delta=delta, p_bar=p_bar, g=delta + params.lam * p_bar)

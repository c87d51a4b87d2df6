"""Discrete-time model primitives for the edge-offloading scheduler.

One slot of the system is described by the pair ``(a, z)``: the age of the
freshest update held by the monitor and the number of slots the update
currently in service has spent on the local processor.  Each slot the
scheduler either lets the local processor keep working (action 0), which
finishes with probability ``mu`` and delivers an update of age ``z + 1``,
or aborts local work, pulls a fresh update and has the edge cloud serve it
within the slot (action 1), which costs ``lam`` and resets the system to
``(1, 0)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "State",
    "Transition",
    "ModelParams",
    "RESET",
    "LOCAL",
    "OFFLOAD",
    "transitions",
    "cost",
    "validate_state",
    "validate_rate",
    "validate_price",
    "validate_whole",
    "MEMORY_BUDGET",
]

LOCAL = 0
OFFLOAD = 1

#: Bytes one call may allocate for its largest structure, checked before it is
#: built: ``mdp``'s ``(a, z)`` value grids, ``evaluate_exact``'s ``(a, z)`` chain,
#: ``frontier``'s solved policies per price and ``simulate``'s batch totals.
MEMORY_BUDGET = 500_000_000


class State(NamedTuple):
    """Age at the monitor (``a >= 1``) and elapsed local service (``z >= 0``)."""

    a: int
    z: int


class Transition(NamedTuple):
    """One outgoing edge of the kernel: successor state and its probability."""

    next: State
    prob: float


#: State right after an edge-served update is delivered.
RESET = State(1, 0)


def validate_whole(x, least: int, what: str) -> int:
    """``int(x)`` when ``x`` is a whole number >= ``least``, so whole floats and numpy
    scalars normalise; else, inf, NaN and non-numbers too, ``ValueError("<what> >=
    <least>, got <x>")``, ``what`` naming the input: "a_max must be an integer"."""
    try:
        if int(x) == x and x >= least:  # int raises on inf, NaN and non-numbers
            return int(x)
    except (OverflowError, TypeError, ValueError):
        pass
    raise ValueError(f"{what} >= {least}, got {x}")


def validate_rate(mu: float) -> None:
    """Reject a rate outside (0, 1], and a subnormal one, whose reciprocal overflows."""
    if not sys.float_info.min <= mu <= 1.0:
        raise ValueError(f"mu must be a normal float in (0, 1], got {mu}")


def validate_price(lam: float) -> None:
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")


@dataclass(frozen=True)
class ModelParams:
    """Model constants shared by every solver and evaluator.

    mu:    per-slot completion probability of the local processor, in (0, 1].
    lam:   price charged per edge use, finite and >= 0.
    beta:  discount factor for the discounted value iterates, in (0, 1).
    a_max: age ceiling of the truncated state space; once the age reaches it
           the scheduler is forced to offload, so ages never exceed a_max.
    """

    mu: float
    lam: float = 0.0
    beta: float = 0.99
    a_max: int = 50

    def __post_init__(self) -> None:
        validate_rate(self.mu)
        validate_price(self.lam)
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        a_max = validate_whole(self.a_max, 2, "a_max must be an integer")
        object.__setattr__(self, "a_max", a_max)


def validate_state(s: State) -> None:
    if s.a < 1 or s.z < 0:
        raise ValueError(f"invalid state {tuple(s)}: need a >= 1 and z >= 0")


def _validate_action(u: int) -> None:
    if u not in (LOCAL, OFFLOAD):
        raise ValueError(f"invalid action {u!r}: must be 0 (local) or 1 (offload)")


def transitions(s: State, u: int, p: ModelParams) -> list[Transition]:
    """Successor distribution for one slot.

    Offloading resets to ``(1, 0)`` with probability one.  Keeping the work
    local completes with probability ``mu`` (the monitor then holds an update
    of age ``z + 1`` and a fresh one enters service) and otherwise both
    counters advance.  Zero-probability branches are dropped, so the result
    always carries total probability one.  The kernel itself knows nothing
    about truncation; callers that enforce the ``a_max`` ceiling must forbid
    action 0 at ``a == a_max`` instead.
    """
    s = State(*s)
    validate_state(s)
    _validate_action(u)
    if u == OFFLOAD:
        return [Transition(RESET, 1.0)]
    out = [Transition(State(s.z + 1, 0), p.mu)]
    if p.mu < 1.0:
        out.append(Transition(State(s.a + 1, s.z + 1), 1.0 - p.mu))
    return out


def cost(s: State, u: int, p: ModelParams) -> float:
    """Per-slot cost: the age accrued over the slot plus the edge price if used.

    Ages accrue continuously within a slot, so a slot entered at age ``a``
    contributes ``a + 1/2``.
    """
    s = State(*s)
    validate_state(s)
    _validate_action(u)
    return s.a + 0.5 + p.lam * u


"""Closed-form evaluation of the baseline scheduling policies.

Every evaluator reports the pair ``(delta, p_bar)``: the long-run average
age at the monitor (a slot entered at age ``a`` accrues ``a + 1/2``) and the
long-run fraction of slots that use the edge cloud, plus the combined
average cost ``g = delta + lam * p_bar`` when a price is supplied.

The service-threshold policy aborts local work once an update has been in
service for ``z_star`` slots and offloads a fresh update instead.  Its
renewal analysis runs on two per-cycle quantities: the effective service
time ``S = min(Z, z_star + 1)`` (local service capped by the abort slot)
and the delivered age ``Y`` (``Z`` when the local processor finished within
the threshold, else 1 for the edge-served replacement), with ``Z`` geometric
on {1, 2, ...} with success probability ``mu``.  ``Y`` and ``S`` of one
cycle are independent, giving ``delta = E[Y] + E[S^2] / (2 E[S])``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import validate_price, validate_rate

__all__ = [
    "EvalResult",
    "ServiceMoments",
    "Z_STAR_CAP",
    "local_only",
    "mec_only",
    "service_moments",
    "service_threshold_eval",
    "validate_z_star",
]

#: Beyond this threshold the results are indistinguishable from running the
#: local processor alone at double precision, so larger values are rejected.
Z_STAR_CAP = 10**6


@dataclass(frozen=True)
class EvalResult:
    """Exact long-run figures of one stationary policy."""

    delta: float
    p_bar: float
    g: float

    def __post_init__(self) -> None:
        if self.delta < 1.5 - 1e-9:
            raise ValueError(f"average age {self.delta} below the attainable minimum 1.5")
        if not -1e-12 <= self.p_bar <= 1.0 + 1e-12:
            raise ValueError(f"edge-use frequency {self.p_bar} outside [0, 1]")


@dataclass(frozen=True)
class ServiceMoments:
    """First two moments of the effective service time and mean delivered age."""

    e_s: float
    e_s2: float
    e_y: float


def validate_z_star(z_star: int) -> None:
    """Reject a service threshold outside the integers ``0..Z_STAR_CAP``."""
    if int(z_star) != z_star or z_star < 0:
        raise ValueError(f"z_star must be a non-negative integer, got {z_star}")
    if z_star > Z_STAR_CAP:
        raise ValueError(f"z_star {z_star} exceeds the supported cap {Z_STAR_CAP}")


def local_only(mu: float, lam: float = 0.0) -> EvalResult:
    """Zero-wait policy that never offloads: delta = (4 - mu) / (2 mu).

    At mu = 0 the age diverges, so that rate is rejected.
    """
    validate_rate(mu)
    validate_price(lam)
    delta = (4.0 - mu) / (2.0 * mu)
    return EvalResult(delta=delta, p_bar=0.0, g=delta)


def mec_only(lam: float = 0.0) -> EvalResult:
    """Offload every slot: the one-slot edge server pins the age at its floor."""
    validate_price(lam)
    return EvalResult(delta=1.5, p_bar=1.0, g=1.5 + lam)


def service_moments(mu: float, z_star: int) -> ServiceMoments:
    """Closed-form E[S], E[S^2] and E[Y] for abort threshold ``z_star``.

    With q = (1 - mu) ** z_star (the probability the local processor is still
    busy after z_star slots):

        E[S]   = (1 - q (1 - mu)) / mu
        E[Y]   = (1 - q (mu z_star + 1 - mu)) / mu
        E[S^2] = (2 (1 - mu) - q (1 - mu) (2 + z_star mu)) / mu^2
                 + (1 - q z_star - q) / mu + q z_star + q
    """
    validate_rate(mu)
    validate_z_star(z_star)
    if z_star == 0 or mu == 1.0:
        # every cycle is a single slot (abort immediately, or the local
        # processor never needs more), so S = Y = 1 identically
        return ServiceMoments(e_s=1.0, e_s2=1.0, e_y=1.0)
    mubar = 1.0 - mu
    q = mubar**z_star
    e_s = (1.0 - q * mubar) / mu
    e_y = (1.0 - q * (mu * z_star + mubar)) / mu
    e_s2 = (
        (2.0 * mubar - q * mubar * (2.0 + z_star * mu)) / mu**2
        + (1.0 - q * z_star - q) / mu
        + q * z_star
        + q
    )
    return ServiceMoments(e_s=e_s, e_s2=e_s2, e_y=e_y)


def service_threshold_eval(mu: float, z_star: int, lam: float = 0.0) -> EvalResult:
    """Average age and edge-use frequency of the abort-at-``z_star`` policy.

    p_bar is the rate of cycles that end in an offload over the mean cycle
    length: mu (1 - mu)**z_star / (1 - (1 - mu)**(z_star + 1)).
    """
    validate_price(lam)
    m = service_moments(mu, z_star)
    mubar = 1.0 - mu
    delta = m.e_y + m.e_s2 / (2.0 * m.e_s)
    if z_star == 0:
        p_bar = 1.0  # every one-slot cycle ends in an offload
    else:
        p_bar = mu * mubar**z_star / (1.0 - mubar ** (z_star + 1))
    return EvalResult(delta=delta, p_bar=p_bar, g=delta + lam * p_bar)

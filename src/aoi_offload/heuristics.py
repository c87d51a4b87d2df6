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

import math
from dataclasses import dataclass

from .core import validate_price, validate_rate, validate_whole

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

#: Largest service threshold accepted anywhere.  A service-threshold policy
#: stores ``z_star + 1`` columns, so the cap bounds its memory and the
#: simulator's table read.  It is not where the policy turns into local-only:
#: at ``mu = 1e-7`` threshold 10**6 still gives delta 5.4e5 against 2e7.
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


def validate_z_star(z_star: int) -> int:
    """``z_star`` as an ``int``; raises outside the integers ``0..Z_STAR_CAP``."""
    z_star = validate_whole(z_star, 0, "z_star must be an integer")
    if z_star > Z_STAR_CAP:
        raise ValueError(f"z_star {z_star} exceeds the supported cap {Z_STAR_CAP}")
    return z_star


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


def _offset_mean(n: int, a: float) -> float:
    """Mean of ``j`` over ``0..n-1`` under weights ``exp(-j a)``.  Its two
    terms cancel when ``n a`` is small, so there it is read off the series."""
    if n * a < 0.1:
        return ((n - 1) / 2 - (n**2 - 1) * a / 12 + (n**4 - 1) * a**3 / 720
                - (n**6 - 1) * a**5 / 30240 + (n**8 - 1) * a**7 / 1209600)
    return 1.0 / math.expm1(a) + n * math.exp(-n * a) / math.expm1(-n * a)


def _renewal_sums(mu: float, z_star: int) -> tuple[float, float, float, float]:
    """E[S], E[Y], the mean slot offset ``m(z_star + 1)`` of a cycle and the
    probability ``(1 - mu)**z_star`` that it ends in an offload."""
    validate_rate(mu)
    z_star = validate_z_star(z_star)
    if z_star == 0 or mu == 1.0:
        # every cycle is a single slot (abort immediately, or the local
        # processor never needs more), so S = Y = 1 identically
        return 1.0, 1.0, 0.0, float(z_star == 0)
    a = -math.log1p(-mu)  # (1 - mu)**j = exp(-j a)
    e_s = math.expm1(-(z_star + 1) * a) / math.expm1(-a)
    e_y = 1.0 - math.expm1(-z_star * a) * _offset_mean(z_star, a)
    return e_s, e_y, _offset_mean(z_star + 1, a), math.exp(-z_star * a)


def service_moments(mu: float, z_star: int) -> ServiceMoments:
    """Closed-form E[S], E[S^2] and E[Y] for abort threshold ``z_star``.

    With a = -log(1 - mu) and m(n) the mean of j over 0..n-1 under weights
    exp(-j a), the renewal sums are

        E[S]   = sum_{j <= z_star} exp(-j a) = expm1(-(z_star + 1) a) / expm1(-a)
        E[Y]   = 1 - expm1(-z_star a) m(z_star)
        E[S^2] = sum_{j <= z_star} (2 j + 1) exp(-j a) = E[S] (2 m(z_star + 1) + 1)

    written so that no step subtracts nearly equal numbers: they stay within
    about 1e-14 relative of the exact sums from mu = 1e-12 to 1.
    """
    e_s, e_y, m, _ = _renewal_sums(mu, z_star)
    return ServiceMoments(e_s=e_s, e_s2=e_s * (2.0 * m + 1.0), e_y=e_y)


def service_threshold_eval(mu: float, z_star: int, lam: float = 0.0) -> EvalResult:
    """Average age and edge-use frequency of the abort-at-``z_star`` policy.

    delta = E[Y] + E[S^2] / (2 E[S]) = E[Y] + 1/2 + m(z_star + 1), and p_bar
    is the rate of cycles that end in an offload over the mean cycle length,
    (1 - mu)**z_star / E[S].
    """
    validate_price(lam)
    e_s, e_y, m, busy = _renewal_sums(mu, z_star)
    delta = e_y + 0.5 + m
    p_bar = busy / e_s
    return EvalResult(delta=delta, p_bar=p_bar, g=delta + lam * p_bar)

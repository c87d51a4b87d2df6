"""Seeded slot-by-slot simulation of the offloading loop.

Each slot n the simulator reads the state ``(a, z)``, applies the policy,
counts ``a`` toward the age total (the reported average adds the within-slot
half) and the action toward the edge-use total, then advances: an offload
lands in ``(1, 0)``, local work completes into ``(z + 1, 0)`` when the
slot's uniform draw falls below ``mu`` and otherwise grows both counters.
The trajectory starts at ``(1, 0)``.  Every policy, threshold table or
action function alike, steps through this one loop via ``Policy.action``.

Reproducibility contract: the slot-n uniform is a pure function of
``(seed, n)`` via splitmix64 in counter mode,

    x  = (seed + (n + 1) * 0x9E3779B97F4A7C15) mod 2**64
    x ^= x >> 30;  x *= 0xBF58476D1CE4E5B9  (mod 2**64)
    x ^= x >> 27;  x *= 0x94D049BB133111EB  (mod 2**64)
    x ^= x >> 31
    u_n = (x >> 11) * 2.0**-53

so identical (seed, policy, params, config) reproduce trajectories bit for
bit, in any implementation of these constants.

Averages are taken over whole batches: the post-warmup span is cut into
``batches`` equal contiguous batches (a remainder shorter than a batch is
not simulated), whose means also feed the batch-means standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import Policy
from .core import ModelParams

__all__ = [
    "SimConfig",
    "SimResult",
    "uniforms",
    "simulate",
    "batch_stderr",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1
_CHUNK = 1 << 14


@dataclass(frozen=True)
class SimConfig:
    """Horizon in slots, 64-bit seed, warmup slots discarded before averaging
    (default 1% of the horizon) and the number of batches for the standard
    errors."""

    horizon: int
    seed: int
    warmup: int | None = None
    batches: int = 20

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.warmup is not None and not 0 <= self.warmup < self.horizon:
            raise ValueError("warmup must satisfy 0 <= warmup < horizon")
        if self.batches < 10:
            raise ValueError("need at least 10 batches for batch-means errors")

    def resolved_warmup(self) -> int:
        return self.horizon // 100 if self.warmup is None else self.warmup


@dataclass(frozen=True)
class SimResult:
    delta_hat: float
    p_bar_hat: float
    stderr_delta: float
    stderr_p: float
    slots: int


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """The slot uniforms u_start .. u_{start+count-1} of the stream ``seed``."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x = np.uint64(seed & _MASK) + idx * _GAMMA
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def batch_stderr(batch_means) -> float:
    """Standard error of the mean from batch means (needs >= 10 batches)."""
    means = np.asarray(batch_means, dtype=float)
    if means.size < 10:
        raise ValueError(f"need at least 10 batches, got {means.size}")
    return float(means.std(ddof=1) / math.sqrt(means.size))


def simulate(policy: Policy, params: ModelParams, config: SimConfig) -> SimResult:
    """Monte Carlo estimate of (delta, p_bar) with batch-means errors.

    Every policy steps through ``Policy.action``, one slot at a time, in
    chunks of ``_CHUNK`` slots.  Each chunk records its slots' ages and
    actions, then adds their post-warmup part to the batch totals with one
    exact integer reduction (``np.add.reduceat``).
    """
    warmup = config.resolved_warmup()
    batch_size = (config.horizon - warmup) // config.batches
    if batch_size < 1:
        raise ValueError("horizon too short for the requested warmup and batches")
    counted = batch_size * config.batches
    total = warmup + counted
    age_sums = np.zeros(config.batches, dtype=np.int64)
    mec_sums = np.zeros(config.batches, dtype=np.int64)
    action, mu = policy.action, params.mu
    a, z = 1, 0
    for pos in range(0, total, _CHUNK):
        draws = uniforms(config.seed, pos, min(_CHUNK, total - pos)).tolist()
        ages = []
        acts = []
        for draw in draws:
            u = action(a, z)
            ages.append(a)
            acts.append(u)
            if u:
                a, z = 1, 0
            elif draw < mu:
                a, z = z + 1, 0
            else:
                a, z = a + 1, z + 1
        skip = max(warmup - pos, 0)  # warmup slots at the head of the chunk
        if skip >= len(draws):
            continue
        first = pos + skip - warmup  # counted index of the first counted slot
        lo, hi = first // batch_size, (pos + len(draws) - 1 - warmup) // batch_size
        cuts = np.maximum(np.arange(lo, hi + 1) * batch_size - first, 0)
        age_sums[lo : hi + 1] += np.add.reduceat(np.array(ages[skip:], dtype=np.int64), cuts)
        mec_sums[lo : hi + 1] += np.add.reduceat(np.array(acts[skip:], dtype=np.int64), cuts)
    age_means = age_sums / batch_size
    mec_means = mec_sums / batch_size
    return SimResult(
        delta_hat=float(age_sums.sum()) / counted + 0.5,
        p_bar_hat=float(mec_sums.sum()) / counted,
        stderr_delta=batch_stderr(age_means),
        stderr_p=batch_stderr(mec_means),
        slots=counted,
    )

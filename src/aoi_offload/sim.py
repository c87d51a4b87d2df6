"""Seeded slot-by-slot simulation of the offloading loop.

Each slot n the simulator reads the state ``(a, z)``, applies the policy,
counts ``a`` toward the age total (the reported average adds the within-slot
half) and the action toward the edge-use total, then advances: an offload
lands in ``(1, 0)``, local work completes into ``(z + 1, 0)`` when the
slot's uniform draw falls below ``mu`` and otherwise grows both counters.
The trajectory starts at ``(1, 0)``.

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
_CHUNK = 1 << 20


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


def _table_chunk(table, last, mu, a, z, slot0, draws, warmup, batch_size,
                 age_sums, mec_sums):
    for k in range(draws.shape[0]):
        n = slot0 + k
        t = table[z] if z < last else table[last]
        u = 1 if a >= t else 0
        if n >= warmup:
            b = (n - warmup) // batch_size
            age_sums[b] += a
            mec_sums[b] += u
        if u == 1:
            a = 1
            z = 0
        elif draws[k] < mu:
            a = z + 1
            z = 0
        else:
            a += 1
            z += 1
    return a, z


def _run_table(table: np.ndarray, mu: float, seed: int, total: int, warmup: int,
               batch_size: int, batches: int):
    age_sums = np.zeros(batches, dtype=np.int64)
    mec_sums = np.zeros(batches, dtype=np.int64)
    a, z = 1, 0
    last = len(table) - 1
    pos = 0
    while pos < total:
        n = min(_CHUNK, total - pos)
        draws = uniforms(seed, pos, n)
        a, z = _table_chunk(table, last, mu, a, z, pos, draws, warmup,
                            batch_size, age_sums, mec_sums)
        pos += n
    return age_sums, mec_sums


def _run_callable(policy: Policy, mu: float, seed: int, total: int, warmup: int,
                  batch_size: int, batches: int):
    age_sums = np.zeros(batches, dtype=np.int64)
    mec_sums = np.zeros(batches, dtype=np.int64)
    a, z = 1, 0
    pos = 0
    while pos < total:
        n = min(_CHUNK, total - pos)
        draws = uniforms(seed, pos, n)
        for k in range(n):
            slot = pos + k
            u = policy.action(a, z)
            if slot >= warmup:
                b = (slot - warmup) // batch_size
                age_sums[b] += a
                mec_sums[b] += u
            if u == 1:
                a, z = 1, 0
            elif draws[k] < mu:
                a, z = z + 1, 0
            else:
                a, z = a + 1, z + 1
        pos += n
    return age_sums, mec_sums


def batch_stderr(batch_means) -> float:
    """Standard error of the mean from batch means (needs >= 10 batches)."""
    means = np.asarray(batch_means, dtype=float)
    if means.size < 10:
        raise ValueError(f"need at least 10 batches, got {means.size}")
    return float(means.std(ddof=1) / math.sqrt(means.size))


def simulate(policy: Policy, params: ModelParams, config: SimConfig) -> SimResult:
    """Monte Carlo estimate of (delta, p_bar) with batch-means errors.

    Threshold-form policies run on the table slot kernel; policies given
    as a bare action function take a slower path with identical semantics.
    """
    warmup = config.resolved_warmup()
    batch_size = (config.horizon - warmup) // config.batches
    if batch_size < 1:
        raise ValueError("horizon too short for the requested warmup and batches")
    counted = batch_size * config.batches
    total = warmup + counted
    if policy.thresholds is not None:
        table = np.asarray(policy.thresholds, dtype=np.int64)
        age_sums, mec_sums = _run_table(table, params.mu, config.seed, total,
                                        warmup, batch_size, config.batches)
    else:
        age_sums, mec_sums = _run_callable(policy, params.mu, config.seed, total,
                                           warmup, batch_size, config.batches)
    age_means = age_sums / batch_size
    mec_means = mec_sums / batch_size
    return SimResult(
        delta_hat=float(age_sums.sum()) / counted + 0.5,
        p_bar_hat=float(mec_sums.sum()) / counted,
        stderr_delta=batch_stderr(age_means),
        stderr_p=batch_stderr(mec_means),
        slots=counted,
    )

"""Seeded simulation of the offloading loop, one success segment at a time.

The slot dynamics: in state ``(a, z)`` the policy acts; ``a`` counts toward
the age total (the reported average adds the within-slot half) and the
action toward the edge-use total.  An offload lands in ``(1, 0)``; local
work completes into ``(z + 1, 0)`` when the slot's uniform draw falls below
``mu`` and otherwise grows both counters.  The trajectory starts at
``(1, 0)``, and there is no age ceiling: an age grows until a delivery or an
offload, however long that takes.

The kernel does not step slot by slot.  A slot whose draw is below ``mu``
ends a delivery cycle whatever the action (it delivers under action 0 and
offloads under action 1), so these success slots cut the run into segments
that do not depend on the policy.  A segment starts from a delivered age
``d``; its first cycle runs to the abort index ``k_d`` (from
``chain.abort_rule``, the one reader of the policy's threshold table),
after which cycles from ``(1, 0)`` repeat with period ``k_1 + 1``.  Every
slot's age and action inside a segment follow in closed form, and the
delivered age that starts the next segment is a function of ``d`` and the
segment length.

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

from .chain import Policy, abort_rule
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
        if (self.horizon - self.resolved_warmup()) // self.batches < 1:
            raise ValueError("horizon too short for the requested warmup and batches")

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
    # in place, in two buffers: a chunk's temporaries would each sit at
    # glibc's mmap threshold, so their cost would hang on allocator state
    x = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x *= _GAMMA
    x += np.uint64(seed & _MASK)
    shifted = np.empty_like(x)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(x, np.uint64(shift), out=shifted)
        x ^= shifted
        x *= mix
    np.right_shift(x, np.uint64(31), out=shifted)
    x ^= shifted
    x >>= np.uint64(11)
    u = x.astype(np.float64)
    u *= 2.0**-53
    return u


def batch_stderr(batch_means) -> float:
    """Standard error of the mean from batch means (needs >= 10 batches)."""
    means = np.asarray(batch_means, dtype=float)
    if means.size < 10:
        raise ValueError(f"need at least 10 batches, got {means.size}")
    return float(means.std(ddof=1) / math.sqrt(means.size))


def _service_after(k, n, k1):
    """Service slots of the open cycle after the first ``n`` slots that
    follow a delivery with abort index ``k``, when none of them is a
    success; the cycles after the first offload have period ``k1 + 1``.

    If slot ``n`` is a success instead, the age it delivers is this count,
    or 1 where the count is 0, since that slot offloaded.
    """
    return np.where(n <= k, n, (n - k - 1) % (k1 + 1))


def _chunk(success: np.ndarray, abort_at, d: int, z: int):
    """Ages and actions of the slots of one chunk, whose success slots are
    the true entries of ``success``, starting in the open cycle ``(d, z)``
    (delivered age, service slots so far); also the open cycle it leaves.
    ``abort_at`` is the policy's ``abort_rule``, read uncapped."""
    ends = np.append(np.flatnonzero(success) + 1, success.size)
    length = np.diff(ends, prepend=0)
    # slots of each segment's first cycle up to its end; the first segment
    # continues the open cycle, z of whose slots came before the chunk
    n = length.copy()
    n[0] += z
    k1 = abort_at([1])[0]
    # delivered age at the start of each segment: guess that every segment
    # ends in a delivery, then fix entries until nothing moves; round t makes
    # the first t entries exact.  k follows ds: only moved entries are re-read
    ds = np.append(d, n[:-1])
    k = abort_at(ds)
    todo = np.arange(1, ds.size)
    while todo.size:
        prev = todo - 1
        new = np.maximum(_service_after(k[prev], n[prev], k1), 1)
        moved = new != ds[todo]
        todo = todo[moved]
        ds[todo] = new[moved]
        k[todo] = abort_at(ds[todo])
        todo += 1
        todo = todo[todo < ds.size]
    # t counts slots since each segment's first offload: t < 0 on its first
    # cycle, whose offload slot is t = -1; later cycles are at phase j.  The
    # age array is built in place to keep memory flat.
    t = np.arange(success.size)
    t -= np.repeat(ends - n + k + 1, length)
    head = t < 0
    j = t % (k1 + 1)
    acts = np.where(head, t == -1, j == k1)
    ages = t
    ages += np.repeat(ds + k + 1, length)  # d + slots since delivery
    j += 1
    np.copyto(ages, j, where=~head)
    d = int(ds[-1]) if n[-1] <= k[-1] else 1
    return ages, acts, d, int(_service_after(k[-1], n[-1], k1))


def simulate(policy: Policy, params: ModelParams, config: SimConfig) -> SimResult:
    """Monte Carlo estimate of (delta, p_bar) with batch-means errors.

    The run goes in chunks of ``_CHUNK`` slots, cut into success segments
    (see the module docstring); the policy's threshold table is read once
    per run, by ``chain.abort_rule``.  The delivered ages that start the
    segments of a chunk solve one recursion by vectorised fixed-point
    rounds; the chunk's ages and actions then follow in closed form, and
    their post-warmup part goes into the batch totals by one exact integer
    reduction (``np.add.reduceat``).  The last segment's open cycle carries
    into the next chunk.  No age ceiling applies.
    """
    warmup = config.resolved_warmup()
    batch_size = (config.horizon - warmup) // config.batches
    counted = batch_size * config.batches
    total = warmup + counted
    age_sums = np.zeros(config.batches, dtype=np.int64)
    mec_sums = np.zeros(config.batches, dtype=np.int64)
    abort_at = abort_rule(policy)
    d, z = 1, 0
    for pos in range(0, total, _CHUNK):
        success = uniforms(config.seed, pos, min(_CHUNK, total - pos)) < params.mu
        ages, acts, d, z = _chunk(success, abort_at, d, z)
        skip = max(warmup - pos, 0)  # warmup slots at the head of the chunk
        if skip >= success.size:
            continue
        first = pos + skip - warmup  # counted index of the first counted slot
        lo, hi = first // batch_size, (pos + success.size - 1 - warmup) // batch_size
        cuts = np.maximum(np.arange(lo, hi + 1) * batch_size - first, 0)
        age_sums[lo : hi + 1] += np.add.reduceat(ages[skip:], cuts, dtype=np.int64)
        mec_sums[lo : hi + 1] += np.add.reduceat(acts[skip:], cuts, dtype=np.int64)
    age_means = age_sums / batch_size
    mec_means = mec_sums / batch_size
    return SimResult(
        delta_hat=float(age_sums.sum()) / counted + 0.5,
        p_bar_hat=float(mec_sums.sum()) / counted,
        stderr_delta=batch_stderr(age_means),
        stderr_p=batch_stderr(mec_means),
        slots=counted,
    )

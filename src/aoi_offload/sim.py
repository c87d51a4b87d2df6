"""Seeded simulation of the offloading loop, one success segment at a time.

The slot dynamics: in state ``(a, z)`` the policy acts; ``a`` counts toward
the age total (the reported average adds the within-slot half) and the
action toward the edge-use total.  An offload lands in ``(1, 0)``; local
work completes into ``(z + 1, 0)`` when the slot's uniform draw falls below
``mu`` and otherwise grows both counters.  The trajectory starts at
``(1, 0)``, and there is no age ceiling: an age grows until a delivery or an
offload, however long that takes.

The kernel neither steps slot by slot nor stores a slot's age.  A slot
whose draw is below ``mu`` ends a delivery cycle whatever the action (it
delivers under action 0 and offloads under action 1), so these success
slots cut the run into segments that do not depend on the policy.  After a
delivery at age ``d`` with abort index ``k = k_d`` (``abort_rule`` is the
one reader of the policy's table), slot ``m`` has age ``d + m`` up to its
offload at ``m = k``, then ``(m - k - 1) % P + 1`` in ``P = k_1 + 1`` slot
cycles.  A segment's age total and offload count are thus arithmetic
series, and the age it delivers next is a function of ``d`` and its length.
A kernel call spans whole blocks of ``_CHUNK`` slots, kept only as their
success offsets, until it holds ``_CHUNK`` segments or the horizon ends:
about ``_CHUNK`` segments a call at any ``mu``, one block of slot arrays.

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
from .core import MEMORY_BUDGET, ModelParams, validate_whole

__all__ = ["SimConfig", "SimResult", "uniforms", "simulate", "batch_stderr"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1
_CHUNK = 1 << 14


@dataclass(frozen=True)
class SimConfig:
    """Horizon in slots, seed in [0, 2**64), warmup slots discarded before averaging
    (default 1% of the horizon) and the number of batches for the standard
    errors, bounded at 40 B a batch in ``core.MEMORY_BUDGET`` (``simulate``
    peaks at 32.2 B per batch under tracemalloc)."""

    horizon: int
    seed: int
    warmup: int | None = None
    batches: int = 20

    def __post_init__(self) -> None:
        for name, least in (("horizon", 1), ("seed", 0), ("warmup", 0), ("batches", 10)):
            if name != "warmup" or self.warmup is not None:  # None: 1% of the horizon
                value = validate_whole(getattr(self, name), least, f"{name} must be an integer")
                object.__setattr__(self, name, value)
        if self.batches > MEMORY_BUDGET // 40:
            raise ValueError(f"batches {self.batches} exceeds {MEMORY_BUDGET // 40}, "
                             f"the most whose totals simulate keeps")
        if self.seed > _MASK:  # uniforms would read it mod 2**64, as another seed
            raise ValueError(f"seed must be below 2**64, got {self.seed}")
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


def _split(x, k, period):
    """Of the ``x`` slots after a delivery with abort index ``k <= x``: the
    head through the offload, whether it came, full cycles and the rest."""
    off = k < x
    head = k + off
    tail = x - head
    cycles = tail // period
    return head, off, cycles, tail - cycles * period


def _age_total(head, d, rest):
    """Age total of ``head`` slots from age ``d`` and ``rest`` from age 1."""
    # m (m + 1) / 2 as ((m + 1) >> 1) * (m | 1): no product exceeds the sum
    return head * d + (head >> 1) * ((head - 1) | 1) + ((rest + 1) >> 1) * (rest | 1)


def _chunk(ends: np.ndarray, abort_at, d: int, z: int, cuts: np.ndarray, work: np.ndarray):
    """Age and offload totals between consecutive offsets ``cuts`` of a span
    whose success segments end at offsets ``ends`` (the last at the span's
    end), from the open cycle ``(d, z)`` (delivered age, service slots so
    far), and the cycle it leaves open.  ``abort_at`` is the uncapped
    ``abort_rule``; ``work`` has 6 rows of ``ends.size + 1`` or more."""
    acc, (n, ds, k) = work[:3, : ends.size + 1], work[3:, : ends.size]
    n[:] = np.diff(ends, prepend=-z)  # slots since each segment's delivery
    period = int(abort_at([1])[0]) + 1
    # A segment reads k_d only as k = min(k_d, n).  Guess k_d = k_1, exact
    # after an offload; a success delivers age n, or after an offload rest
    # (1 if rest is 0: it offloads).  Check the guess once, then follow the
    # segments whose k moved; round t makes the first t segments exact.
    guess = np.minimum(n, period - 1)
    head, off, cycles, rest = _split(n, guess, period)
    ds[0], ds[1:] = d, np.where(off, np.maximum(rest, 1), n)[:-1]
    np.minimum(abort_at(ds), n, out=k)
    todo = np.flatnonzero(k != guess)
    while todo.size:
        todo = todo[todo < n.size - 1]  # the last segment starts none
        nt = n[todo]
        _, o, _, r = _split(nt, k[todo], period)
        new = np.where(o, np.maximum(r, 1), nt)
        todo += 1
        moved = new != ds[todo]
        todo = todo[moved]
        ds[todo] = new[moved]
        kd = np.minimum(abort_at(ds[todo]), n[todo])
        moved = kd != k[todo]
        todo = todo[moved]
        k[todo] = kd[moved]
    if (k != guess).any():
        head, off, cycles, rest = _split(n, k, period)
    # Column s of acc: ages less the full cycles', full cycles and first
    # offloads before segment s; a cut in segment j adds its first x slots.
    # No int64 exceeds the age total simulated so far; a full cycle's tri
    # passes int64 for periods over 4e9, so tri * cycles is a Python int.
    acc[:, 0] = 0
    acc[0, 1:] = _age_total(head, ds, rest)
    acc[1, 1:], acc[2, 1:] = cycles, off
    np.cumsum(acc, axis=1, out=acc)
    tri = period * (period + 1) // 2
    at = []
    for cut, j in zip(cuts.tolist(), np.searchsorted(ends, cuts).tolist()):
        x = cut - int(ends[j]) + int(n[j])
        h, o, q, r = _split(x, min(int(k[j]), x), period)
        ages, full, offs = acc[:, j].tolist()
        at.append((ages + _age_total(h, int(ds[j]), r) + tri * (full + q), offs + o + full + q))
    d, z = (1, rest[-1]) if off[-1] else (ds[-1], n[-1])
    return np.diff(np.array(at, dtype=np.int64), axis=0), int(d), int(z)


def simulate(policy: Policy, params: ModelParams, config: SimConfig) -> SimResult:
    """Monte Carlo estimate of (delta, p_bar) with batch-means errors.

    The run is cut into success segments and fed to the kernel in spans of
    whole blocks (see the module docstring).  A span's segment start ages
    solve one recursion; running sums of the segments' closed-form totals,
    read at the warmup and batch edges, give exact integer batch totals.
    """
    warmup = config.resolved_warmup()
    batch_size = (config.horizon - warmup) // config.batches
    counted = batch_size * config.batches
    total = warmup + counted
    age_sums = np.zeros(config.batches, dtype=np.int64)
    mec_sums = np.zeros(config.batches, dtype=np.int64)
    abort_at = abort_rule(policy)
    # run-long rows for the kernel and a span's <= 2 * _CHUNK ends: a call's own
    # would outgrow glibc's trim threshold, twice this buffer, and fault back in
    work = np.empty((7, 2 * _CHUNK + 2), dtype=np.int64)
    d, z, span, found, ends = 1, 0, 0, 0, work[6]
    for pos in range(0, total, _CHUNK):
        stop = min(pos + _CHUNK, total)
        hits = np.flatnonzero(uniforms(config.seed, pos, stop - pos) < params.mu)
        ends[found : found + hits.size] = hits + (pos + 1 - span)
        found += hits.size
        if found < _CHUNK and stop < total:
            continue
        # batches of the counted slots; offsets of warmup, batch and span end
        start, end = max(span - warmup, 0), max(stop - warmup, 0)
        lo, hi = start // batch_size, -(-end // batch_size)
        cuts = np.clip(np.arange(lo, hi + 1) * batch_size + warmup - span, 0, stop - span)
        ends[found] = stop - span
        totals, d, z = _chunk(ends[: found + 1], abort_at, d, z, cuts, work[:6])
        age_sums[lo:hi] += totals[:, 0]
        mec_sums[lo:hi] += totals[:, 1]
        span, found = stop, 0
    return SimResult(
        delta_hat=float(age_sums.sum()) / counted + 0.5,
        p_bar_hat=float(mec_sums.sum()) / counted,
        stderr_delta=batch_stderr(age_sums / batch_size),
        stderr_p=batch_stderr(mec_sums / batch_size),
        slots=counted,
    )

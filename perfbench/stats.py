"""Summary statistics shared by the runner and the compare tool."""

from __future__ import annotations

import statistics

#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10
#: A gain is claimed only from at least this many pairs of runs.
MIN_PAIRS = 10


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile that has at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, count)``: the order statistic with exactly
    ``TAIL_BEYOND`` larger samples, the share of samples at or below it in
    percent, and the sample count it was taken from.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} samples beyond it")
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` cuts them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def compare(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Verdict for one metric from paired runs, base[i] and head[i] forming pair i.

    A gain needs at least ``MIN_PAIRS`` pairs, the head to win at least nine
    tenths of them (ties count for neither side) and the medians to differ by
    more than the base's own interquartile distance.  Otherwise the metric is
    unresolved when either side's spread exceeds ``bound`` (a share of the
    median), unless every head run beats every base run; and it regressed
    when the head median is worse than the base median by more than
    ``bound``.
    """
    if len(base) != len(head) or len(base) < 2:
        raise ValueError("need the same number (at least 2) of base and head runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    b1, bmed, b3 = quartiles(base)
    h1, hmed, h3 = quartiles(head)
    gain = sign * (hmed - bmed)
    row = {"base": [b1, bmed, b3], "head": [h1, hmed, h3], "wins": wins, "pairs": len(base),
           "change": (hmed - bmed) / abs(bmed) if bmed else float("inf")}
    if len(base) >= MIN_PAIRS and wins >= 0.9 * len(base) and gain > b3 - b1:
        row["verdict"] = "improved"
    elif max(spread(base), spread(head)) > bound and not (
            min(sign * h for h in head) > max(sign * b for b in base)):
        row["verdict"] = "unresolved"
    elif -gain > bound * abs(bmed):
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "unchanged"
    return row

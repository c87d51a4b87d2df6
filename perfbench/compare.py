#!/usr/bin/env python3
"""Compare two commits on the benchmark's end-to-end metrics.

    python3 perfbench/compare.py BASE HEAD [--workload NAME ...]

BASE and HEAD are checkouts of the parent commit and of the change (made,
for example, with ``git archive``).  Both sides run this copy of ``run.py``
against their own ``src/``, so the benchmark code and settings are the same,
and every run lasts ``run_seconds`` from the ``BENCHMARK.json`` beside this
directory, which also gives the bounds.  Pair i runs seed ``SEED0 + i`` on
both sides, the base first in even pairs and the head first in odd ones.
The table has one row per workload and bounded metric; ``stats.compare``
states the verdict rule.  Timed rows also show each side's median of the raw,
unscaled seconds: the verdict uses times at reference speed (see
``probe.py``), which assume the head does the same kind of work as the base.
A last row per workload gives the tail latency of each side over the pooled
samples of all its runs, with the percentile and the sample count.
"""

from __future__ import annotations

import argparse
import json
from statistics import median
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.stats import MIN_PAIRS, compare, tail  # noqa: E402

#: Seed of the first pair.
SEED0 = 1000


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The run record, which ``run.py`` prints on the line before its result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-2])


def collect(base: Path, head: Path, workloads, seconds: int) -> dict:
    runs = {w: {"base": [], "head": []} for w in workloads}
    for i in range(MIN_PAIRS):
        order = [("base", base), ("head", head)]
        if i % 2:
            order.reverse()
        for w in workloads:
            for side, checkout in order:
                runs[w][side].append(run_once(checkout, w, SEED0 + i, seconds))
                print(f"pair {i + 1}/{MIN_PAIRS} {w} {side} done", file=sys.stderr)
    return runs


def table(runs: dict, spec: dict) -> list[dict]:
    rows = []
    for workload, sides in runs.items():
        failed = {side: sum(r["failed"] for r in sides[side]) for side in ("base", "head")}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in sides["base"]]
            head = [r["metrics"][name]["value"] for r in sides["head"]]
            row = compare(base, head, metric["better"], metric["bound"])
            if failed["head"] > failed["base"]:
                row["verdict"] = "more failures"
            if name in sides["base"][0]["raw"]:
                row["raw"] = [median([r["raw"][name] for r in sides[side]]) for side in ("base", "head")]
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "bound": metric["bound"], "failed": failed, **row})
        rows.append({"workload": workload, "metric": "op_tail_s", "unit": "s", "failed": failed,
                     "pooled": {side: pooled_tail(sides[side]) for side in ("base", "head")}})
    return rows


def pooled_tail(records: list[dict]) -> dict:
    """Tail latency over the samples of every run of one side."""
    value, percentile, count = tail([t for r in records for t in r["latencies_s"]])
    return {"value": value, "percentile": percentile, "samples": count}


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':10} {'metric':12} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32}"
             f" {'change':>8} {'wins':>6}  {'verdict':14} raw base -> head"]
    for r in rows:
        if "pooled" in r:
            b, h = r["pooled"]["base"], r["pooled"]["head"]
            lines.append(f"{r['workload']:10} {r['metric']:12} "
                         f"{b['value']:12.6g} (p{b['percentile']:.1f} of {b['samples']})".ljust(56)
                         + f" {h['value']:12.6g} (p{h['percentile']:.1f} of {h['samples']})".ljust(33)
                         + f" {100 * (h['value'] / b['value'] - 1):+7.2f}%          pooled")
            continue
        b1, bm, b3 = r["base"]
        h1, hm, h3 = r["head"]
        raw = f"{r['raw'][0]:.6g} -> {r['raw'][1]:.6g}" if "raw" in r else ""
        lines.append(f"{r['workload']:10} {r['metric']:12} {bm:12.6g} [{b1:.6g}, {b3:.6g}]".ljust(56)
                     + f" {hm:12.6g} [{h1:.6g}, {h3:.6g}]".ljust(33)
                     + f" {100 * r['change']:+7.2f}% {r['wins']:>2}/{r['pairs']:<3}  {r['verdict']:14} {raw}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = collect(args.base.resolve(), args.head.resolve(), workloads, spec["run_seconds"])
    print(render(table(runs, spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

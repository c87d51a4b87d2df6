#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from ``./src``
and everything the run writes goes under ``./.perfbench_out``.

``--trace 0`` repeats whole passes of the workload for ``--seconds`` (and at
least ``MIN_OPS`` operations, so that the tail percentile exists) with
tracing off and reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced for half the time, then the same number of passes traced,
and reports the per-layer metrics, per operation, and the tracing overhead.
Every run appends a record of its environment, inputs and results to
``.perfbench_out/runs.jsonl`` and prints it as the line before the result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("frontier", "oracle", "sim_long", "sim_short")
DEFAULT_SEED = 1
#: Fresh-process imports timed per run; setup_s is their median.
SETUP_REPEATS = 5
#: With 20 samples the tail percentile is at least the median.
MIN_OPS = 20
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Loop:
    """Closed loop with one client: each call is issued when the last returns.

    Only the calls into the package are timed; the checks on their results
    run between calls.  Failed operations are counted and still timed.  The
    host-speed probe runs between operations; ``scales`` holds, per
    operation, the mean of the probe factors just before and just after it,
    which converts its seconds to reference speed.  ``latencies`` and
    ``pass_times`` are the raw seconds.
    """

    def __init__(self, workload, probe) -> None:
        self.ops = workload.ops
        self.probe = probe
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.pass_times: list[float] = []
        self.failures: list[str] = []
        self._factor: float | None = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run_op(self, op) -> float:
        before = self.probe() if self._factor is None else self._factor
        t0 = time.perf_counter()
        try:
            raw = op.call()
        except Exception as exc:  # an operation that raises is a failed operation
            elapsed = time.perf_counter() - t0
            raw, failure = None, f"{op.label}: raised {exc!r}"
        else:
            elapsed = time.perf_counter() - t0
            failure = None
        self._factor = self.probe()
        if failure is None:
            failure = op.check(raw)
        self.latencies.append(elapsed)
        self.scales.append(0.5 * (before + self._factor))
        if failure is not None:
            self.failures.append(failure)
        return elapsed

    def run_pass(self, tracer=None) -> None:
        total = 0.0
        for op in self.ops:
            if tracer is not None:
                tracer.op_id = self.attempted
            total += self.run_op(op)
        self.pass_times.append(total)

    def run_for(self, seconds: float, min_ops: int) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or self.attempted < min_ops:
            self.run_pass()

    def scaled(self) -> tuple[list[float], list[float]]:
        """Operation and pass times at reference speed."""
        ops = [t * f for t, f in zip(self.latencies, self.scales)]
        width = len(self.ops)
        passes = [sum(ops[i:i + width]) for i in range(0, len(ops), width)]
        return ops, passes


def measure_setup(probe) -> tuple[list[float], list[float]]:
    """Raw seconds from starting a fresh interpreter to the package imported,
    one sample per repeat, and the probe factor taken just before each."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import aoi_offload"
    times, scales = [], []
    for _ in range(SETUP_REPEATS):
        scales.append(probe())
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times, scales


def environment(threads: str) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": threads,
    }


def load_reference(workload: str):
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def end_to_end(loop: Loop, setup: list[float], setup_scales: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run; times are at reference speed.

    ``raw`` in the notes holds the same timed metrics from the unscaled
    seconds.  The run's tail latency goes to the record with its percentile
    and sample count, not to the bounded metrics: on a shared host the tail
    of repeated identical operations moves with other tenants' bursts, so
    ``compare.py`` pools the samples of a whole set of runs before it
    reports one.
    """
    from perfbench.stats import tail

    def timed(ops, passes, setup):
        completed = loop.attempted - len(loop.failures)
        return {"setup_s": statistics.median(setup), "wall_s": statistics.median(passes),
                "ops_per_s": completed / sum(ops), "op_p50_s": statistics.median(ops)}

    ops, passes = loop.scaled()
    scaled = timed(ops, passes, [t * f for t, f in zip(setup, setup_scales)])
    value, percentile, count = tail(ops)
    units = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_s": "s"}
    metrics = {name: (scaled[name], unit) for name, unit in units.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    notes = {"op_tail": {"value": value, "unit": "s", "percentile": percentile, "samples": count},
             "latencies_s": ops,
             "raw": timed(loop.latencies, loop.pass_times, setup),
             "raw_latencies_s": loop.latencies,
             "setup_raw_s": setup}
    return metrics, notes


def per_layer(workload, probe, seconds: float, spans_path: Path) -> tuple[list[Loop], dict, dict]:
    from perfbench import tracing

    untraced = Loop(workload, probe)
    untraced.run_for(seconds / 2.0, 1)
    traced = Loop(workload, probe)
    with tracing.Tracer() as tracer:
        for _ in untraced.pass_times:
            traced.run_pass(tracer)
    tracer.save(spans_path)
    layer = tracing.layer_metrics(tracer, traced.attempted)
    layer["trace.overhead_s"] = (sum(traced.scaled()[0]) - sum(untraced.scaled()[0])) / traced.attempted
    metrics = {name: (layer[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}
    notes = {"counts": dict(tracer.counts), "spans": len(tracer.start), "spans_file": spans_path.name}
    return [untraced, traced], metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "aoi_offload" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'aoi_offload'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = threads
    sys.path[:0] = [str(SRC), str(HERE.parent)]
    from perfbench.probe import Probe

    probe = Probe()
    setup, setup_scales = ([], []) if args.trace else measure_setup(probe)
    import aoi_offload
    from perfbench import workloads

    if Path(aoi_offload.__file__).resolve().parent != (SRC / "aoi_offload").resolve():
        print(f"error: imported aoi_offload from {aoi_offload.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    recorded = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.build(args.workload, args.seed, Path(workdir), recorded)
        warm = Loop(workload, probe)
        warm.run_op(workload.ops[0])  # lazy imports and first-call costs, untimed
        if args.trace:
            spans = OUT / f"spans-{args.workload}.npz"
            loops, metrics, notes = per_layer(workload, probe, args.seconds, spans)
        else:
            loops = [Loop(workload, probe)]
            loops[0].run_for(args.seconds, MIN_OPS)
            metrics, notes = end_to_end(loops[0], setup, setup_scales)
    attempted = warm.attempted + sum(loop.attempted for loop in loops)
    failures = warm.failures + [f for loop in loops for f in loop.failures]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "environment": environment(threads),
        "inputs": workload.inputs,
        "passes": [len(loop.pass_times) for loop in loops],
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:10],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "probe_s": probe.samples,
        **notes,
    }
    line = json.dumps(record)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": record["metrics"]}
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Spans around the package's public functions, recorded from outside ``src/``.

A ``Tracer`` replaces each traced function at every module attribute where a
caller looks it up (``from .chain import evaluate_exact`` copies the name into
``mdp`` and ``cli``, so each copy is patched), records one span per call and
restores every name on exit.  A span is a name, start, end, parent span and
operation id; spans are kept in flat arrays in memory and written out once at
the end.  Counts that only the arguments or results show (chain sizes, sweeps,
simulated slots) are accumulated at the same boundaries.

The wrapper's own work around a call, observers included, runs inside the
caller's span.  Each span therefore also records ``tracer_s``, the tracer's
time spent inside it, and every duration below is net of it, so that busy
and self times measure the package and not the tracer.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  A function imported into several modules is
# listed once per module, so every lookup site records the same span name.
TRACED = (
    ("aoi_offload.chain", "transitions", "core.transitions"),
    ("aoi_offload.heuristics", "local_only", "heuristics.local_only"),
    ("aoi_offload.heuristics", "mec_only", "heuristics.mec_only"),
    ("aoi_offload.heuristics", "service_moments", "heuristics.service_moments"),
    ("aoi_offload.heuristics", "service_threshold_eval", "heuristics.service_threshold_eval"),
    ("aoi_offload.chain", "build_chain", "chain.build_chain"),
    ("aoi_offload.chain", "stationary", "chain.stationary"),
    ("aoi_offload.chain", "evaluate_exact", "chain.evaluate_exact"),
    ("aoi_offload.mdp", "evaluate_exact", "chain.evaluate_exact"),
    ("aoi_offload.cli", "evaluate_exact", "chain.evaluate_exact"),
    ("aoi_offload.mdp", "rvi_solve", "mdp.rvi_solve"),
    ("aoi_offload.cli", "rvi_solve", "mdp.rvi_solve"),
    ("aoi_offload.mdp", "sweep_lambdas", "mdp.sweep_lambdas"),
    ("aoi_offload.cli", "sweep_lambdas", "mdp.sweep_lambdas"),
    ("aoi_offload.mdp", "brute_force_best_threshold", "mdp.brute_force"),
    ("aoi_offload.mdp", "discounted_vi", "mdp.discounted_vi"),
    ("aoi_offload.cli", "discounted_vi", "mdp.discounted_vi"),
    ("aoi_offload.mdp", "verify_structure", "mdp.verify_structure"),
    ("aoi_offload.cli", "verify_structure", "mdp.verify_structure"),
    ("aoi_offload.sim", "simulate", "sim.simulate"),
    ("aoi_offload.cli", "simulate", "sim.simulate"),
    ("aoi_offload.sim", "uniforms", "sim.uniforms"),
    ("aoi_offload.cli", "main", "cli.main"),
    ("aoi_offload.cli", "frontier_points", "cli.frontier_points"),
)

#: Per-layer metrics: name -> (unit, better).  Sums are per top-level operation.
PER_LAYER = {
    "core.transitions.calls": ("count/op", "lower"),
    "core.transitions.busy_s": ("s/op", "lower"),
    "heuristics.calls": ("count/op", "lower"),
    "heuristics.busy_s": ("s/op", "lower"),
    "chain.build_chain.calls": ("count/op", "lower"),
    "chain.build_chain.busy_s": ("s/op", "lower"),
    "chain.build_chain.states": ("count/op", "lower"),
    "chain.build_chain.ns_per_state": ("ns", "lower"),
    "chain.evaluate_exact.calls": ("count/op", "lower"),
    "chain.evaluate_exact.busy_s": ("s/op", "lower"),
    "chain.evaluate_exact.self_s": ("s/op", "lower"),
    "chain.stationary.calls": ("count/op", "lower"),
    "chain.stationary.busy_s": ("s/op", "lower"),
    "chain.stationary.power_iters": ("count/op", "lower"),
    "chain.stationary.direct_share": ("share", "higher"),
    "chain.stationary.fallbacks": ("count/op", "lower"),
    "chain.stationary.max_residual": ("prob", "lower"),
    "chain.ceiling_mass_max": ("prob", "lower"),
    "mdp.rvi_solve.calls": ("count/op", "lower"),
    "mdp.rvi_solve.busy_s": ("s/op", "lower"),
    "mdp.rvi_solve.sweeps": ("count/op", "lower"),
    "mdp.rvi_solve.ns_per_cell": ("ns", "lower"),
    "mdp.rvi_solve.unconverged": ("count/op", "lower"),
    "mdp.sweep_lambdas.self_s": ("s/op", "lower"),
    "mdp.brute_force.busy_s": ("s/op", "lower"),
    "mdp.brute_force.candidates": ("count/op", "lower"),
    "mdp.brute_force.ms_per_candidate": ("ms", "lower"),
    "mdp.brute_force.self_s": ("s/op", "lower"),
    "mdp.discounted_vi.busy_s": ("s/op", "lower"),
    "mdp.verify_structure.busy_s": ("s/op", "lower"),
    "sim.simulate.calls": ("count/op", "lower"),
    "sim.simulate.busy_s": ("s/op", "lower"),
    "sim.slots": ("count/op", "lower"),
    "sim.ns_per_slot": ("ns", "lower"),
    "sim.counted_share": ("share", "higher"),
    "sim.uniforms.busy_s": ("s/op", "lower"),
    "sim.uniforms.share": ("share", "higher"),
    "cli.main.calls": ("count/op", "lower"),
    "cli.main.busy_s": ("s/op", "lower"),
    "cli.main.self_s": ("s/op", "lower"),
    "trace.overhead_s": ("s/op", "lower"),
}


def _positional(args, kwargs, i, key, default=None):
    return args[i] if len(args) > i else kwargs.get(key, default)


def _observe_build_chain(counts, maxima, args, kwargs, chain):
    counts["chain.build_chain.states"] += chain.n


def _observe_stationary(counts, maxima, args, kwargs, dist):
    chain = _positional(args, kwargs, 0, "chain")
    method = _positional(args, kwargs, 1, "method", "auto")
    counts["chain.stationary.power_iters"] += dist.iterations
    if dist.method == "direct":
        counts["chain.stationary.direct"] += 1
        if method == "auto" and chain.n > 1:
            counts["chain.stationary.fallbacks"] += 1
    maxima["chain.stationary.max_residual"] = max(
        maxima["chain.stationary.max_residual"], dist.residual)
    a_max = chain.params.a_max
    rows = [chain.index.get((a_max, z)) for z in range(a_max)]
    mass = float(sum(dist.probs[i] for i in rows if i is not None))
    maxima["chain.ceiling_mass_max"] = max(maxima["chain.ceiling_mass_max"], mass)


def _observe_rvi(counts, maxima, args, kwargs, report):
    params = _positional(args, kwargs, 0, "params")
    counts["mdp.rvi_solve.sweeps"] += report.iterations
    counts["mdp.rvi_solve.cells"] += report.iterations * params.a_max**2
    counts["mdp.rvi_solve.unconverged"] += not report.converged


def _observe_brute_force(counts, maxima, args, kwargs, report):
    counts["mdp.brute_force.candidates"] += report.iterations


def _observe_simulate(counts, maxima, args, kwargs, result):
    config = _positional(args, kwargs, 2, "config")
    counts["sim.slots"] += config.resolved_warmup() + result.slots
    counts["sim.counted"] += result.slots
    counts["sim.horizon"] += config.horizon


OBSERVERS = {
    "chain.build_chain": _observe_build_chain,
    "chain.stationary": _observe_stationary,
    "mdp.rvi_solve": _observe_rvi,
    "mdp.brute_force": _observe_brute_force,
    "sim.simulate": _observe_simulate,
}


class Tracer:
    """Context manager that patches every ``TRACED`` name and records spans.

    ``op_id`` is set by the caller before each top-level operation; spans
    opened during it carry that id.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tracer_s = array("d")
        self.op_id = -1
        self._tracer_total = array("d", [0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, span in TRACED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(span, original))
                self._saved.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, span: str, fn):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        observe = OBSERVERS.get(span)
        stack = self._stack
        start, end, name, parent, op = self.start, self.end, self.name, self.parent, self.op
        tracer_s, total = self.tracer_s, self._tracer_total
        counts, maxima = self.counts, self.maxima
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            tracer_s.append(0.0)
            stack.append(idx)
            before = total[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                tracer_s[idx] = total[0] - before
            if observe is not None:
                observe(counts, maxima, args, kwargs, result)
            total[0] += (t0 - entered) + (clock() - t1)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, plus the name table."""
        return {
            "names": np.array(self.names),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "tracer_s": np.frombuffer(self.tracer_s, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Every ``PER_LAYER`` metric except ``trace.overhead_s``, per operation."""
    spans = tracer.arrays()
    names = list(spans["names"])
    duration = spans["end"] - spans["start"] - spans["tracer_s"]
    parent = spans["parent"]
    own = self_times(duration, parent)
    nid = spans["name"]

    def select(span: str) -> np.ndarray:
        return nid == names.index(span) if span in names else np.zeros(nid.size, bool)

    def calls(span):
        return float(select(span).sum())

    def busy(span):
        return float(duration[select(span)].sum())

    def self_s(span):
        return float(own[select(span)].sum())

    layer = np.array([n.split(".")[0] for n in names])[nid] if nid.size else np.array([], str)
    outer_heuristics = (layer == "heuristics") & ((parent < 0) | (layer[np.maximum(parent, 0)] != "heuristics"))

    c = tracer.counts
    m = tracer.maxima
    per_op = {
        "core.transitions.calls": calls("core.transitions"),
        "core.transitions.busy_s": busy("core.transitions"),
        "heuristics.calls": float(outer_heuristics.sum()),
        "heuristics.busy_s": float(duration[outer_heuristics].sum()),
        "chain.build_chain.calls": calls("chain.build_chain"),
        "chain.build_chain.busy_s": busy("chain.build_chain"),
        "chain.build_chain.states": c["chain.build_chain.states"],
        "chain.evaluate_exact.calls": calls("chain.evaluate_exact"),
        "chain.evaluate_exact.busy_s": busy("chain.evaluate_exact"),
        "chain.evaluate_exact.self_s": self_s("chain.evaluate_exact"),
        "chain.stationary.calls": calls("chain.stationary"),
        "chain.stationary.busy_s": busy("chain.stationary"),
        "chain.stationary.power_iters": c["chain.stationary.power_iters"],
        "chain.stationary.fallbacks": c["chain.stationary.fallbacks"],
        "mdp.rvi_solve.calls": calls("mdp.rvi_solve"),
        "mdp.rvi_solve.busy_s": busy("mdp.rvi_solve"),
        "mdp.rvi_solve.sweeps": c["mdp.rvi_solve.sweeps"],
        "mdp.rvi_solve.unconverged": c["mdp.rvi_solve.unconverged"],
        "mdp.sweep_lambdas.self_s": self_s("mdp.sweep_lambdas"),
        "mdp.brute_force.busy_s": busy("mdp.brute_force"),
        "mdp.brute_force.candidates": c["mdp.brute_force.candidates"],
        "mdp.brute_force.self_s": self_s("mdp.brute_force"),
        "mdp.discounted_vi.busy_s": busy("mdp.discounted_vi"),
        "mdp.verify_structure.busy_s": busy("mdp.verify_structure"),
        "sim.simulate.calls": calls("sim.simulate"),
        "sim.simulate.busy_s": busy("sim.simulate"),
        "sim.slots": c["sim.slots"],
        "sim.uniforms.busy_s": busy("sim.uniforms"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.busy_s": busy("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
    }
    out = {k: v / ops for k, v in per_op.items()}
    out.update({
        "chain.build_chain.ns_per_state": 1e9 * _ratio(busy("chain.build_chain"), c["chain.build_chain.states"]),
        "chain.stationary.direct_share": _ratio(c["chain.stationary.direct"], calls("chain.stationary")),
        "chain.stationary.max_residual": m["chain.stationary.max_residual"],
        "chain.ceiling_mass_max": m["chain.ceiling_mass_max"],
        "mdp.rvi_solve.ns_per_cell": 1e9 * _ratio(busy("mdp.rvi_solve"), c["mdp.rvi_solve.cells"]),
        "mdp.brute_force.ms_per_candidate": 1e3 * _ratio(busy("mdp.brute_force"), c["mdp.brute_force.candidates"]),
        "sim.ns_per_slot": 1e9 * _ratio(busy("sim.simulate"), c["sim.slots"]),
        "sim.counted_share": _ratio(c["sim.counted"], c["sim.horizon"]),
        "sim.uniforms.share": _ratio(busy("sim.uniforms"), busy("sim.simulate")),
    })
    return out

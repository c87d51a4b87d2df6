"""The benchmark workloads: seeded inputs, top-level operations and their checks.

Each workload is one pass, a list of top-level operations built from the
workload seed, that the runner repeats in a closed loop with one client.
Every operation is checked against an independent reference (the exhaustive
threshold search, the frontier's dominance and extremes, the closed forms or
the exact chain), against its own first repeat, and, at the default seed,
against the values recorded at the seed commit in ``reference.json``.

The package functions are looked up as module attributes at call time
(``mdp.rvi_solve``, not a name bound at import) so that a ``Tracer`` patch
applies to them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from aoi_offload import chain, cli, heuristics, mdp, sim
from aoi_offload.core import ModelParams

#: Oracle and frontier tolerance, as in the acceptance criteria 7 and 8.
GAIN_TOL = 1e-6
#: Relative tolerance against figures recorded at the seed commit.
RECORDED_RTOL = 1e-8
#: A simulated mean may miss its exact value by this many batch-means
#: standard errors.  With 20 batches the error ratio is roughly t(19), for
#: which |t| > 6 has probability about 1e-5 per check.
SIM_SE_GATE = 6.0


@dataclass
class Op:
    """One top-level operation and the checks on its result.

    ``verify`` turns the raw result into a JSON-friendly digest and reports
    any disagreement with an independent reference; ``matches`` compares a
    digest with the value recorded at the seed commit.
    """

    label: str
    call: Callable[[], Any]
    verify: Callable[[Any], tuple[Any, str | None]]
    matches: Callable[[Any, Any], bool]
    recorded: Any = None
    first: Any = None

    def check(self, raw) -> str | None:
        """Failure message for ``raw``, or None when every check passes."""
        digest, failure = self.verify(raw)
        if failure is None and self.recorded is not None and not self.matches(digest, self.recorded):
            failure = "differs from the value recorded at the seed commit"
        if failure is None and self.first is not None and digest != self.first:
            failure = "differs from its first repeat"
        if self.first is None:
            self.first = digest
        return None if failure is None else f"{self.label}: {failure}"


@dataclass
class Workload:
    """One pass of operations and the inputs to record."""

    name: str
    ops: list[Op]
    inputs: dict


def _close(a: float, b: float, rtol: float = RECORDED_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _jitter(rng: np.random.Generator, centre: float, width: float) -> float:
    """``centre`` scaled by a uniform factor in [1 - width/2, 1 + width/2]."""
    return float(centre * (1.0 + width * (rng.random() - 0.5)))


def frontier(seed: int, workdir: Path, a_max: int = 120, a_star_hi: int = 4,
             lambda_count: int = 6) -> Workload:
    """One ``aoi-offload frontier`` invocation at mu near 0.01.

    The price grid ends at 3, past the price (about 1) where the optimal
    policy starts keeping work local, which is where relative value iteration
    needs thousands of sweeps even from a warm start.
    """
    rng = np.random.default_rng(seed)
    # Only mu is jittered, by 0.2 %: RVI sweep counts move like 1 / mu, and
    # the last price's count jumps by up to 25 % when the top of the price
    # grid moves by 1 %, which would make one invocation's work depend on the
    # seed.
    mu = _jitter(rng, 0.01, 0.004)
    out = Path(workdir) / "frontier.csv"
    argv = ["frontier", "--mu", repr(mu), "--amax", str(a_max),
            "--astar-range", "1", str(a_star_hi), "--zstar-range", "0", "9",
            "--lambda-min", "0.01", "--lambda-max", "3",
            "--lambda-count", str(lambda_count), "--out", str(out)]

    def verify(code):
        if code != 0:
            return None, f"exit code {code}"
        with open(out, newline="", encoding="utf-8") as fh:
            rows = [[r["family"], float(r["param"]), float(r["mu"]), float(r["p_bar"]),
                     float(r["delta"]), r["method"]] for r in csv.DictReader(fh)]
        out.unlink()
        return rows, _frontier_failure(rows)

    def matches(rows, recorded):
        return len(rows) == len(recorded) and all(
            a[0] == b[0] and a[5] == b[5] and all(_close(x, y) for x, y in zip(a[1:5], b[1:5]))
            for a, b in zip(rows, recorded))

    op = Op("frontier", lambda: cli.main(argv), verify, matches)
    inputs = {"mu": mu, "a_max": a_max, "a_stars": [1, a_star_hi], "z_stars": [0, 9],
              "prices": [float(x) for x in cli.lambda_grid(0.01, 3.0, lambda_count)],
              "argv": argv}
    return Workload("frontier", [op], inputs)


def _frontier_failure(rows) -> str | None:
    """Optimal rows dominate every heuristic row; the extremes hit (1, 1.5)."""
    optimal = [r for r in rows if r[0] == "optimal"]
    others = [r for r in rows if r[0] != "optimal"]
    if not optimal or not others:
        return "missing optimal or heuristic rows"
    for _, lam, _, p_bar, delta, _ in optimal:
        g = delta + lam * p_bar
        for family, param, _, hp, hd, _ in others:
            if g > hd + lam * hp + GAIN_TOL:
                return f"optimal at price {lam} beaten by {family}({param:g})"
    extremes = {
        "age_threshold(1)": [r for r in rows if r[0] == "age_threshold" and r[1] == 1.0],
        "service_threshold(0)": [r for r in rows if r[0] == "service_threshold" and r[1] == 0.0],
        "optimal at the lowest price": [min(optimal, key=lambda r: r[1])],
    }
    for label, hit in extremes.items():
        if not hit or (hit[0][3], hit[0][4]) != (1.0, 1.5):
            return f"{label} does not hit (p_bar, delta) = (1, 1.5)"
    return None


def oracle(seed: int, workdir: Path, points: int = 4, bound: int = 8, vi_iters: int = 100) -> Workload:
    """Criteria 8 and 6 at seeded points, mu in [0.3, 0.7] and price in [1, 2.5].

    Over that range the optimal thresholds stay below 8 (at most 7 on a
    grid scan), so a search bound of 8 always contains the optimum.
    """
    rng = np.random.default_rng(seed)
    pts = [(float(rng.uniform(0.3, 0.7)), float(math.exp(rng.uniform(0.0, math.log(2.5)))))
           for _ in range(points)]
    ops = [_oracle_op(f"oracle(mu={mu:.4f}, lam={lam:.4f})", mu, lam, bound, vi_iters) for mu, lam in pts]
    inputs = {"points": pts, "a_max": [20, 50], "search_bound": bound, "vi_iters": vi_iters}
    return Workload("oracle", ops, inputs)


def _oracle_op(label: str, mu: float, lam: float, bound: int, vi_iters: int) -> Op:
    small = ModelParams(mu=mu, lam=lam, a_max=20)
    large = ModelParams(mu=mu, lam=lam, beta=0.99, a_max=50)

    def call():
        solved = mdp.rvi_solve(small)
        best = mdp.brute_force_best_threshold(small, search_bound=bound)
        solved_large = mdp.rvi_solve(large)
        report = mdp.verify_structure(mdp.discounted_vi(large, vi_iters), solved_large.policy)
        return solved, best, solved_large, report

    def verify(raw):
        solved, best, solved_large, report = raw
        digest = {"g": solved.g, "g_oracle": best.g, "table": list(best.full_thresholds),
                  "g_large": solved_large.g, "structure": report.passed}
        if abs(solved.g - best.g) > GAIN_TOL:
            return digest, f"solver gain {solved.g!r} vs exhaustive search {best.g!r}"
        if not report.passed:
            return digest, f"structure checks failed: {[c.name for c in report.failures()]}"
        return digest, None

    def matches(digest, recorded):
        return (digest["table"] == recorded["table"] and digest["structure"] == recorded["structure"]
                and all(_close(digest[k], recorded[k]) for k in ("g", "g_oracle", "g_large")))

    return Op(label, call, verify, matches)


def _sim_op(label: str, policy: chain.Policy, mu: float, horizon: int, seed: int,
            exact: heuristics.EvalResult) -> Op:
    params = ModelParams(mu=mu, a_max=50)
    config = sim.SimConfig(horizon=horizon, seed=seed)

    def verify(res):
        digest = asdict(res)
        for name, got, want, se in (("delta", res.delta_hat, exact.delta, res.stderr_delta),
                                    ("p_bar", res.p_bar_hat, exact.p_bar, res.stderr_p)):
            if abs(got - want) > max(SIM_SE_GATE * se, 1e-9):
                return digest, f"{name} {got!r} vs exact {want!r} (stderr {se:.3e})"
        return digest, None

    return Op(label, lambda: sim.simulate(policy, params, config), verify,
              lambda digest, recorded: digest == recorded)


def _mean_cycle(policy: chain.Policy, mu: float) -> float:
    """Mean slots between deliveries: 1 / stationary mass of the z = 0 states."""
    c = chain.build_chain(policy, ModelParams(mu=mu, a_max=50))
    dist = chain.stationary(c)
    starts = np.array([s.z == 0 for s in c.states])
    return float(1.0 / dist.probs[starts].sum())


def sim_long(seed: int, workdir: Path, horizon: int = 200_000) -> Workload:
    """Long delivery cycles: mu near 0.01, local-only and service thresholds
    50, 100 and 200, whose mean cycle lengths are about 40 to 100 slots."""
    rng = np.random.default_rng(seed)
    ops, cycles = [], {}
    for mu in (_jitter(rng, 0.01, 0.1), _jitter(rng, 0.01, 0.1)):
        cases = [("local_only", chain.local_only_policy(), heuristics.local_only(mu), 1.0 / mu)]
        for z_star in (50, 100, 200):
            cases.append((f"service_threshold({z_star})", chain.service_threshold_policy(z_star),
                          heuristics.service_threshold_eval(mu, z_star),
                          heuristics.service_moments(mu, z_star).e_s))
        for name, policy, exact, cycle in cases:
            label = f"{name}@mu={mu:.5f}"
            ops.append(_sim_op(label, policy, mu, horizon, int(rng.integers(2**63)), exact))
            cycles[label] = cycle
    return Workload("sim_long", ops, {"horizon": horizon, "mean_cycle_slots": cycles})


def sim_short(seed: int, workdir: Path, horizon: int = 100_000) -> Workload:
    """Short delivery cycles (at most about 3 slots) at mu in {0.3, 0.5, 0.7}.

    Edge-only, local-only and the service threshold 2 have closed forms; the
    age threshold 4 and the literal table (5, 3, 2) are checked against the
    exact chain, which no ceiling touches at these rates.
    """
    rng = np.random.default_rng(seed)
    ops, cycles = [], {}
    for mu in (0.3, 0.5, 0.7):
        params = ModelParams(mu=mu, a_max=50)
        cases = [
            ("mec_only", chain.mec_only_policy(), heuristics.mec_only(), 1.0),
            ("local_only", chain.local_only_policy(), heuristics.local_only(mu), 1.0 / mu),
            ("service_threshold(2)", chain.service_threshold_policy(2),
             heuristics.service_threshold_eval(mu, 2), heuristics.service_moments(mu, 2).e_s),
        ]
        for name, policy in (("age_threshold(4)", chain.age_threshold_policy(4, 50)),
                             ("table(5,3,2)", chain.threshold_table_policy((5, 3, 2)))):
            cases.append((name, policy, chain.evaluate_exact(policy, params), _mean_cycle(policy, mu)))
        for name, policy, exact, cycle in cases:
            label = f"{name}@mu={mu}"
            ops.append(_sim_op(label, policy, mu, horizon, int(rng.integers(2**63)), exact))
            cycles[label] = cycle
    return Workload("sim_short", ops, {"horizon": horizon, "mean_cycle_slots": cycles})


BUILDERS = {"frontier": frontier, "oracle": oracle, "sim_long": sim_long, "sim_short": sim_short}


def build(name: str, seed: int, workdir: Path, recorded: list | None = None, **size) -> Workload:
    """The workload ``name`` at ``seed``; ``recorded`` holds one value per op."""
    workload = BUILDERS[name](seed, workdir, **size)
    if recorded is not None:
        if len(recorded) != len(workload.ops):
            raise ValueError(f"{name}: {len(recorded)} recorded values for {len(workload.ops)} ops")
        for op, value in zip(workload.ops, recorded):
            op.recorded = value
    return workload

"""Command-line front end for the offloading toolkit.

Subcommands:
  eval      evaluate one policy, print a JSON point
  frontier  sweep the policy families onto the age vs edge-use plane (CSV/JSON)
  verify    run the structural and cross-method agreement checks
  simulate  Monte Carlo one policy with a fixed seed
  rvi       solve for the optimal policy, print gain and thresholds

Exit codes: 0 success, 1 a verification check failed, 2 invalid flags,
3 output could not be written.  Every flag a command takes is checked
before it computes anything, except the size of a solved policy's exact
chain (``chain.check_chain_size``), known only once it is solved.  Flags
override values from an optional ``--config PATH`` JSON file, which
overrides the built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import MEMORY_BUDGET, ModelParams, validate_whole
from . import heuristics
from .chain import (
    age_threshold_policy,
    check_chain_size,
    evaluate_exact,
    local_only_policy,
    mec_only_policy,
    service_threshold_policy,
)
from .mdp import (
    check_grid_side,
    default_a_max,
    discounted_vi,
    rvi_solve,
    sweep_lambdas,
    verify_structure,
)
from .sim import SimConfig, simulate

__all__ = ["FrontierPoint", "build_parser", "main", "lambda_grid"]

#: Evaluation methods per family; the first is the default.
_METHODS = {
    "local_only": ("closed_form", "sim"),
    "mec_only": ("closed_form", "chain", "sim"),
    "age_threshold": ("chain", "sim"),
    "service_threshold": ("closed_form", "chain", "sim"),
    "optimal": ("rvi", "sim"),
}

FAMILIES = tuple(_METHODS)

#: Closed-form evaluation per family, from the parsed flags.
_CLOSED_FORMS = {
    "local_only": lambda a: heuristics.local_only(a.mu, a.lam),
    "mec_only": lambda a: heuristics.mec_only(a.lam),
    "service_threshold": lambda a: heuristics.service_threshold_eval(a.mu, a.zstar, a.lam),
}

#: Keys a ``--config`` file may set: each names the flag ``--key``.
_CONFIG_KEYS = ("mu", "lambda", "beta", "amax", "seed", "horizon", "warmup", "batches", "out",
                "format")


@dataclass(frozen=True)
class FrontierPoint:
    """One sample on the age vs edge-use plane."""

    family: str
    param: float
    mu: float
    p_bar: float
    delta: float
    method: str


def _f12(x: float) -> str:
    return format(float(x), ".12g")


def lambda_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` log-spaced prices in (lo, hi]: the left endpoint is excluded.
    ``frontier`` keeps a solved policy per price, 51.5 kB at a_max 3200 under
    tracemalloc, so ``count`` is bounded at 56 kB a price in ``core.MEMORY_BUDGET``."""
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"need 0 < lambda-min < lambda-max < inf, got {lo} and {hi}")
    count = validate_whole(count, 1, "lambda-count must be an integer")
    if count > MEMORY_BUDGET // 56_000:
        raise ValueError(f"lambda-count {count} exceeds {MEMORY_BUDGET // 56_000}, "
                         f"the most prices whose solved policies frontier keeps")
    return np.geomspace(lo, hi, count + 1)[1:]


def _resolve_a_max(args) -> int:
    return args.a_max if args.a_max is not None else default_a_max(args.mu)


def _checked(parser, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ``ValueError`` it raises exits with code 2."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _model_params(args, parser, **extra) -> ModelParams:
    return _checked(parser, ModelParams, args.mu, args.lam, a_max=_resolve_a_max(args), **extra)


def _sim_config(args, parser) -> SimConfig:
    return _checked(parser, SimConfig, args.horizon, args.seed, args.warmup, args.batches)


def _emit(text: str, out: str | None, passed: bool = True) -> int:
    """Write ``text``; the exit code is 3 if that fails, else 1 unless ``passed``."""
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 3
    return 0 if passed else 1


def _build_policy(family: str, args, parser, params: ModelParams):
    if family == "local_only":
        return local_only_policy(), 0.0
    if family == "mec_only":
        return mec_only_policy(), 0.0
    if family == "age_threshold":
        if args.astar is None:
            parser.error("age_threshold requires --astar")
        return _checked(parser, age_threshold_policy, args.astar, params.a_max), float(args.astar)
    if family == "service_threshold":
        if args.zstar is None:
            parser.error("service_threshold requires --zstar >= 0")
        return _checked(parser, service_threshold_policy, args.zstar), float(args.zstar)
    _checked(parser, check_grid_side, params.a_max)
    return rvi_solve(params).policy, float(args.lam)


def _cmd_eval(args, parser) -> int:
    family = args.family
    method = args.method or _METHODS[family][0]
    if method not in _METHODS[family]:
        parser.error(f"method {method!r} is not available for family {family!r}")
    params = _model_params(args, parser)
    config = _sim_config(args, parser)
    policy, param = _build_policy(family, args, parser, params)
    if method == "closed_form":
        res = _checked(parser, _CLOSED_FORMS[family], args)
        p_bar, delta = res.p_bar, res.delta
    elif method == "sim":
        res = simulate(policy, params, config)
        p_bar, delta = res.p_bar_hat, res.delta_hat
    else:
        _checked(parser, check_chain_size, policy, params)
        res = evaluate_exact(policy, params)
        p_bar, delta = res.p_bar, res.delta
    point = FrontierPoint(family, param, args.mu, p_bar, delta, method)
    return _emit(json.dumps(asdict(point)) + "\n", args.out)


def frontier_points(
    mu: float,
    a_stars,
    z_stars,
    lambdas,
    a_max: int,
) -> list[FrontierPoint]:
    """All frontier rows for one service rate, sorted by (family, param)."""
    params = ModelParams(mu=mu, a_max=a_max)
    # (family, param, evaluation, method) per row
    rows = [("local_only", 0.0, heuristics.local_only(mu), "closed_form"),
            ("mec_only", 0.0, heuristics.mec_only(), "closed_form")]
    for a_star in a_stars:
        res = evaluate_exact(age_threshold_policy(a_star, a_max), params)
        rows.append(("age_threshold", float(a_star), res, "chain"))
    for z_star in z_stars:
        rows.append(("service_threshold", float(z_star),
                     heuristics.service_threshold_eval(mu, z_star), "closed_form"))
    for lam, report in sweep_lambdas(mu, lambdas, a_max):
        res = evaluate_exact(report.policy, ModelParams(mu=mu, lam=lam, a_max=a_max))
        rows.append(("optimal", lam, res, "rvi"))
    return sorted((FrontierPoint(family, param, mu, res.p_bar, res.delta, method)
                   for family, param, res, method in rows), key=lambda p: (p.family, p.param))


def _render_csv(points: list[FrontierPoint]) -> str:
    lines = ["family,param,mu,p_bar,delta,method"]
    for p in points:
        lines.append(
            f"{p.family},{_f12(p.param)},{_f12(p.mu)},{_f12(p.p_bar)},{_f12(p.delta)},{p.method}"
        )
    return "\n".join(lines) + "\n"


def _cmd_frontier(args, parser) -> int:
    a_stars = range(args.astar_range[0], args.astar_range[1] + 1)
    z_stars = range(args.zstar_range[0], args.zstar_range[1] + 1)
    for flag, stars in (("--astar-range", a_stars), ("--zstar-range", z_stars)):
        if not stars:
            parser.error(f"empty {flag}")
    lambdas = _checked(parser, lambda_grid, args.lambda_min, args.lambda_max, args.lambda_count)
    a_max = _resolve_a_max(args)
    params = _checked(parser, ModelParams, mu=args.mu, a_max=a_max)
    _checked(parser, check_grid_side, a_max)
    # a range passes when its ends do, so its sweep cannot fail part way; the
    # largest age threshold has the largest chain
    for a_star, z_star in ((a_stars[0], z_stars[0]), (a_stars[-1], z_stars[-1])):
        _checked(parser, age_threshold_policy, a_star, a_max)
        _checked(parser, heuristics.validate_z_star, z_star)
    _checked(parser, check_chain_size, age_threshold_policy(a_stars[-1], a_max), params)
    # an optimal policy's chain is known only once it is solved
    points = _checked(parser, frontier_points, args.mu, a_stars, z_stars, lambdas, a_max)
    if args.fmt == "csv":
        text = _render_csv(points)
    else:
        text = json.dumps([asdict(p) for p in points], indent=2) + "\n"
    return _emit(text, args.out)


def _cmd_rvi(args, parser) -> int:
    params = _model_params(args, parser)
    _checked(parser, check_grid_side, params.a_max)
    report = rvi_solve(params)
    payload = {
        "mu": args.mu,
        "lambda": args.lam,
        "a_max": params.a_max,
        "g": report.g,
        "iterations": report.iterations,
        "span_residual": report.span_residual,
        "converged": report.converged,
        "threshold_exact": report.threshold_exact,
        "thresholds": report.thresholds,
    }
    return _emit(json.dumps(payload, indent=2) + "\n", args.out, report.converged)


def _cmd_simulate(args, parser) -> int:
    params = _model_params(args, parser)
    config = _sim_config(args, parser)
    policy, param = _build_policy(args.family, args, parser, params)
    res = simulate(policy, params, config)
    payload = {"family": args.family, "param": param, "mu": args.mu, "seed": args.seed,
               **asdict(res)}
    return _emit(json.dumps(payload, indent=2) + "\n", args.out)


def _verify_checks(args, params: ModelParams, config: SimConfig, iterates) -> dict:
    report = rvi_solve(params)
    structure = verify_structure(iterates, report.policy)
    agreement = []

    def check(name: str, passed, detail: str) -> None:
        agreement.append({"name": name, "passed": bool(passed), "detail": detail})

    exact = evaluate_exact(report.policy, params)
    check("rvi_gain_matches_exact_policy_cost",
          abs(exact.g - report.g) <= max(1e-6, 1e-12 * abs(report.g)),
          f"rvi g={report.g!r}, chain g={exact.g!r}")
    for z_star in range(0, 6):
        closed = heuristics.service_threshold_eval(args.mu, z_star)
        chain_res = evaluate_exact(service_threshold_policy(z_star), params)
        rel = max(
            abs(closed.delta - chain_res.delta) / closed.delta,
            abs(closed.p_bar - chain_res.p_bar) / max(closed.p_bar, 1e-15),
        )
        check(f"closed_form_vs_chain_z{z_star}", rel <= 1e-8, f"max relative difference {rel:.3e}")
    for z_star in (0, 2, 5):
        closed = heuristics.service_threshold_eval(args.mu, z_star)
        cfg = replace(config, seed=(config.seed + z_star) % 2**64)
        sres = simulate(service_threshold_policy(z_star), params, cfg)
        ok = (abs(sres.delta_hat - closed.delta) <= max(3 * sres.stderr_delta, 1e-9)
              and abs(sres.p_bar_hat - closed.p_bar) <= max(3 * sres.stderr_p, 1e-9))
        check(f"simulation_vs_closed_form_z{z_star}", ok,
              f"delta_hat={sres.delta_hat!r} (se {sres.stderr_delta:.2e}), "
              f"p_bar_hat={sres.p_bar_hat!r} (se {sres.stderr_p:.2e})")
    passed = structure.passed and all(c["passed"] for c in agreement)
    return {
        "passed": passed,
        "mu": args.mu,
        "lambda": args.lam,
        "beta": args.beta,
        "a_max": params.a_max,
        "g": report.g,
        "threshold_exact": report.threshold_exact,
        "thresholds": report.thresholds,
        "structure": structure.to_dict(),
        "agreement": agreement,
    }


def _cmd_verify(args, parser) -> int:
    params = _model_params(args, parser, beta=args.beta)
    config = _sim_config(args, parser)
    iterates = _checked(parser, discounted_vi, params, args.vi_iters)
    # the solved policy's chain is bounded once it is known
    payload = _checked(parser, _verify_checks, args, params, config, iterates)
    return _emit(json.dumps(payload, indent=2) + "\n", args.out, payload["passed"])


def _add_model_flags(sub, mu_default=0.5, price=True):
    sub.add_argument("--mu", type=float, default=mu_default,
                     help="local per-slot completion probability")
    if price:
        sub.add_argument("--lambda", dest="lam", type=float, default=0.0,
                         help="price per edge use")
    sub.add_argument("--amax", dest="a_max", type=int, default=None,
                     help="age ceiling (default: 50, or 400 when mu < 0.1)")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file with flag defaults")
    sub.add_argument("--out", type=str, default=None, help="write output here instead of stdout")


def _add_sim_flags(sub):
    sub.add_argument("--seed", type=int, default=1, help="stream seed in [0, 2**64)")
    sub.add_argument("--horizon", type=int, default=1_000_000, help="slots to simulate")
    sub.add_argument("--warmup", type=int, default=None,
                     help="slots discarded before averaging (default 1%% of horizon)")
    sub.add_argument("--batches", type=int, default=20, help="batches for standard errors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-offload",
        description="Age-of-information vs edge-offloading tradeoff toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate one policy, print a JSON point")
    _add_model_flags(p_eval)
    _add_sim_flags(p_eval)
    p_eval.add_argument("--family", required=True, choices=FAMILIES)
    p_eval.add_argument("--astar", type=int, default=None, help="age threshold")
    p_eval.add_argument("--zstar", type=int, default=None, help="service threshold")
    p_eval.add_argument("--method", choices=("closed_form", "chain", "rvi", "sim"), default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_frontier = subs.add_parser("frontier", help="sweep the families onto the age/edge-use plane")
    _add_model_flags(p_frontier, mu_default=0.01, price=False)
    p_frontier.add_argument("--astar-range", type=int, nargs=2, default=(1, 15),
                            metavar=("LO", "HI"))
    p_frontier.add_argument("--zstar-range", type=int, nargs=2, default=(0, 9),
                            metavar=("LO", "HI"))
    p_frontier.add_argument("--lambda-min", type=float, default=0.01)
    p_frontier.add_argument("--lambda-max", type=float, default=50.0)
    p_frontier.add_argument("--lambda-count", type=int, default=25)
    p_frontier.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p_frontier.set_defaults(func=_cmd_frontier, out="frontier.csv")

    p_verify = subs.add_parser("verify", help="structural and agreement checks")
    _add_model_flags(p_verify)
    _add_sim_flags(p_verify)
    p_verify.add_argument("--beta", type=float, default=0.99,
                          help="discount factor of the value iterates")
    p_verify.add_argument("--vi-iters", type=int, default=300,
                          help="discounted iterates for the structure checks")
    p_verify.set_defaults(func=_cmd_verify, lam=3.0, seed=123456)

    p_sim = subs.add_parser("simulate", help="Monte Carlo one policy")
    _add_model_flags(p_sim)
    _add_sim_flags(p_sim)
    p_sim.add_argument("--family", required=True, choices=FAMILIES)
    p_sim.add_argument("--astar", type=int, default=None)
    p_sim.add_argument("--zstar", type=int, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_rvi = subs.add_parser("rvi", help="solve for the optimal policy")
    _add_model_flags(p_rvi)
    p_rvi.set_defaults(func=_cmd_rvi)

    return parser


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the values of the JSON file at ``path`` every subcommand's defaults."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        parser.error(f"config {path} must hold a JSON object")
    subs = [sub for action in parser._subparsers._group_actions  # noqa: SLF001 - argparse keeps this stable
            for sub in action.choices.values()]
    defaults = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            parser.error(f"unknown config key {key!r}")
        if type(value) not in (str, int, float):  # JSON true/false/null, arrays, objects
            parser.error(f"config key {key!r} must be a string or a number, got {json.dumps(value)}")
        # read the value as its flag reads it on the command line
        sub, flag = next((sub, a) for sub in subs for a in sub._actions
                         if f"--{key}" in a.option_strings)
        try:
            defaults[flag.dest] = sub._get_value(flag, str(value))  # noqa: SLF001
            sub._check_value(flag, defaults[flag.dest])  # noqa: SLF001
        except argparse.ArgumentError as exc:
            parser.error(f"config key {key!r}: {exc}")
    for sub in subs:
        sub.set_defaults(**defaults)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:  # parse again so that explicit flags win over the file
        _apply_config(parser, args.config)
        args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())

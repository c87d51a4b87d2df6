import argparse
import json
from pathlib import Path

import pytest

from aoi_offload import chain, cli
from aoi_offload.chain import (
    age_threshold_policy,
    evaluate_exact,
    local_only_policy,
    mec_only_policy,
    service_threshold_policy,
)
from aoi_offload.cli import main
from aoi_offload.core import ModelParams
from aoi_offload.heuristics import local_only, mec_only, service_threshold_eval
from aoi_offload.mdp import rvi_solve
from aoi_offload.sim import SimConfig, simulate


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_mec_only_is_exact(capsys):
    code, out, _ = run(capsys, ["eval", "--family", "mec_only"])
    assert code == 0
    point = json.loads(out)
    assert point["delta"] == 1.5
    assert point["p_bar"] == 1.0
    assert point["method"] == "closed_form"


def test_eval_service_threshold_via_chain(capsys):
    code, out, _ = run(capsys, ["eval", "--family", "service_threshold",
                                "--mu", "0.5", "--zstar", "1", "--method", "chain"])
    assert code == 0
    point = json.loads(out)
    assert point["p_bar"] == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert point["delta"] == pytest.approx(11.0 / 6.0, rel=1e-9)


def test_eval_local_only_slow_server(capsys):
    code, out, _ = run(capsys, ["eval", "--family", "local_only", "--mu", "0.01"])
    assert code == 0
    point = json.loads(out)
    assert point["delta"] == 199.5
    assert point["p_bar"] == 0.0


def test_eval_optimal_reports_lambda_as_param(capsys):
    code, out, _ = run(capsys, ["eval", "--family", "optimal", "--mu", "0.5",
                                "--lambda", "3", "--amax", "50"])
    assert code == 0
    point = json.loads(out)
    assert point["param"] == 3.0
    assert point["method"] == "rvi"
    assert point["delta"] + 3.0 * point["p_bar"] == pytest.approx(2.7352941176, abs=1e-6)


#: One model point for the library comparisons: its flags, its parameters,
#: each family's flags and policy, and the simulator's run.
MODEL_FLAGS = ["--mu", "0.4", "--lambda", "2", "--amax", "40", "--horizon", "20000", "--seed", "5"]
PARAMS = ModelParams(mu=0.4, lam=2.0, a_max=40)
SIM_CONFIG = SimConfig(horizon=20_000, seed=5)
FAMILY_FLAGS = {"local_only": [], "mec_only": [], "age_threshold": ["--astar", "3"],
                "service_threshold": ["--zstar", "2"], "optimal": []}
POLICIES = {"local_only": local_only_policy, "mec_only": mec_only_policy,
            "age_threshold": lambda: age_threshold_policy(3, PARAMS.a_max),
            "service_threshold": lambda: service_threshold_policy(2),
            "optimal": lambda: rvi_solve(PARAMS).policy}
CLOSED_FORMS = {"local_only": lambda: local_only(PARAMS.mu, PARAMS.lam),
                "mec_only": lambda: mec_only(PARAMS.lam),
                "service_threshold": lambda: service_threshold_eval(PARAMS.mu, 2, PARAMS.lam)}


@pytest.mark.parametrize("family, method", [(family, method) for family, methods
                                            in cli._METHODS.items() for method in methods])
def test_eval_prints_the_library_result(capsys, family, method):
    code, out, _ = run(capsys, ["eval", "--family", family, "--method", method,
                                *FAMILY_FLAGS[family], *MODEL_FLAGS])
    assert code == 0
    point = json.loads(out)
    if method == "closed_form":
        res = CLOSED_FORMS[family]()
        expected = res.p_bar, res.delta
    elif method == "sim":
        res = simulate(POLICIES[family](), PARAMS, SIM_CONFIG)
        expected = res.p_bar_hat, res.delta_hat
    else:  # chain and rvi
        res = evaluate_exact(POLICIES[family](), PARAMS)
        expected = res.p_bar, res.delta
    assert (point["p_bar"], point["delta"]) == expected
    assert point["method"] == method


@pytest.mark.parametrize("family", ["local_only", "mec_only"])
def test_simulate_prints_the_library_result(capsys, family):
    code, out, _ = run(capsys, ["simulate", "--family", family, *MODEL_FLAGS])
    assert code == 0
    payload = json.loads(out)
    res = simulate(POLICIES[family](), PARAMS, SIM_CONFIG)
    assert (payload["p_bar_hat"], payload["delta_hat"]) == (res.p_bar_hat, res.delta_hat)
    assert (payload["stderr_p"], payload["stderr_delta"]) == (res.stderr_p, res.stderr_delta)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--family", "service_threshold", "--mu", "0.5"],  # missing zstar
        ["eval", "--family", "nonsense"],
        ["eval", "--family", "age_threshold", "--method", "closed_form", "--astar", "3"],
        ["eval", "--family", "age_threshold", "--astar", "90", "--amax", "50"],
        ["eval", "--family", "local_only", "--mu", "0"],
        ["frontier", "--lambda-min", "-2", "--out", "x.csv"],
        ["nope"],
        ["rvi", "--mu", "0"],
        ["rvi", "--mu", "0.5", "--amax", "1"],
        ["frontier", "--mu", "0"],
        ["verify", "--mu", "1.5"],
        ["simulate", "--family", "age_threshold", "--astar", "0"],
        ["simulate", "--family", "service_threshold", "--zstar", "-1"],
        ["verify", "--batches", "5"],
        ["verify", "--vi-iters", "-1"],
        ["verify", "--horizon", "5"],
        ["rvi", "--mu", "0.5", "--lambda", "nan"],
        ["rvi", "--mu", "0.5", "--lambda", "inf"],
        ["frontier", "--mu", "0.5", "--lambda-max", "nan"],
        ["eval", "--family", "mec_only", "--lambda", "nan"],
        ["eval", "--family", "mec_only", "--beta", "5"],
        ["rvi", "--beta", "0.9"],
        ["simulate", "--family", "local_only", "--beta", "0.9"],
        ["eval", "--family", "mec_only", "--mu", "7", "--amax", "1"],
        ["eval", "--family", "mec_only", "--mu", "0"],
        ["eval", "--family", "mec_only", "--horizon", "5"],
        ["frontier", "--lambda", "5"],
        ["simulate", "--family", "service_threshold", "--zstar", "1000001"],
        ["eval", "--family", "service_threshold", "--zstar", "2000000", "--method", "chain"],
        ["rvi", "--tol", "1e-8"],
        ["verify", "--inject-corruption"],  # removed; tests corrupt the iterates themselves
        ["eval", "--family", "age_threshold", "--method", "sim"],  # missing astar
        ["simulate", "--family", "service_threshold"],  # missing zstar
        ["frontier", "--astar-range", "5", "1"],
        ["frontier", "--lambda-min", "3", "--lambda-max", "0.01"],
        ["frontier", "--lambda-count", "0"],
        ["simulate", "--family", "local_only", "--seed", "-5"],
        ["simulate", "--family", "local_only", "--seed", str(2**64 + 1)],
        ["eval", "--family", "mec_only", "--config", "/nonexistent/cfg.json"],
        # value grids past the side limit
        ["rvi", "--amax", "100000", "--mu", "0.5"],
        ["eval", "--family", "optimal", "--amax", "100000"],
        ["simulate", "--family", "optimal", "--amax", "100000"],
        ["verify", "--amax", "100000"],
        ["verify", "--amax", "50", "--vi-iters", "100000"],
        ["frontier", "--amax", "100000"],
        # exact chains past the state limit
        ["eval", "--family", "service_threshold", "--zstar", "1000000", "--method", "chain",
         "--amax", "3200"],
        ["eval", "--family", "age_threshold", "--astar", "3200", "--amax", "3200"],
        ["frontier", "--astar-range", "1", "3200", "--amax", "3200"],
        # counts past the memory budget
        ["frontier", "--lambda-count", "10000000000000"],
        ["simulate", "--family", "mec_only", "--horizon", "10000000000000",
         "--batches", "1000000000000"],
    ],
)
def test_invalid_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize(
    "work, argv",
    [
        ("rvi_solve", ["verify", "--mu", "0.05", "--horizon", "5"]),
        ("rvi_solve", ["verify", "--vi-iters", "-1"]),
        ("frontier_points", ["frontier", "--mu", "0.5", "--amax", "50",
                             "--astar-range", "1", "51"]),
        ("frontier_points", ["frontier", "--zstar-range", "0", "2000000"]),
        ("rvi_solve", ["rvi", "--amax", "100000", "--mu", "0.5"]),
        ("rvi_solve", ["eval", "--family", "optimal", "--amax", "100000"]),
        ("rvi_solve", ["simulate", "--family", "optimal", "--amax", "100000"]),
        ("rvi_solve", ["verify", "--amax", "100000"]),
        ("frontier_points", ["frontier", "--amax", "100000"]),
        ("evaluate_exact", ["eval", "--family", "service_threshold", "--zstar", "1000000",
                            "--method", "chain", "--amax", "3200"]),
        ("evaluate_exact", ["eval", "--family", "age_threshold", "--astar", "3200",
                            "--amax", "3200"]),
        ("evaluate_exact", ["frontier", "--astar-range", "1", "3200", "--amax", "3200"]),
        ("frontier_points", ["frontier", "--lambda-count", "10000000000000"]),
        ("simulate", ["simulate", "--family", "mec_only", "--horizon", "10000000000000",
                      "--batches", "1000000000000"]),
    ],
)
def test_invalid_flags_exit_2_before_any_work(monkeypatch, capsys, work, argv):
    def work_started(*args, **kwargs):
        raise AssertionError(f"{argv[0]} called {work} before checking its flags")

    monkeypatch.setattr(cli, work, work_started)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--family", "optimal", "--lambda", "3"],
    ["frontier", "--mu", "0.5", "--amax", "20", "--astar-range", "1", "2",
     "--zstar-range", "0", "1", "--lambda-count", "2"],
    ["verify", "--amax", "20", "--vi-iters", "5", "--horizon", "20000"],
], ids=["eval", "frontier", "verify"])
def test_solved_chain_past_the_state_limit_exits_2(monkeypatch, capsys, argv):
    # with the limit at 2 states age threshold 2 fits, and the policies
    # solved at mu 0.5, prices 3 and 50, do not
    monkeypatch.setattr(chain, "_MAX_CHAIN_STATES", 2)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "states, above 2, the most that evaluate_exact builds" in capsys.readouterr().err


def test_oversized_grid_message_names_the_limit(capsys):
    with pytest.raises(SystemExit) as err:
        main(["rvi", "--amax", "100000", "--mu", "0.5"])
    assert err.value.code == 2
    assert "a_max 100000 exceeds 3200, the largest side" in capsys.readouterr().err


def test_single_price_on_frontier_names_the_sweep_flags(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["frontier", "--lambda", "5"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "ambiguous" not in message
    assert ("argument --lambda: frontier sweeps prices: "
            "use --lambda-min, --lambda-max and --lambda-count") in message
    # a config file's lambda key is still accepted by frontier, which leaves it unused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 2.0}))
    code, _, _ = run(capsys, ["frontier", "--conf", str(cfg), "--amax", "20", "--astar-range",
                              "1", "1", "--zstar-range", "0", "0", "--lambda-count", "1",
                              "--out", str(tmp_path / "f.csv")])
    assert code == 0


def test_frontier_at_defaults_matches_its_golden_file(tmp_path, capsys):
    # the file written at the defaults, kept byte for byte
    out = tmp_path / "frontier.csv"
    code, _, _ = run(capsys, ["frontier", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (Path(__file__).parent / "golden" / "frontier_defaults.csv").read_bytes()


def test_frontier_small_grid(tmp_path, capsys):
    out = tmp_path / "points.csv"
    code, _, _ = run(capsys, [
        "frontier", "--mu", "0.5", "--amax", "50",
        "--astar-range", "1", "4", "--zstar-range", "0", "3",
        "--lambda-min", "0.1", "--lambda-max", "10", "--lambda-count", "4",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,param,mu,p_bar,delta,method"
    assert len(lines) == 1 + 4 + 4 + 4 + 2
    families = [ln.split(",")[0] for ln in lines[1:]]
    assert families == sorted(families)
    for ln in lines[1:]:
        fields = ln.split(",")
        assert len(fields) == 6
        assert 0.0 <= float(fields[3]) <= 1.0
        assert float(fields[4]) >= 1.5


def test_frontier_json_format(tmp_path, capsys):
    out = tmp_path / "points.json"
    code, _, _ = run(capsys, [
        "frontier", "--mu", "0.5", "--amax", "50",
        "--astar-range", "1", "2", "--zstar-range", "0", "1",
        "--lambda-min", "0.1", "--lambda-max", "1", "--lambda-count", "2",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    points = json.loads(out.read_text())
    assert len(points) == 2 + 2 + 2 + 2
    assert {p["family"] for p in points} == {
        "local_only", "mec_only", "age_threshold", "service_threshold", "optimal"}


def test_frontier_unwritable_path_exits_3(capsys):
    code, _, err = run(capsys, [
        "frontier", "--mu", "0.5", "--amax", "50",
        "--astar-range", "1", "1", "--zstar-range", "0", "0",
        "--lambda-min", "0.1", "--lambda-max", "1", "--lambda-count", "1",
        "--out", "/nonexistent-dir/points.csv",
    ])
    assert code == 3
    assert "cannot write" in err


def test_verify_passes_on_reference_instance(capsys):
    code, out, _ = run(capsys, ["verify", "--mu", "0.5", "--lambda", "3",
                                "--beta", "0.99", "--amax", "50",
                                "--horizon", "200000"])
    report = json.loads(out)
    assert code == 0
    assert report["passed"] is True
    assert "1" in report["thresholds"] and "2" in report["thresholds"]
    assert report["structure"]["passed"] is True


def test_verify_gain_check_is_relative_at_huge_prices(capsys):
    # at lam 1e16 the gain is 8.6e10 and the solver and evaluator differ by
    # one ulp, 1.5e-5, far above an absolute 1e-6
    _, out, _ = run(capsys, ["verify", "--lambda", "1e16", "--amax", "20",
                             "--horizon", "100000", "--vi-iters", "20"])
    checks = {c["name"]: c for c in json.loads(out)["agreement"]}
    assert checks["rvi_gain_matches_exact_policy_cost"]["passed"] is True


def test_verify_perfect_local_server(capsys):
    code, out, _ = run(capsys, ["verify", "--mu", "1.0", "--lambda", "5",
                                "--amax", "30", "--horizon", "100000"])
    report = json.loads(out)
    assert code == 0
    assert report["g"] == pytest.approx(1.5, abs=1e-9)


def test_verify_detects_injected_corruption(capsys, monkeypatch):
    real = cli.discounted_vi

    def corrupted(params, n_iters):
        # the real iterates, the last one pulled far below its neighbours at (a_max // 2 + 1, 0)
        *head, last = real(params, n_iters)
        last[params.a_max // 2, 0] -= 10.0 * (1 + abs(last).max())
        return iter(head + [last])

    monkeypatch.setattr(cli, "discounted_vi", corrupted)
    code, out, _ = run(capsys, ["verify", "--mu", "0.5", "--lambda", "3",
                                "--amax", "30", "--horizon", "100000"])
    report = json.loads(out)
    assert code == 1
    assert report["passed"] is False
    assert any(not c["passed"] for c in report["structure"]["checks"])


def test_rvi_command_reports_gain(capsys):
    code, out, _ = run(capsys, ["rvi", "--mu", "0.5", "--lambda", "3", "--amax", "50"])
    assert code == 0
    payload = json.loads(out)
    assert payload["g"] == pytest.approx(93.0 / 34.0, abs=1e-8)
    assert payload["converged"] is True
    assert payload["threshold_exact"] is True


def test_simulate_prints_its_inputs_then_the_sim_result(capsys):
    _, out, _ = run(capsys, ["simulate", "--family", "local_only", "--horizon", "20000"])
    assert list(json.loads(out)) == ["family", "param", "mu", "seed", "delta_hat", "p_bar_hat",
                                     "stderr_delta", "stderr_p", "slots"]


def test_verify_agreement_names_and_entries(capsys):
    _, out, _ = run(capsys, ["verify", "--amax", "20", "--vi-iters", "20",
                             "--horizon", "20000"])
    payload = json.loads(out)
    assert payload["threshold_exact"] is True
    assert [c["name"] for c in payload["structure"]["checks"]] == [
        "value_nondecreasing_in_age",
        "value_nondecreasing_in_service",
        "relative_value_nonnegative",
        "thresholds_nonincreasing",
    ]
    agreement = payload["agreement"]
    assert [c["name"] for c in agreement] == [
        "rvi_gain_matches_exact_policy_cost",
        *(f"closed_form_vs_chain_z{z}" for z in range(6)),
        *(f"simulation_vs_closed_form_z{z}" for z in (0, 2, 5)),
    ]
    assert all(list(c) == ["name", "passed", "detail"] for c in agreement)


def test_verify_simulation_seeds_wrap_at_2_to_the_64(capsys):
    # check z draws from seed + z mod 2**64, the stream uniforms reads for it
    _, out, _ = run(capsys, ["verify", "--seed", str(2**64 - 1), "--amax", "20",
                             "--vi-iters", "5", "--horizon", "20000"])
    checks = {c["name"]: c["detail"] for c in json.loads(out)["agreement"]}
    res = simulate(service_threshold_policy(2), ModelParams(mu=0.5, lam=3.0, a_max=20),
                   SimConfig(horizon=20000, seed=1))
    assert checks["simulation_vs_closed_form_z2"].startswith(f"delta_hat={res.delta_hat!r} ")


def test_verify_simulation_details_carry_their_z_scores(capsys):
    # each estimate's |estimate - closed form| / stderr, the distance the
    # 3-SE gate reads, recomputed from the SimResult fields
    _, out, _ = run(capsys, ["verify", "--seed", "7", "--amax", "20", "--vi-iters", "5",
                             "--horizon", "20000"])
    checks = {c["name"]: c["detail"] for c in json.loads(out)["agreement"]}
    for z_star in (0, 2, 5):
        res = simulate(service_threshold_policy(z_star), ModelParams(mu=0.5, lam=3.0, a_max=20),
                       SimConfig(horizon=20000, seed=7 + z_star))
        closed = service_threshold_eval(0.5, z_star)
        z = [abs(est - exact) / se if se else 0.0 for est, exact, se in (
            (res.delta_hat, closed.delta, res.stderr_delta),
            (res.p_bar_hat, closed.p_bar, res.stderr_p))]
        assert checks[f"simulation_vs_closed_form_z{z_star}"] == (
            f"delta_hat={res.delta_hat!r} (se {res.stderr_delta:.2e}, z {z[0]:.2f}), "
            f"p_bar_hat={res.p_bar_hat!r} (se {res.stderr_p:.2e}, z {z[1]:.2f})")
    # an estimate with no error reads 0 when exact and inf when it misses
    assert cli._z_score(1.5, 1.5, 0.0) == 0.0
    assert cli._z_score(1.5, 1.25, 0.0) == float("inf")


def test_simulate_command_roundtrip(tmp_path, capsys):
    out = tmp_path / "sim.json"
    argv = ["simulate", "--family", "service_threshold", "--zstar", "1",
            "--mu", "0.5", "--horizon", "100000", "--seed", "7", "--out", str(out)]
    code, _, _ = run(capsys, argv)
    assert code == 0
    first = out.read_bytes()
    payload = json.loads(first)
    assert payload["slots"] == 99000 // 20 * 20
    code, _, _ = run(capsys, argv)
    assert out.read_bytes() == first


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": 0.25, "lambda": 2.0}))
    for config_flags in (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)]):
        code, out, _ = run(capsys, ["eval", "--family", "local_only", *config_flags])
        assert code == 0
        assert json.loads(out)["delta"] == (4 - 0.25) / (2 * 0.25)
        code, out, _ = run(capsys, ["eval", "--family", "local_only", *config_flags,
                                    "--mu", "0.5"])
        assert json.loads(out)["delta"] == 3.5
        code, out, _ = run(capsys, ["eval", "--family", "local_only", "--mu", "0.5",
                                    *config_flags])
        assert json.loads(out)["delta"] == 3.5


def test_config_keys_name_registered_flags():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {(option, action.dest)
             for sub in subparsers.choices.values()
             for action in sub._actions
             for option in action.option_strings}
    for key in cli._CONFIG_KEYS:
        # a registered flag, with one dest in every subcommand that takes it
        dests = {dest for option, dest in flags if option == f"--{key}"}
        assert len(dests) == 1, key


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SystemExit) as err:
        main(["eval", "--family", "mec_only", "--config", str(cfg)])
    assert err.value.code == 2


@pytest.mark.parametrize("command, config", [
    (["rvi"], {"mu": [1]}),
    (["rvi"], {"mu": None}),
    (["simulate", "--family", "local_only"], {"horizon": 20000.7}),
    (["eval", "--family", "local_only"], {"mu": True}),
    (["frontier"], {"format": "xml"}),
])
def test_config_values_are_checked_like_their_flags(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        main([*command, "--config", str(cfg)])
    assert err.value.code == 2
    assert repr(next(iter(config))) in capsys.readouterr().err


def test_config_strings_and_numbers_read_as_on_the_command_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": "0.25", "lambda": 2, "amax": 20}))
    flags = ["--mu", "0.25", "--lambda", "2", "--amax", "20"]
    assert run(capsys, ["rvi", "--config", str(cfg)]) == run(capsys, ["rvi", *flags])


def test_subnormal_rate_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--family", "local_only", "--mu", "5e-324"])
    assert err.value.code == 2


def test_config_must_be_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([1, 2]))
    with pytest.raises(SystemExit) as err:
        main(["eval", "--family", "mec_only", "--config", str(cfg)])
    assert err.value.code == 2

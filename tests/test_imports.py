import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import aoi_offload

SRC = Path(aoi_offload.__file__).resolve().parent.parent

SCRIPT = f"""
import contextlib, io, sys
sys.path.insert(0, {str(SRC)!r})
from aoi_offload import (ModelParams, SimConfig, age_threshold_policy, brute_force_best_threshold,
                         build_chain, evaluate_exact, rvi_solve, service_threshold_policy,
                         simulate, stationary)
from aoi_offload import cli

params = ModelParams(mu=0.3, lam=2.0, a_max=30)
evaluate_exact(age_threshold_policy(4, params.a_max), params)
rvi_solve(params)
simulate(service_threshold_policy(2), params, SimConfig(horizon=40_000, seed=3))
brute_force_best_threshold(params, 6)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["rvi"]) == 0
print("scipy.sparse" in sys.modules)
stationary(build_chain(age_threshold_policy(4, params.a_max), params))
print("scipy.sparse" in sys.modules)
"""


def test_scipy_loads_only_for_the_sparse_chain():
    # importing the package, evaluating, solving, simulating and the CLI's
    # default solve are numpy-only; the (a, z) chain's own solve loads scipy
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("module", ["aoi_offload", "aoi_offload.core", "aoi_offload.heuristics",
                                    "aoi_offload.chain", "aoi_offload.mdp", "aoi_offload.sim",
                                    "aoi_offload.cli"])
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

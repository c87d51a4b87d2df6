import ast
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
                         evaluate_exact, rvi_solve, service_threshold_policy, simulate)
from aoi_offload import cli
from aoi_offload.chain import build_chain, stationary

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


BLOCKED_SCRIPT = f"""
import contextlib, importlib.abc, io, os, sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
sys.path.insert(0, {str(SRC)!r})
import aoi_offload
from aoi_offload import cli

commands = [["eval", "--family", "mec_only"],
            ["frontier", "--out", os.path.join(sys.argv[1], "frontier.csv")],
            ["verify"], ["simulate", "--family", "local_only"], ["rvi"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in commands]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_and_commands_run_without_scipy(tmp_path):
    # numpy is the one runtime dependency: with scipy unimportable, the
    # package imports and all five commands run at their defaults
    proc = subprocess.run([sys.executable, "-c", BLOCKED_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0] []"


@pytest.mark.parametrize("module", ["aoi_offload", "aoi_offload.core", "aoi_offload.heuristics",
                                    "aoi_offload.chain", "aoi_offload.mdp", "aoi_offload.sim",
                                    "aoi_offload.cli"])
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _unused_imports(path):
    """Names ``path`` imports but neither reads nor exports, except on lines
    marked ``# noqa: F401``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if "# noqa: F401" not in lines[node.lineno - 1]:
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = importlib.import_module(f"aoi_offload.{path.stem}").__all__
    return sorted(imported - used - set(exported))


@pytest.mark.parametrize("path", sorted(p for p in (SRC / "aoi_offload").glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_every_import_is_used(path):
    # pyflakes' F401 without pyflakes: an import that a removed parameter or
    # function leaves behind fails here
    assert _unused_imports(path) == []



def _compares_int_with_itself(node: ast.Compare) -> bool:
    """Whether ``node`` holds ``int(e) == e`` or ``int(e) != e``, either way round."""
    sides = [node.left, *node.comparators]
    return any(isinstance(op, (ast.Eq, ast.NotEq)) and any(
        isinstance(a, ast.Call) and isinstance(a.func, ast.Name) and a.func.id == "int"
        and len(a.args) == 1 and ast.dump(a.args[0]) == ast.dump(b)
        for a, b in ((left, right), (right, left)))
        for op, left, right in zip(node.ops, sides, sides[1:]))


def test_whole_number_rule_is_stated_once():
    # "is x a whole number" is core.validate_whole's alone: every other
    # count, size, seed and threshold check calls it
    found = []
    for path in sorted((SRC / "aoi_offload").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.Lambda))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and _compares_int_with_itself(node):
                owner = next((getattr(f, "name", "<lambda>") for f in funcs
                              if f.lineno <= node.lineno <= f.end_lineno), None)
                found.append((path.stem, owner))
    assert found == [("core", "validate_whole")]

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grane

MODULES = ["augmented", "experiment", "games", "network", "solvers"]

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# names the package no longer defines, as (owner, attribute)
REMOVED = [
    ("augmented", "consensual_part"),
    ("augmented", "restricted_monotonicity"),
    ("augmented", "RestrictedConstants"),
    ("games", "project_box"),
    ("solvers", "acceleration_weights"),
    ("games.BoxSet", "bounded"),
    ("games.BoxSet", "contains"),
    ("network.Graph", "to_json"),
    ("network.Graph", "from_json"),
    ("network.MixingMatrix", "to_json"),
    ("network", "N_JAGGED"),
    ("network", "_NULL_TOL"),
]


@pytest.mark.parametrize("module", ["grane"] + [f"grane.{m}" for m in MODULES])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_removed_names_stay_removed():
    for owner, name in REMOVED:
        obj = grane
        for part in owner.split("."):
            obj = getattr(obj, part)
        assert not hasattr(obj, name), f"{owner}.{name}"
        assert name not in grane.__all__ and not hasattr(grane, name), name
    # graphs compare by identity again
    assert grane.Graph.__eq__ is object.__eq__


def test_modules_import_only_numpy_and_the_standard_library():
    # pyproject.toml declares numpy alone: any other import, even of a package
    # installed locally, would fail on a clean install
    allowed = set(sys.stdlib_module_names) | {"numpy", "grane"}
    package = Path(grane.__file__).parent
    stray = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert not stray


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # an empty working directory: demos write their outputs (benchmark20_out/,
    # trace CSVs) into it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr

"""The public surface: module exports and the README's library example."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import setkern

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "setkern").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"setkern.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


REPUBLISHED = ("errors", "factorization", "field", "kernels", "markov", "measure")


def test_the_package_republishes_exactly_the_exported_names_of_six_modules():
    # each module's __all__ is the one list of its public names: __init__.py star-imports it and names none itself
    tree = ast.parse((ROOT / "src" / "setkern" / "__init__.py").read_text())
    imports = [(node.module, [a.name for a in node.names]) for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports == [(module, ["*"]) for module in REPUBLISHED]
    exported = {name for module in REPUBLISHED for name in importlib.import_module(f"setkern.{module}").__all__}
    public = {name for name, value in vars(setkern).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - exported) == [] and sorted(exported - public) == []
    assert isinstance(setkern.__version__, str)


def test_the_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    blocks = re.findall(r"^```python\n(.*?)^```", tour, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_importing_the_package_leaves_numpy_random_yaml_and_click_unimported():
    # every CLI call and every library user pays for what import setkern imports
    code = "import sys, setkern; print(sorted(m for m in ('numpy.random', 'yaml', 'click') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"

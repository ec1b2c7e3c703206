"""Importing a package module loads only the package modules it imports.

``gpislands/__init__.py`` imports nothing, so each module below is loaded in
a fresh interpreter and the package modules and numpy it leaves in
``sys.modules`` are its dependency graph.  Only the harness, and the CLI on
top of it, need numpy.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpislands

PACKAGE = Path(gpislands.__file__).resolve().parent
EVERYTHING = {"trees", "interpreter", "evolution", "feed", "localisation", "islands",
              "harness", "cli"}
LOADS = {
    "trees": {"trees"},
    "interpreter": {"interpreter", "trees"},
    "evolution": {"evolution", "trees"},
    "feed": {"feed", "interpreter", "trees"},
    "localisation": {"localisation", "interpreter", "trees"},
    "islands": {"islands", "evolution", "trees"},
    "harness": EVERYTHING - {"cli"},
    "cli": EVERYTHING,
}
NUMPY_USERS = {"harness", "cli"}


def _loaded(module):
    """The package modules, and whether numpy, a fresh import of ``module`` loads."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = (f"import json, sys; import gpislands.{module}; "
            "print(json.dumps([sorted(sys.modules), 'numpy' in sys.modules]))")
    result = subprocess.run([sys.executable, "-B", "-c", code],
                            env=dict(os.environ, PYTHONPATH=path),
                            check=True, capture_output=True, text=True, timeout=60)
    names, numpy = json.loads(result.stdout)
    return {n.split(".", 1)[1] for n in names if n.startswith("gpislands.")}, numpy


def test_every_module_is_listed():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"} == set(LOADS)


@pytest.mark.parametrize("module", sorted(LOADS))
def test_a_module_loads_only_what_it_imports(module):
    assert _loaded(module) == (LOADS[module], module in NUMPY_USERS)

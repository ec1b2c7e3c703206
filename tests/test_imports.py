"""Importing a package module loads only the package modules it imports, and
a run loads only what it runs.

``gpislands/__init__.py`` imports nothing, so each module below is loaded in
a fresh interpreter and the package modules and numpy it leaves in
``sys.modules`` are its dependency graph.  Only the harness, and the CLI on
top of it, need numpy.  A run loads its task, the UDP transport, ``json``
and ``logging`` on the paths that use them: each run below goes through
``cli.main`` in a fresh interpreter and is checked for what it loaded.

Run as a script, this file prints what a default feed run and a default
localisation run load, with the ``-X importtime`` cumulative microseconds of
each top-level import the run makes and of each import a package module
makes::

    PYTHONPATH=src python tests/test_imports.py
"""
import os
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import gpislands

PACKAGE = Path(gpislands.__file__).resolve().parent
DATA = Path(__file__).resolve().parent / "data"
EVERYTHING = {"trees", "interpreter", "evolution", "feed", "localisation", "islands",
              "udp", "harness", "cli"}
LOADS = {
    "trees": {"trees"},
    "interpreter": {"interpreter", "trees"},
    "evolution": {"evolution", "trees"},
    "feed": {"feed", "interpreter", "trees"},
    "localisation": {"localisation", "interpreter", "trees"},
    "islands": {"islands", "evolution", "trees"},
    "udp": {"udp", "islands", "evolution", "trees"},
    "harness": {"harness", "islands", "evolution", "trees"},
    "cli": {"cli", "harness", "islands", "evolution", "trees"},
}
NUMPY_USERS = {"harness", "cli"}

#: The modules a default run of either task must not load.
UNUSED = {"gpislands.udp", "socket", "select", "json", "logging"}

#: Separates what the program printed from the module lists that follow it.
MARK = "--- modules ---"

# Written to stderr before the run, so that ``-X importtime`` lines after it
# are the run's own imports.  Importing ``sys`` is free: it is always loaded.
RUN = f"""import sys
before = sorted(sys.modules)
print({MARK!r}, file=sys.stderr, flush=True)
from gpislands.cli import main
status = main(sys.argv[1:])
print({MARK!r}, " ".join(before), " ".join(sorted(sys.modules)), sep="\\n")
sys.exit(status)
"""


def _env():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _loaded(module):
    """The package modules, and whether numpy, a fresh import of ``module`` loads."""
    code = f"import sys; import gpislands.{module}; print(*sorted(sys.modules))"
    result = subprocess.run([sys.executable, "-B", "-c", code], env=_env(),
                            check=True, capture_output=True, text=True, timeout=60)
    names = result.stdout.split()
    return {n.split(".", 1)[1] for n in names if n.startswith("gpislands.")}, "numpy" in names


def _run(argv, *flags):
    """What ``cli.main(argv)`` in a fresh interpreter loaded: the modules it
    added to ``sys.modules``, every module loaded once it returned, and its
    standard error."""
    result = subprocess.run([sys.executable, "-B", *flags, "-c", RUN, *argv], env=_env(),
                            check=True, capture_output=True, text=True, timeout=120)
    before, after = result.stdout.split(MARK + "\n", 1)[1].splitlines()
    return sorted(set(after.split()) - set(before.split())), set(after.split()), result.stderr


def _small_run(app, out, *extra):
    """A run of ``app`` at the defaults but for its size, writing to ``out``."""
    return ["--app", app, "--iterations", "1", "--generations", "2", "--out", str(out),
            *extra]


def test_every_module_is_listed():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"} == set(LOADS)


@pytest.mark.parametrize("module", sorted(LOADS))
def test_a_module_loads_only_what_it_imports(module):
    assert _loaded(module) == (LOADS[module], module in NUMPY_USERS)


@pytest.mark.parametrize("app, unused", [
    ("feed", UNUSED | {"gpislands.localisation"}),
    ("localisation", UNUSED | {"gpislands.feed"}),
])
def test_a_default_run_loads_only_its_task(tmp_path, app, unused):
    _, loaded, _ = _run(_small_run(app, tmp_path / "out.csv"))
    assert f"gpislands.{app}" in loaded
    assert loaded & unused == set()


def test_a_udp_run_loads_the_udp_transport(tmp_path):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("", 0))
        port = probe.getsockname()[1]
    _, loaded, _ = _run(_small_run("feed", tmp_path / "out.csv", "--islands", "1",
                                   "--transport", "udp", "--udp-base-port", str(port)))
    assert {"gpislands.udp", "socket"} <= loaded
    assert "gpislands.localisation" not in loaded


def test_a_run_that_reads_a_config_file_loads_json(tmp_path):
    _, loaded, _ = _run(_small_run("feed", tmp_path / "out.csv",
                                   "--app-config", str(DATA / "feed_config.json")))
    assert "json" in loaded
    assert loaded & {"gpislands.localisation", "logging", "socket"} == set()


def _import_times(stderr):
    """``(cumulative us, depth, module)`` of each top-level import after the
    mark and of each import a package module makes (numpy is one of the
    harness's), children before their parent as ``-X importtime`` lists them."""
    lines = []
    for line in stderr.split(MARK + "\n", 1)[1].splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line.split("|")
            lines.append((int(cumulative), (len(name) - len(name.lstrip(" ")) + 1) // 2,
                          name.strip()))
    shown, parents = [], {}
    for cumulative, depth, name in reversed(lines):  # a parent before its children
        parents[depth] = name
        if depth == 1 or parents[depth - 1].startswith("gpislands"):
            shown.append((cumulative, depth, name))
    return shown[::-1]


def report():
    """Print what each default run loads and what its imports cost."""
    with tempfile.TemporaryDirectory() as folder:
        for app in ("feed", "localisation"):
            added, _, stderr = _run(_small_run(app, Path(folder) / f"{app}.csv"),
                                    "-X", "importtime")
            print(f"a default {app} run loads {len(added)} modules:")
            print("  " + " ".join(added))
            print("  imports of the run and of the package, cumulative microseconds:")
            for cumulative, depth, name in _import_times(stderr):
                print(f"  {cumulative:>9}  {'  ' * depth}{name}")


if __name__ == "__main__":
    report()

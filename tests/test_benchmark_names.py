"""The names the traced benchmark wraps must exist in the package.

``perfbench/spans.py`` replaces functions and methods of the package by name
when a cell runs with ``--trace 1``.  This test reads its table without
installing anything (and without writing its bytecode), so a rename fails
here and not only in a traced run.
"""
import importlib
import importlib.util
import pathlib
import sys

from gpislands import feed, islands, localisation, trees

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_module_wrap_resolves():
    wraps = load_spans().MODULE_WRAPS
    assert wraps
    missing = [(module, attr) for module, attr, _ in wraps
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_the_wrapped_methods_exist():
    assert isinstance(vars(trees.Individual)["from_tree"], classmethod)
    for cls, name in ((localisation.World, "__init__"),
                      (feed.FeedEvaluator, "__call__"),
                      (localisation.LocalisationEvaluator, "__call__"),
                      (islands.SimulatedBroadcastBus, "__init__")):
        assert callable(vars(cls).get(name)), f"{cls.__name__}.{name}"

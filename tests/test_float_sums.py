"""No ``sum`` over floats in the package, nor in the tests' oracles.

From Python 3.12 on, ``sum`` adds floats with compensated summation, so a
float ``sum`` that reaches a row or a fitness gives other bits on 3.12+ than
on 3.10 and 3.11, and the goldens would hold on some interpreters only; an
oracle that summed so would hold the package to other bits than its own.
Floats are added left to right instead (``functools.reduce(operator.add,
...)``).  ``sum`` stays only where every term is an integer.
"""
import ast
import pathlib

import gpislands

PACKAGE = pathlib.Path(gpislands.__file__).resolve().parent
ORACLES = pathlib.Path(__file__).resolve().parent / "reference.py"

#: The ``sum`` calls allowed, each over integers only: the module, the
#: function (``Class.method`` for a method) and the keyword argument the sum
#: is passed as, if any.
INTEGER_SUMS = {
    ("evolution.py", "EvolutionStrategy.total", None),  # step counts
}
#: The same for ``tests/reference.py``.
ORACLE_INTEGER_SUMS = {
    ("reference.py", "recount", None),  # subtree sizes
    ("reference.py", "oracle_stats", None),  # member sizes and depths
}


def sum_calls(module):
    """``(function, keyword)`` of every ``sum(...)`` call in a parsed module."""
    found = []

    def visit(node, where, keyword):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        elif isinstance(node, ast.keyword):
            keyword = node.arg
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "sum"):
            found.append((where, keyword))
        for child in ast.iter_child_nodes(node):
            visit(child, where, keyword)

    visit(module, None, None)
    return found


def test_the_scan_finds_a_sum_where_it_sits():
    source = ("def f(xs):\n    return sum(xs)\n"
              "class C:\n    def g(self, xs):\n        return S(m=1, n=sum(xs))\n")
    assert sum_calls(ast.parse(source)) == [("f", None), ("C.g", "n")]


def assert_only_integers_summed(paths, allowed):
    calls = [(path.name, *call) for path in paths
             for call in sum_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert calls  # the scan sees the integer sums it allows
    assert [call for call in calls if call not in allowed] == []


def test_the_package_sums_only_integers():
    assert_only_integers_summed(sorted(PACKAGE.glob("*.py")), INTEGER_SUMS)


def test_the_oracles_sum_only_integers():
    assert_only_integers_summed([ORACLES], ORACLE_INTEGER_SUMS)

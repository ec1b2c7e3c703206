"""No module imports a name it never uses.

A name imported and never read is dead code that still loads its module and
reads as a dependency.  Deleting the code that used a name leaves its import
behind unless something checks, so this scan reads every module of the
package and of the tests and lists each imported name that no expression of
the module reads.
"""
import ast
import pathlib

from test_benchmark_names import load_spans

import gpislands

PACKAGE = pathlib.Path(gpislands.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent

#: The imports allowed to go unread: the directory, the module and the name.
#: Each is a name the traced benchmark wraps (``MODULE_WRAPS`` in
#: ``perfbench/spans.py``), which must resolve in its module.
UNREAD = {
    ("gpislands", "feed.py", "execute"),
    ("gpislands", "localisation.py", "execute"),
    ("gpislands", "islands.py", "evaluate_new_members"),
}


def unread_imports(module):
    """The names a parsed module imports and never reads, sorted."""
    imported = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_scan_finds_an_unread_import_where_it_sits():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom math import pi, tau\n"
              "def f(x: tau) -> float:\n    return os.path.join(x) or pi\n")
    assert unread_imports(ast.parse(source)) == ["j"]


def test_every_imported_name_is_read():
    found = {(directory.name, path.name, name)
             for directory in (PACKAGE, TESTS)
             for path in sorted(directory.glob("*.py"))
             for name in unread_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == UNREAD


def test_every_allowed_unread_import_is_a_wrap_still_unread():
    """Each exception names a module attribute the traced benchmark wraps,
    and the module still reads no such name: once the wrap goes or code
    starts reading the name, its exception fails here and is dropped."""
    wrapped = {(module, attr) for module, attr, _ in load_spans().MODULE_WRAPS}
    for directory, filename, name in sorted(UNREAD):
        assert (f"{directory}.{filename.removesuffix('.py')}", name) in wrapped
        path = {"gpislands": PACKAGE, "tests": TESTS}[directory] / filename
        assert name in unread_imports(ast.parse(path.read_text(encoding="utf-8")))

"""No module imports a name it never uses.

A name imported and never read is dead code that still loads its module and
reads as a dependency.  Deleting the code that used a name leaves its import
behind unless something checks, so this scan reads every module of the
package and of the tests and lists each imported name that no expression of
the module reads.
"""
import ast
import pathlib

import gpislands

PACKAGE = pathlib.Path(gpislands.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent

#: The imports allowed to go unread: the directory, the module and the name.
UNREAD = {
    # the traced benchmark (perfbench/spans.py) wraps
    # ``gpislands.localisation.execute``, so the name must resolve there
    ("gpislands", "localisation.py", "execute"),
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

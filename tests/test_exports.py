"""The package exports only what its own verification paths use.

Every name that `superharm/__init__.py` re-exports must be read somewhere
in the package's other modules, outside the function or class that
defines it.  The scan walks the syntax trees, so a name that only appears
in a comment, a docstring or an import line does not count as a use.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "superharm"


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


class _Reads(ast.NodeVisitor):
    """Names read anywhere except inside their own def or class body."""

    def __init__(self):
        self.names = set()
        self._defining = []

    def _visit_definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_definition

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self._defining:
            self.names.add(node.id)


def read_names():
    reads = _Reads()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            reads.visit(ast.parse(path.read_text()))
    return reads.names


def test_every_export_is_used_inside_the_package():
    exports = exported_names()
    assert exports
    used = read_names()
    assert [name for name in exports if name not in used] == []


"""Every top-level function and class of a hoimix module is referenced by
the package itself, outside its own definition and outside __init__.py.

A definition that only tests (or only the exports) read belongs in tests/.
A reference is a name read anywhere in a module (quoted annotations
included), an attribute of that name, or a name bound by an import; the
`# noqa: F401` imports that bind a name only for the perfbench tracer count
as references too.
"""

import ast
import pathlib

from test_unused_imports import _annotation_names

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hoimix"


def _names(statement: ast.stmt) -> set[str]:
    """The names a statement reads, imports or quotes in an annotation."""
    names = _annotation_names(statement)
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """`module.name` of every top-level function or class of the sources
    (module name to source text) that no other top-level statement of any of
    them references."""
    statements = [
        (module, statement, _names(statement))
        for module, source in sources.items()
        for statement in ast.parse(source).body
    ]
    return [
        f"{module}.{statement.name}"
        for module, statement, _ in statements
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(statement.name in names for _, other, names in statements if other is not statement)
    ]


def test_the_check_finds_a_definition_only_its_own_body_reads():
    sources = {
        "a": (
            "from .b import imported  # noqa: F401\n"
            "def used():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Quoted:\n    def make(self) -> 'Quoted':\n        return self\n"
            "def annotated(x: 'Quoted') -> None:\n    return used()\n"
        ),
        "b": "def imported():\n    pass\ndef by_attribute():\n    pass\ndef f(m):\n    return m.by_attribute\n",
    }
    assert unreferenced_definitions(sources) == ["a.recursive", "a.annotated", "b.f"]


def test_src_has_no_test_only_definitions():
    sources = {
        path.stem: path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
    }
    assert unreferenced_definitions(sources) == []

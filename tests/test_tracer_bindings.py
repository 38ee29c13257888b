"""Every `# noqa: F401` import in src/hoimix binds a name that the perfbench
tracer wraps at that module.

Such an import exists only so that the tracer has a binding to wrap, and
test_unused_imports and test_no_test_only_code both let it through. If the
tracer stopped wrapping the name, the import would be dead code that
neither guard reports; this test reads perfbench.trace's SPANNED and COUNTED
entries and reports it.
"""

import ast
import os
import pathlib
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.trace import COUNTED, SPANNED  # noqa: E402

SRC = pathlib.Path(ROOT) / "src" / "hoimix"


def tracer_only_bindings(source: str) -> list[str]:
    """The names bound by the module-level imports of the source whose
    lines carry `# noqa: F401`, in import order."""
    lines = source.splitlines()
    return [
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names
    ]


def unwrapped_bindings(sources: dict[str, str], wrapped: set[tuple[str, str]]) -> list[str]:
    """`module.name` of every tracer-only binding of the sources (module
    name to source text) that no (module, name) entry of wrapped covers."""
    return [
        f"{module}.{name}"
        for module, source in sources.items()
        for name in tracer_only_bindings(source)
        if (module, name) not in wrapped
    ]


def test_the_check_finds_a_binding_no_entry_wraps():
    sources = {
        "hoimix.a": (
            "from .b import wrapped  # noqa: F401\n"
            "from .b import (\n    stale,  # noqa: F401\n)\n"
            "from .c import used\n"
        ),
        "hoimix.d": "from .b import wrapped  # noqa: F401\n",
    }
    assert unwrapped_bindings(sources, {("hoimix.a", "wrapped")}) == ["hoimix.a.stale", "hoimix.d.wrapped"]


def test_every_tracer_only_import_is_wrapped_by_the_tracer():
    wrapped = {(module, attr) for module, attr, _ in SPANNED + COUNTED}
    sources = {
        "hoimix" if path.stem == "__init__" else f"hoimix.{path.stem}": path.read_text()
        for path in sorted(SRC.glob("*.py"))
    }
    assert any(tracer_only_bindings(source) for source in sources.values())
    assert unwrapped_bindings(sources, wrapped) == []

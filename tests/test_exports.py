import ast
import re
from pathlib import Path

import wild11


def _imported_names() -> set[str]:
    """Every name wild11/__init__.py binds by an import statement."""
    tree = ast.parse(Path(wild11.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_all_names_resolve():
    missing = [name for name in wild11.__all__ if not hasattr(wild11, name)]
    assert missing == []
    assert len(set(wild11.__all__)) == len(wild11.__all__)


def test_all_matches_imports():
    # a name left in __all__ after its definition is deleted, or an import
    # never exported, shows up here
    assert set(wild11.__all__) == _imported_names()


class _Calls(ast.NodeVisitor):
    """Names called as f(...) or module.f(...), except recursive calls in f's own def."""

    def __init__(self):
        self.names: set[str] = set()
        self._defs: list[str] = []

    def visit_FunctionDef(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in self._defs:
            self.names.add(name)
        self.generic_visit(node)


def test_every_exported_function_has_a_caller():
    # ROADMAP aim 2: no public wrappers that only tests use.  A def and the
    # __init__ re-export are not calls, so only a call elsewhere in the
    # package, or in one of README's python blocks, keeps a function exported.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sources = [path.read_text() for path in Path(wild11.__file__).parent.glob("*.py")]
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    calls = _Calls()
    for source in sources:
        calls.visit(ast.parse(source))
    functions = [
        name
        for name in wild11.__all__
        if callable(getattr(wild11, name)) and not isinstance(getattr(wild11, name), type)
    ]
    assert "cyclotomic_poly" in functions  # an lru_cache wrapper is no plain function, but counts
    assert [name for name in functions if name not in calls.names] == []

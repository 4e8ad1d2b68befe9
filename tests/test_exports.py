import ast
import importlib
import re
from pathlib import Path

import wild11


def test_all_names_resolve():
    missing = [name for name in wild11.__all__ if not hasattr(wild11, name)]
    assert missing == []
    assert len(set(wild11.__all__)) == len(wild11.__all__)


def test_all_matches_imports():
    # wild11 imports each exported name on first access, from the module its
    # table names: a name left in the table after its definition is deleted
    # or moved, or a table entry missing from __all__, shows up here.  A
    # function or class must be defined there, not imported into it.
    assert sorted(wild11._EXPORTS) == sorted(wild11.__all__)
    misplaced = []
    for name, module in wild11._EXPORTS.items():
        full = f"wild11.{module}"
        namespace = vars(importlib.import_module(full))
        if name not in namespace or getattr(namespace[name], "__module__", full) != full:
            misplaced.append(f"{full}.{name}")
    assert misplaced == []


class _Uses(ast.NodeVisitor):
    """Names called as f(...) or module.f(...), and names read as obj.name,
    except inside a def of the same name (recursion is no use)."""

    def __init__(self):
        self.calls: set[str] = set()
        self.attributes: set[str] = set()
        self._defs: list[str] = []

    def visit_FunctionDef(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in self._defs:
            self.calls.add(name)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr not in self._defs:
            self.attributes.add(node.attr)
        self.generic_visit(node)


def _package_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in sorted(Path(wild11.__file__).parent.glob("*.py"))]


def _uses() -> _Uses:
    """Uses in the package and in README's python blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    uses = _Uses()
    for tree in _package_trees() + [ast.parse(s) for s in re.findall(r"```python\n(.*?)```", readme, re.S)]:
        uses.visit(tree)
    return uses


def test_every_exported_function_has_a_caller():
    # ROADMAP aim 2: no public wrappers that only tests use.  A def and the
    # __init__ re-export are not calls, so only a call elsewhere in the
    # package, or in one of README's python blocks, keeps a function exported.
    functions = [
        name
        for name in wild11.__all__
        if callable(getattr(wild11, name)) and not isinstance(getattr(wild11, name), type)
    ]
    assert "cyclotomic_poly" in functions  # an lru_cache wrapper is no plain function, but counts
    calls = _uses().calls
    assert [name for name in functions if name not in calls] == []


def test_every_public_method_has_a_use():
    # ROADMAP aim 2 for methods and properties: each public one of a class
    # defined in the package is read as .name somewhere in the package
    # outside its own def, or in one of README's python blocks
    methods = [
        f"{node.name}.{item.name}"
        for tree in _package_trees()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]
    assert "KodairaFiber.degree" in methods and "FieldSpec.mul" in methods  # properties and methods
    attributes = _uses().attributes
    assert [name for name in methods if name.split(".")[1] not in attributes] == []

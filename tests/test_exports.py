import ast
import importlib
import re
from pathlib import Path

import wild11


def test_each_name_has_one_import_path():
    # a name is imported from the module that defines it: the package itself
    # defines only __version__ and re-exports nothing
    submodules = {path.stem for path in Path(wild11.__file__).parent.glob("*.py")} - {"__init__"}
    public = {
        name
        for module in submodules
        for name in vars(importlib.import_module(f"wild11.{module}"))
        if not name.startswith("_")
    }
    assert "make_model" in public and "surface" in submodules
    assert sorted(name for name in public if hasattr(wild11, name) and name not in submodules) == []
    assert [name for name in vars(wild11) if not name.startswith("_") and name not in submodules] == []


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


def test_every_public_function_has_a_caller():
    # ROADMAP aim 2: no public wrappers that only tests use.  A def is not a
    # call, so only a call elsewhere in the package, or in one of README's
    # python blocks, keeps a public module-level function.
    functions = [
        node.name
        for tree in _package_trees()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert "cyclotomic_poly" in functions and "valuation" in functions  # lru_cache-wrapped and plain
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
    assert "FiberPlace.location_str" in methods and "FieldSpec.mul" in methods  # properties and methods
    attributes = _uses().attributes
    assert [name for name in methods if name.split(".")[1] not in attributes] == []

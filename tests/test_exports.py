import ast
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

"""No module imports a name it never reads, and the package re-exports only
names its modules list in ``__all__``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__.py imports names only to re-export them
MODULES = sorted(path for folder in ("src/splitgrow", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py") if path.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads; a name listed in
    ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read.update(listed_names(tree))
    return [name for name in imported if name not in read]


def listed_names(tree: ast.Module) -> list[str]:
    """The names a module's ``__all__`` lists (none without one)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def unlisted_reexports(init_source: str, module_source) -> list[str]:
    """The ``module.name`` of each name ``init_source`` imports from a
    sibling module whose ``__all__`` omits it; ``module_source(module)``
    gives the sibling's source."""
    unlisted = []
    for node in ast.walk(ast.parse(init_source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = listed_names(ast.parse(module_source(node.module)))
            unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    return unlisted


def test_every_import_is_read():
    unread = {str(path.relative_to(ROOT)): names for path in MODULES
              if (names := unread_imports(path.read_text()))}
    assert unread == {}


def test_scan_finds_an_unread_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n__all__ = ['dataclass']\n"
              "x = np.zeros(1)\n")
    assert unread_imports(source) == ["os", "field"]


def test_every_reexport_is_listed():
    package = ROOT / "src/splitgrow"
    assert unlisted_reexports((package / "__init__.py").read_text(),
                              lambda module: (package / f"{module}.py").read_text()) == []


def test_scan_finds_an_unlisted_reexport():
    sources = {"weights": "__all__ = ['make_uniform']\n", "errors": "class E(Exception): ...\n"}
    init = "from .weights import make_uniform, helper\nfrom .errors import E\n__version__ = '0'\n"
    assert unlisted_reexports(init, sources.__getitem__) == ["weights.helper", "errors.E"]

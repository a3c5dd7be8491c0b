"""No module imports a name it never reads."""

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
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_every_import_is_read():
    unread = {str(path.relative_to(ROOT)): names for path in MODULES
              if (names := unread_imports(path.read_text()))}
    assert unread == {}


def test_scan_finds_an_unread_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n__all__ = ['dataclass']\n"
              "x = np.zeros(1)\n")
    assert unread_imports(source) == ["os", "field"]

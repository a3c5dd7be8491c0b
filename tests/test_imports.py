"""No module imports a name it never reads, the package re-exports only
names its modules list in ``__all__``, and every private function, class
and method of the package is read somewhere in the package."""

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


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """The private functions, classes and methods defined in ``sources``, a
    mapping from module name to source, that no source reads: a method by an
    attribute, anything else by a name or an attribute.  A name with one
    leading underscore is private, and so is every method of a private class
    that no class in ``sources`` extends (a base class's methods are its
    subclasses' interface)."""
    nodes = [(module, node) for module, source in sources.items()
             for node in ast.walk(ast.parse(source))]
    classes = [node for _, node in nodes if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    methods = {id(f) for node in classes for f in node.body}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, names, attrs = [], set(), set()
    for module, node in nodes:
        if isinstance(node, defs) and is_private(node.name):
            defined.append((f"{module}.{node.name}", id(node) in methods))
            if isinstance(node, ast.ClassDef) and node.name not in bases:
                defined += [(f"{module}.{node.name}.{f.name}", True) for f in node.body
                            if isinstance(f, defs) and not f.name.startswith("_")]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return [name for name, method in defined
            if name.rpartition(".")[2] not in (attrs if method else names | attrs)]


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


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


def test_every_private_definition_is_read():
    # a helper that a refactor leaves without a caller is dead code
    package = ROOT / "src/splitgrow"
    sources = {path.stem: path.read_text() for path in sorted(package.rglob("*.py"))}
    assert unread_private_definitions(sources) == []


def test_scan_finds_an_unread_private_definition():
    # the orphans: a private function, a private method, and a public method
    # of a private class that nothing extends, read only as a variable's
    # name; a base class's methods are exempt
    sources = {"a": ("def _called(): ...\ndef _orphan(): ...\nclass _Kept:\n"
                     "    def __init__(self): ...\n    def _method(self): ...\n"
                     "    def _unused(self): ...\n    def kids(self): ...\n"
                     "class _Base:\n    def api(self): ...\nclass Public(_Base): ...\n"),
               "b": ("from a import _called, _orphan\n_called()\nx = _Kept()._method\n"
                     "kids = 1\nprint(kids)\n")}
    assert unread_private_definitions(sources) == ["a._orphan", "a._Kept.kids", "a._unused"]

"""Package hygiene: exports resolve, no module keeps a dead import, and no
public top-level name is left without a caller.

The checks read the package itself, so a deletion that leaves a stale
``__all__`` entry, an import or an orphaned helper behind fails here rather
than going unnoticed.
"""

import ast
import importlib
from pathlib import Path

import cleanpair

PACKAGE_DIR = Path(cleanpair.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_exports_resolve_and_no_module_imports_an_unused_name():
    missing = []
    for module in ("cleanpair", "cleanpair.exactmath", "cleanpair.search"):
        mod = importlib.import_module(module)
        missing += [f"{module}.{name}" for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    modules = sorted(p for p in PACKAGE_DIR.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {}
    for path in modules:
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[str(path.relative_to(PACKAGE_DIR))] = names
    assert unused == {}


def _referenced(nodes) -> set[str]:
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    return names


def test_every_public_top_level_name_has_a_caller():
    # a re-export in __init__.py is not a caller; a module's own __all__ and
    # the acceptance checks are
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        if path.name != "__init__.py"
    }
    acceptance = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    dead = []
    for path, tree in trees.items():
        elsewhere = [t for p, t in trees.items() if p != path] + [acceptance]
        used = _referenced(elsewhere)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in used:
                continue
            rest = [n for n in tree.body if n is not node]
            if node.name not in _referenced(rest):
                dead.append(f"{path.relative_to(PACKAGE_DIR)}: {node.name}")
    assert dead == []

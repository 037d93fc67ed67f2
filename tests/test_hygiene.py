"""Package hygiene: exports resolve and no module keeps a dead import.

Both checks read the package itself, so a deletion that leaves a stale
``__all__`` entry or an import behind fails here rather than going
unnoticed.
"""

import ast
import importlib
from pathlib import Path

import cleanpair

PACKAGE_DIR = Path(cleanpair.__file__).parent


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

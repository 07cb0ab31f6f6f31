"""The package surface: every name `evtrisk` exports is read somewhere
outside its own definition, in the package, the experiment scripts or the
acceptance suite.  A helper only unit tests call belongs in tests/oracles.py.

The files are parsed, not imported, so no test module is loaded."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evtrisk"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def names_read(path):
    """Names loaded in the file, except inside the top-level definition of
    the same name (a recursive call is not a caller)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for top in tree.body:
        own = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                found.add(node.id)
    return found


def test_every_export_has_a_caller():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    read = set().union(*(names_read(p) for p in sources))
    assert [name for name in exported_names() if name not in read] == []

"""The package surface: every name `evtrisk` exports, and every top-level
private function of its modules, is read somewhere outside its own
definition, in the package, the experiment scripts or the acceptance suite;
a private function may instead be a layer boundary the benchmark's tracer
patches (perfbench/spans.py TARGETS).  A helper only unit tests call
belongs in tests/oracles.py.

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


def private_functions():
    return sorted(
        (path.stem, node.name)
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    )


def traced_targets():
    """(module, attribute) pairs of the TARGETS literal in perfbench/spans.py."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id == "TARGETS":
            return {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def names_read_anywhere():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    return set().union(*(names_read(p) for p in sources))


def test_every_export_has_a_caller():
    read = names_read_anywhere()
    assert [name for name in exported_names() if name not in read] == []


def test_every_private_function_has_a_caller():
    read = names_read_anywhere()
    traced = traced_targets()
    unread = [
        f"{module}.{name}"
        for module, name in private_functions()
        if name not in read and (module, name) not in traced
    ]
    assert unread == []

"""The package surface: every name `evtrisk` exports, and every top-level
function of its modules, public or private, is read somewhere outside its
own definition, in the package, the experiment scripts or the acceptance
suite; a function may instead be a layer boundary the benchmark's tracer
patches (perfbench/spans.py TARGETS).  A helper only unit tests call
belongs in tests/oracles.py.  Every parameter with a default is passed by
some call there or in the benchmark; one no caller sets is a constant.
Every field default of a package dataclass is omitted by some construction
there, in the tests or in the benchmark; one that every construction
overrides is a required field.

The files are parsed, not imported, so no test module is loaded."""

import ast
from collections import defaultdict
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


def top_level_functions(private):
    return sorted(
        (path.stem, node.name)
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") == private
    )


def traced_targets():
    """(module, attribute) pairs of the TARGETS literal in perfbench/spans.py."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id == "TARGETS":
            return {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def caller_files():
    """Package modules, experiment scripts and the acceptance suite."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    return sources


def names_read_anywhere():
    return set().union(*(names_read(p) for p in caller_files()))


def default_parameters():
    """(module.function, function, parameter, position) for every parameter
    of a package function that has a default; position counts the arguments
    a caller writes (a method's self excluded) and is None for a
    keyword-only parameter."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            spec = node.args
            positional = spec.posonlyargs + spec.args
            if id(node) in methods:
                positional = positional[1:]
            first = len(positional) - len(spec.defaults)
            qualname = f"{path.stem}.{node.name}"
            found += [(qualname, node.name, arg.arg, i)
                      for i, arg in enumerate(positional[first:], first)]
            found += [(qualname, node.name, arg.arg, None)
                      for arg, default in zip(spec.kwonlyargs, spec.kw_defaults)
                      if default is not None]
    return found


def calls_by_name():
    """Per called name: the keywords passed and the most positional arguments
    written before any *-unpacking, over the caller files and perfbench/*.py."""
    keywords, positional = defaultdict(set), defaultdict(int)
    for path in caller_files() + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords[name].update(k.arg for k in node.keywords)
            written = next((i for i, arg in enumerate(node.args)
                            if isinstance(arg, ast.Starred)), len(node.args))
            positional[name] = max(positional[name], written)
    return keywords, positional


def test_every_export_has_a_caller():
    read = names_read_anywhere()
    assert [name for name in exported_names() if name not in read] == []


def uncalled_functions(private):
    read = names_read_anywhere()
    traced = traced_targets()
    return [
        f"{module}.{name}"
        for module, name in top_level_functions(private)
        if name not in read and (module, name) not in traced
    ]


def test_every_private_function_has_a_caller():
    assert uncalled_functions(private=True) == []


def test_every_public_function_has_a_caller():
    assert uncalled_functions(private=False) == []


def test_every_default_parameter_is_passed():
    keywords, positional = calls_by_name()
    unpassed = [
        f"{qualname}({param})"
        for qualname, name, param, index in default_parameters()
        if param not in keywords[name] and (index is None or positional[name] <= index)
    ]
    assert unpassed == []


def dataclass_defaults():
    """(class, field, position) for every field default of a package
    dataclass; a field(...) without default or default_factory has none."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or not any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                continue
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            for i, f in enumerate(fields):
                value = f.value
                if value is None or (
                    isinstance(value, ast.Call)
                    and getattr(value.func, "id", None) == "field"
                    and not {"default", "default_factory"} & {k.arg for k in value.keywords}
                ):
                    continue
                found.append((node.name, f.target.id, i))
    return found


def omitted_fields():
    """Per constructed name: the (field name or position) sets of each call,
    or None for a call that passes ** and so may omit any field."""
    calls = defaultdict(list)
    paths = caller_files() + sorted((ROOT / "tests").glob("*.py"))
    paths += sorted((ROOT / "perfbench").rglob("*.py"))
    for path in sorted(set(paths)):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if any(k.arg is None for k in node.keywords):
                calls[name].append(None)
                continue
            written = next((i for i, arg in enumerate(node.args)
                            if isinstance(arg, ast.Starred)), len(node.args))
            calls[name].append(({k.arg for k in node.keywords}, written))
    return calls


def test_every_dataclass_default_is_relied_on():
    """A default that every construction overrides is a value no caller
    needs; the field should be required."""
    calls = omitted_fields()
    unrelied = [
        f"{cls}.{name}"
        for cls, name, index in dataclass_defaults()
        if not any(call is None or (name not in call[0] and call[1] <= index)
                   for call in calls[cls])
    ]
    assert unrelied == []

"""Static layout rules of the package, checked on its syntax trees.

No module reaches into another module's private (`_`-prefixed) names, and
no module imports a name it never uses, unless the import's line says why
with `# noqa: F401`. `__init__.py` is exempt from the second rule: its
imports are the package's public names. Every private top-level name of a
module is read somewhere in the package or the benchmark, so a helper that
lost its last caller goes with it. Every name the benchmark's span table
wraps still exists.
"""
import ast
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "sheetplan")
BENCH = os.path.join(ROOT, "perfbench")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _tree(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        source = fh.read()
    return ast.parse(source), source.splitlines()


def _package_imports(tree):
    """(alias, bound name) of every import from within the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "sheetplan"
        ):
            for alias in node.names:
                yield alias, alias.asname or alias.name


@pytest.mark.parametrize("name", MODULES)
def test_no_private_imports(name):
    tree, _ = _tree(name)
    private = [alias.name for alias, _ in _package_imports(tree) if alias.name.startswith("_")]
    modules = {bound for _, bound in _package_imports(tree)}
    private += [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ]
    assert private == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__.py"])
def test_no_unused_imports(name):
    tree, lines = _tree(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(bound)
    assert unused == []


def _reads(path):
    """Every name the file at `path` reads: loaded names, attributes,
    imported names, and strings (the span table names what it wraps)."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_private_names_are_read():
    read = {name for folder, files in ((SRC, MODULES), (BENCH, os.listdir(BENCH)))
            for file in files if file.endswith(".py")
            for name in _reads(os.path.join(folder, file))}
    unread = []
    for module in MODULES:
        tree, _ = _tree(module)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node]
            for target in targets:
                name = getattr(target, "name", getattr(target, "id", ""))
                if name.startswith("_") and not name.startswith("__") and name not in read:
                    unread.append(f"{module}:{name}")
    assert unread == []


def test_benchmark_boundaries_resolve():
    """`perfbench/spans.py` wraps these names; a missing one breaks `--trace 1`."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in spans.BOUNDARIES
               if not callable(getattr(mod, attr, None))]
    assert missing == []

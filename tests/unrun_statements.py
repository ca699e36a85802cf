"""List the statements of `src/sheetplan` that a pytest run never executes.

Stdlib only, and not collected by pytest (its name has no `test_` prefix).
Run it from the repository root, with any pytest arguments (default: the
whole suite):

    PYTHONPATH=src python tests/unrun_statements.py -q -p no:cacheprovider

It line-traces the package's own frames with `sys.settrace` while pytest
runs in the same process, then prints one `module:line: source` per
statement none of whose own lines ran, and their count. A compound
statement's own lines are its header, up to its first nested statement;
docstrings, which compile to no code, are left out. The trace makes the
suite a few times slower.

It exits 1 when pytest fails or any unrun statement is not in EXEMPT, else
0: every statement is reached from a test, or deleted with a reason.
"""
import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "sheetplan")
# (module, source) of the statements no test can run: the command line
# entry point's call, which runs only under `python -m sheetplan.cli`, in a
# subprocess the trace does not follow
EXEMPT = {("cli.py", "sys.exit(main())")}


def statements(path):
    """(first line, last own line) of every statement of the file at `path`."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        nested = [child.lineno for child in ast.iter_child_nodes(node)
                  if isinstance(child, ast.stmt)]
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        yield first, (min(nested) - 1 if nested else node.end_lineno)


def main(args):
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(SRC):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    import pytest

    try:
        status = pytest.main(args or ["-q", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun, unexpected = [], 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for first, last in sorted(set(statements(path))):
            if not any((path, line) in ran for line in range(first, last + 1)):
                source = lines[first - 1].strip()
                unrun.append(f"{name}:{first}: {source}")
                unexpected += (name, source) not in EXEMPT
    print("\n".join(unrun))
    print(f"{len(unrun)} statements never ran, {unexpected} of them not exempt "
          f"(pytest exit status {int(status)})")
    return int(bool(unexpected) or status != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Static checks on the library sources (the repo has no linter)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ietlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names each import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside quoted annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cocycle.py", "finadd.py",
                                         "rauzy.py", "zippered.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


REPO = SRC.parents[1]


def defaulted_parameters(tree: ast.Module):
    """(callee name, qualified name, parameter, position) for each parameter
    with a default; the callee of `__init__` is its class, and the position
    counts after `self` (None for keyword-only parameters)."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                bound = 1 if cls and not static else 0
                callee = cls if cls and child.name == "__init__" else child.name
                qual = f"{cls}.{child.name}" if cls else child.name
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    found.append((callee, qual, arg.arg, i - bound))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((callee, qual, arg.arg, None))
                visit(child, None)

    visit(tree, None)
    return found


def calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in the library, the tests and the benchmark, keyed by the
    called name or attribute."""
    calls: dict[str, list[ast.Call]] = {}
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((REPO / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def sets_parameter(call: ast.Call, name: str, position) -> bool:
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_default_is_set_by_some_call():
    # a default that no call overrides is a knob nobody turns: it belongs
    # in the code as a constant.  Calls match by name only, so a method
    # shares its calls with every method of that name
    calls = calls_by_name()
    unset = [f"{path.stem}.{qual}({param})"
             for path in sorted(SRC.glob("*.py"))
             for callee, qual, param, position in defaulted_parameters(
                 ast.parse(path.read_text()))
             if not any(sets_parameter(call, param, position)
                        for call in calls.get(callee, ()))]
    assert not unset, f"parameters that no call sets: {unset}"

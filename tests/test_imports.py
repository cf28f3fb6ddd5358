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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # the package needs numpy alone: scipy is a test dependency, so no
    # import of it may appear at any depth, lazy ones in functions included
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [node.lineno for name in names
                  if name.split(".")[0] == "scipy"]
    assert not found, f"{path.name} imports scipy on lines {found}"


REPO = SRC.parents[1]


def defaulted_parameters(tree: ast.Module):
    """(callee name, qualified name, parameter, position, default) for each
    parameter with a default; the callee of `__init__` is its class, and
    the position counts after `self` (None for keyword-only parameters)."""
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
                for i, (arg, default) in enumerate(
                        zip(positional[first:], args.defaults), start=first):
                    found.append((callee, qual, arg.arg, i - bound, default))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((callee, qual, arg.arg, None, default))
                visit(child, None)

    visit(tree, None)
    return found


def calls_by_name(folders) -> dict[str, list[ast.Call]]:
    """Every call in the given folders of the repository, keyed by the
    called name or attribute."""
    calls: dict[str, list[ast.Call]] = {}
    for folder in folders:
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


def passed(call: ast.Call, name: str, position):
    """The expression a call passes for a parameter, or None when it keeps
    the default; a call that unpacks arguments passes the unknown call."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
        if kw.arg is None:
            return call
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return call
    if position is not None and len(call.args) > position:
        return call.args[position]
    return None


def is_module_constant(node) -> bool:
    """An attribute of math or numpy, such as math.inf or np.pi."""
    return isinstance(node, ast.Attribute) and \
        isinstance(node.value, ast.Name) and node.value.id in ("math", "np")


def is_turned(calls, name: str, position, default) -> bool:
    """Whether the calls give the parameter two values or more: two
    literals that differ, a literal and the default, or any expression
    that is not a literal.  A module constant counts as a literal."""
    values = set()
    for call in calls:
        node = passed(call, name, position)
        if node is None:
            values.add(ast.unparse(default))
        elif is_module_constant(node):
            values.add(ast.unparse(node))
        else:
            try:
                values.add(repr(ast.literal_eval(node)))
            except ValueError:
                return True
    return len(values) > 1


# Defaulted parameters that only tests turn, with the test that needs each:
# a seam through which a test reaches a case that no command input does.
SEAMS = {
    "finadd.build_phi_from_vector(ladder)":
        "tests/test_finadd.py::test_ladder_keeps_no_per_cocycle_state",
    "limitlab.limit_decay_report(source)":
        "tests/test_limitlab.py::test_limit_decay_report_rejects_bad_inputs",
    "limitlab.limit_decay_report(path)":
        "tests/test_limitlab.py::test_limit_decay_report_rejects_bad_inputs",
    "zippered.sample_delta(max_attempts)":
        "tests/test_zippered.py::test_sample_delta_overflow",
}


def test_every_default_is_set_by_some_call():
    # a default that library and benchmark calls never turn, because they
    # keep it or all pass one literal, is a knob nobody turns: it belongs
    # in the code as a constant.  Test calls do not count, except through
    # the SEAMS above, and the parameters of a WAITING definition wait with
    # it.  Calls match by name only, so a method shares its attribute
    # calls with every method of that name
    calls = calls_by_name(("src", "perfbench"))

    def calls_of(callee: str, qual: str) -> list[ast.Call]:
        method = "." in qual and not qual.endswith(".__init__")
        return [call for call in calls.get(callee, ())
                if not method or isinstance(call.func, ast.Attribute)]

    unturned = {f"{path.stem}.{qual}({param})": (callee, param, position)
                for path in sorted(SRC.glob("*.py"))
                for callee, qual, param, position, default
                in defaulted_parameters(ast.parse(path.read_text()))
                if qual.split(".")[0] not in WAITING and not is_turned(
                    calls_of(callee, qual), param, position, default)}
    assert not unturned.keys() - SEAMS.keys(), \
        f"parameters that no call turns: " \
        f"{sorted(unturned.keys() - SEAMS.keys())}"
    assert not SEAMS.keys() - unturned.keys(), \
        f"seams that a library call turns or that are gone: " \
        f"{sorted(SEAMS.keys() - unturned.keys())}"
    for seam, test in SEAMS.items():
        callee, param, position = unturned[seam]
        file, name = test.split("::")
        body = next(node for node in ast.parse((REPO / file).read_text()).body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        assert any(isinstance(node, ast.Call) and
                   getattr(node.func, "id", getattr(node.func, "attr", None))
                   == callee and passed(node, param, position) is not None
                   for node in ast.walk(body)), f"{test} does not set {seam}"


# Definitions that no command reaches yet, with the ROADMAP item that will
# call them.
WAITING = {
    "measure_integral": "item 3: each c_i(f) against the dual cocycle",
    "dual_from_vector": "item 3: the dual cocycle of a covector",
    "DualCocycle": "item 3: the dual cocycle",
    "LipschitzFunction": "item 4: weakly Lipschitz observables",
    "RectangleIndicator": "item 4: indicators of boxes in one rectangle",
    "_gauss_legendre": "item 4: the quadrature of LipschitzFunction",
    "AdmissibleRectangle": "item 4: the limit law on an admissible box",
    "is_admissible": "item 4: the limit law on an admissible box",
    "NonRecurrentError": "item 4: raised by is_admissible",
    "NotSimple": "item 1: the periodic path refuses a complex pair",
    "lp_distance": "item 13: the one-dimensional endpoint law",
}


def is_method(node) -> bool:
    """A function defined in a class body, other than a dunder method."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
        and not (node.name.startswith("__") and node.name.endswith("__"))


def top_level_definitions(tree: ast.Module):
    """(name, node, owner) for each function, class and assigned name of a
    module, and for each method of its classes, owned by the class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef):
            yield node.name, node, None
            for sub in node.body:
                if is_method(sub):
                    yield sub.name, sub, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node, None


def benchmark_wrapped() -> set[str]:
    """Library names that `perfbench/run.py` wraps: the attribute of each
    SPANNED and COUNTED entry, or the class of a wrapped method."""
    tree = ast.parse((REPO / "perfbench" / "run.py").read_text())
    return {entry.elts[2].value.split(".")[0]
            for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED")
                    for t in node.targets)
            for entry in node.value.elts}


def names_in(node) -> tuple[set[str], set[str]]:
    """Bare names and attributes read in a definition; a class's methods
    are definitions of their own, so its body counts without them (its
    dunder methods count with it)."""
    todo, names, attrs = [node], set(), set()
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
        todo.extend(child for child in ast.iter_child_nodes(sub)
                    if not (isinstance(sub, ast.ClassDef) and
                            is_method(child)))
    return names, attrs


def test_every_definition_is_reached_from_a_command():
    # a top-level definition is reached when the body of a reached one
    # names it bare; a method of a top-level class is reached when its
    # class is and a reached body reads it as an attribute.  The roots are
    # every definition in cli.py, the names the benchmark wraps, and
    # WAITING.  Matching by name can over-count reach.  It would miss a
    # function called through its module, but the package imports the
    # names it calls from its own modules bare
    definitions = []  # (name, owning class or None, module, node, size)
    for path in MODULES:
        text = path.read_text()
        lines = text.splitlines()
        for name, node, owner in top_level_definitions(ast.parse(text)):
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            size = sum(1 for line in lines[first - 1:node.end_lineno]
                       if line.strip())
            definitions.append((name, owner, path.stem, node, size))

    def reach(roots) -> set[int]:
        named, attrs, reached = set(roots), set(), set()
        while True:
            classes = {definitions[k][0] for k in reached
                       if definitions[k][1] is None}
            new = [k for k, (name, owner, _, _, _) in enumerate(definitions)
                   if k not in reached and
                   (name in named if owner is None else
                    name in attrs and owner in classes)]
            if not new:
                return reached
            reached.update(new)
            for k in new:
                bare, read = names_in(definitions[k][3])
                named |= bare
                attrs |= read

    def names(reached) -> set[str]:
        return {definitions[k][0] for k in reached}

    commands = {name for name, _, module, _, _ in definitions
                if module == "cli"}
    wrapped = benchmark_wrapped()
    assert not (wrapped | set(WAITING)) - names(range(len(definitions))), \
        "a root names no definition"
    live = names(reach(commands | wrapped))
    assert not live & set(WAITING), \
        f"commands reach these now; drop them from WAITING: " \
        f"{sorted(live & set(WAITING))}"
    reached = reach(commands | wrapped | set(WAITING))
    unreached = sorted((module if owner is None else f"{module}.{owner}",
                        name, size)
                       for k, (name, owner, module, _, size)
                       in enumerate(definitions) if k not in reached)
    total = sum(size for _, _, size in unreached)
    assert not unreached, (
        f"{total} non-blank lines of definitions that no command reaches: "
        + ", ".join(f"{m}.{n} ({s})" for m, n, s in unreached))

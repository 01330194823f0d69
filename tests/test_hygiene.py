"""Static hygiene of the package: no unused imports, no unreferenced code,
no private parameters on public functions, no scipy at import time, one RK4
step setting, one zero search, one phase-line residual."""

import ast
import inspect
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nulltorus"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(tree) -> set[str]:
    """Every name a module reads: bare names, attributes and imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _bound_imports(tree) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__":
            continue
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        unused += [f"{name}.py:{line} {imported}"
                   for imported, line in _bound_imports(tree).items()
                   if imported not in reads]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_every_top_level_definition_is_referenced():
    """A top-level class or function is read by the package or exported; a
    method of a package class (dunders aside) is read by the package or
    its tests."""
    exported = _used_names(MODULES["__init__"])
    referenced = set().union(*(_used_names(tree) for name, tree
                               in MODULES.items() if name != "__init__"))
    dead = [f"{name}.{node.name}"
            for name, tree in MODULES.items() for node in tree.body
            if (isinstance(node, ast.ClassDef)
                or isinstance(node, ast.FunctionDef)
                and not node.decorator_list)
            and node.name not in referenced | exported]
    tests = Path(__file__).resolve().parent
    read = referenced.union(exported, *(
        _used_names(ast.parse(path.read_text()))
        for path in sorted(tests.glob("*.py"))))
    dead += [f"{name}.{cls.name}.{node.name}"
             for name, tree in MODULES.items() for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef)
             and not node.name.startswith("__") and node.name not in read]
    assert not dead, "definitions nothing references: " + ", ".join(dead)


def test_every_tolerance_is_read():
    """A tolerance nothing reads would be reported in every artifact without
    acting on any of them."""
    cls = next(node for node in MODULES["tolerances"].body
               if isinstance(node, ast.ClassDef) and node.name == "Tolerances")
    fields = [node.target.id for node in cls.body
              if isinstance(node, ast.AnnAssign)]
    read = {node.attr for name, tree in MODULES.items()
            if name != "tolerances" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unread = [f for f in fields if f not in read]
    assert not unread, "tolerances nothing reads: " + ", ".join(unread)


def test_the_rk4_step_is_only_a_tolerance():
    """No public flow function takes a step of its own: each reads the
    tol.ode_step it is given, never the default set's."""
    from nulltorus import nullflow
    knobs = [name for name, fn in vars(nullflow).items()
             if inspect.isfunction(fn) and fn.__module__ == nullflow.__name__
             and not name.startswith("_")
             and "step" in inspect.signature(fn).parameters]
    assert not knobs, f"flow functions with a step parameter: {knobs}"
    pinned = [f"{path.name}:{k + 1}" for path in sorted(PACKAGE.glob("*.py"))
              for k, line in enumerate(path.read_text().splitlines())
              if "DEFAULT.ode_step" in line]
    assert not pinned, f"DEFAULT.ode_step read at {pinned}"


def test_one_zero_search():
    """``nullflow.phase_zeros`` is the one zero/run search: it is the only
    caller of ``circular_zeros``, and every consumer reads its record."""
    calls = [f"{name}.py:{node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "circular_zeros" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))]
    assert len(calls) == 1, f"circular_zeros called at {calls}"


def test_one_strided_view():
    """``geometry._PhaseLine.grid`` is the one stride trick (a view whose
    points share memory), and nothing gathers a phase line through an
    index table any more."""
    text = [f"{path.name}:{k + 1}" for path in sorted(PACKAGE.glob("*.py"))
            for k, line in enumerate(path.read_text().splitlines())
            if "as_strided" in line]
    [line_class] = [node for node in MODULES["geometry"].body
                    if getattr(node, "name", None) == "_PhaseLine"]
    inside = [node for node in ast.walk(line_class)
              if isinstance(node, ast.Attribute) and node.attr == "as_strided"]
    assert len(text) == 1 and len(inside) == 1, f"as_strided at {text}"
    gathers = [f"{name}.py:{node.lineno}" for name, tree in MODULES.items()
               for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and node.attr == "index"
               and "line" in getattr(node.value, "id",
                                     getattr(node.value, "attr", "")).lower()]
    assert not gathers, f"phase-line index gathers at {gathers}"


def test_no_public_function_takes_a_private_parameter():
    """A public function has no back door: every parameter it takes is part
    of its interface."""
    private = [f"{name}.{node.name}({arg.arg})"
               for name, tree in MODULES.items() for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")
               for arg in ast.walk(node.args) if isinstance(arg, ast.arg)
               and arg.arg.startswith("_")]
    assert not private, "private parameters of public functions: " + (
        ", ".join(private))


def _runs_at_import(tree):
    """Every node outside function bodies: what importing the module runs."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_scipy_import():
    """scipy is imported inside the one function that calls it (the
    rescaling solve's LSQR), so no other command pays for loading it."""
    found = []
    for name, tree in MODULES.items():
        for node in _runs_at_import(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.append(f"{name}.py:{node.lineno}")
    assert not found, "module-level scipy imports: " + ", ".join(sorted(found))


def test_every_command_takes_the_artifact_options():
    """Every subcommand goes through the one command runner, which adds
    --config/--output/--format/--tol and dispatches the artifact."""
    from nulltorus.cli import main
    artifact = {"config_path", "output", "fmt", "tol_overrides"}
    missing = [name for name, cmd in main.commands.items()
               if not artifact <= {param.name for param in cmd.params}]
    assert main.commands and not missing, (
        "commands without the artifact options: " + ", ".join(missing))


def test_every_flow_command_takes_the_flow_options():
    """The five flow commands share --metric/--family/--step through the
    runner's one prologue, with the same help."""
    from nulltorus.cli import main
    flow = ("flow", "rotation", "classify-line", "decompose", "holonomy")
    shared = {"metric", "family", "step"}
    for name in flow:
        params = {p.name: p for p in main.commands[name].params}
        assert shared <= set(params), name
        assert all(params[key].help for key in shared), name


def test_one_line_residual():
    """``spinorfield._line_residual`` is the one function that reads a
    field's factors, and residuals reach it from one call site: the
    phase-line residual has one implementation."""
    def reads(tree):
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "factors"]

    [line] = [node for node in MODULES["spinorfield"].body
              if getattr(node, "name", None) == "_line_residual"]
    everywhere = sum((reads(tree) for tree in MODULES.values()), [])
    assert reads(line) and len(everywhere) == len(reads(line)), [
        node.lineno for node in everywhere]
    calls = [f"{name}.py:{node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "_line_residual" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))]
    assert len(calls) == 1, f"_line_residual called at {calls}"

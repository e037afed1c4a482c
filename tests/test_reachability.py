"""Every function and class of `photonam` is reached from a CLI command.

The walk reads the source with `ast` and runs no code.  It starts from the
command-line roots of `photonam.cli` (the ``cmd_*`` handlers, `main` and
`build_parser`) and from the statements each module runs at import, and
follows the names each reached definition refers to, as a bare name or as
an attribute.  Names are matched alone, without their module or class, so
the walk may count a definition reached that is not; it never misses one
that is.  A class reaches its own bases, decorators, field defaults and
dunder methods; its other methods are reached by name, like any function.
"""

import ast
from pathlib import Path

import photonam

SRC = Path(photonam.__file__).parent

#: definitions no command reaches that stay in the package, each for a reason
ALLOWED = {
    "gauge_transform",          # the gauge capability, exercised by the gauge-invariance tests
    "covariant_derivative",     # the stacked derivative, held by a per-layer pin of the benchmark
}


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _names(nodes):
    """Every identifier the nodes refer to, as a bare name or as an attribute."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions():
    """``{name: [(module, referenced names)]}`` for every top-level function, class and method, and the import-time names."""
    defs, at_import = {}, set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not _is_def(node):
                at_import |= _names([node])
                continue
            if isinstance(node, ast.ClassDef):
                own = [s for s in node.body if not _is_def(s) or _is_dunder(s.name)]
                refs = _names(node.bases + node.decorator_list + own)
                for method in node.body:
                    if _is_def(method) and not _is_dunder(method.name):
                        defs.setdefault(method.name, []).append((f"{module}.{node.name}", _names([method])))
            else:
                refs = _names([node])
            defs.setdefault(node.name, []).append((module, refs))
    return defs, at_import


def _reached(defs, at_import):
    """The names reached from the CLI roots and the import-time statements."""
    roots = {name for name, where in defs.items() if any(module == "cli" for module, _ in where)
             and (name.startswith("cmd_") or name in ("main", "build_parser"))}
    assert {"main", "build_parser", "cmd_beam"} <= roots
    reached, todo = set(), list(roots | at_import)
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for _, refs in defs[name]:
            todo.extend(refs - reached)
    return reached


def test_every_definition_is_reached_from_a_command():
    defs, at_import = _definitions()
    reached = _reached(defs, at_import)
    unreached = sorted(f"{module}.{name}" for name, where in defs.items() if name not in reached | ALLOWED
                       for module, _ in where)
    assert not unreached, f"defined but reached by no command: {unreached}"


def test_the_allowlist_names_only_unreached_definitions():
    """An allowlisted name that a command reaches, or that no longer exists, leaves the allowlist."""
    defs, at_import = _definitions()
    assert ALLOWED <= set(defs)
    assert not ALLOWED & _reached(defs, at_import)

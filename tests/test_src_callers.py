"""One form per computation: every public function, class and method in
src/ects_bench is loaded by name somewhere in src/, so the library offers
only what its commands run. The exceptions are the names perfbench's tracer
wraps, the per-method fits fit_methods looks up by name, and two entry
points that only tests and callers outside src/ reach. Within a function,
every local name it binds is read, so no value is computed for nothing."""

import ast
import glob
import importlib.util
import os

from ects_bench.trigger import METHODS

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src", "ects_bench")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
# data.generate_synthetic makes the test and benchmark datasets, and
# core.misclassification_cost is the scalar formula the tests price against.
ENTRY_POINTS = {("data", "generate_synthetic"), ("core", "misclassification_cost")}


def _tracer_boundary():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(mod_name, attr) for mod_name, attrs in module.BOUNDARY.items() for attr in attrs}


def _public(name):
    return not name.startswith("_")


def unreached_names(src_dir, boundary):
    """The (module, name) of each public module-level function or class and
    each public method ("Class.method") of src_dir's modules that no module
    there loads by name, less the exceptions."""
    defined, loaded = [], set()
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                defined.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef) and _public(item.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    by_name = {("trigger", f"fit_{method}") for method in METHODS if not method.endswith("_myopic")}
    exempt = boundary | by_name | ENTRY_POINTS
    return [f"{module}.{qualified}" for module, qualified, name in defined
            if name not in loaded and (module, qualified) not in exempt]


def test_every_public_name_has_a_caller_in_src():
    assert unreached_names(SRC, _tracer_boundary()) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(function):
    """The nodes of function's own scope: its body, less nested functions,
    lambdas and classes (a comprehension's targets count as its own)."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(src_dir):
    """The "module.function name" of each local name that a function of
    src_dir's modules binds (by assignment, a loop or comprehension target,
    `with ... as` or `except ... as`) and never reads, in its own body or a
    nested one. `_` and names declared global or nonlocal are exempt."""
    found = []
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound, exempt = [], {"_"}
            for node in _own_nodes(function):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    bound.append(node.id)
                elif isinstance(node, ast.ExceptHandler) and node.name:
                    bound.append(node.name)
                elif isinstance(node, (ast.Global, ast.Nonlocal)):
                    exempt.update(node.names)
            read = {node.id for node in ast.walk(function)
                    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            found += [f"{module}.{function.name} {name}" for name in dict.fromkeys(bound)
                      if name not in read | exempt]
    return found


def test_every_bound_local_is_read():
    assert unread_locals(SRC) == []

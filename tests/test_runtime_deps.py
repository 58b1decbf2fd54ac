"""The runtime is numpy-only: every module of the package imports only the
standard library, numpy and the package itself."""

import ast
import glob
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "ects_bench")


def imported_top_levels(path):
    """The top-level package of every absolute import in the file at path."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_stdlib_and_numpy_only():
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert len(paths) > 1
    allowed = set(sys.stdlib_module_names) | {"numpy", "ects_bench"}
    foreign = {
        (os.path.basename(path), name)
        for path in paths
        for name in imported_top_levels(path)
        if name not in allowed
    }
    assert not foreign

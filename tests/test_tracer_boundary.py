"""The perfbench tracer wraps ects_bench functions by name; a rename must
fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "tracer.py")


def test_every_boundary_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, attrs in tracer.BOUNDARY.items():
        module = importlib.import_module(f"ects_bench.{mod_name}")
        for attr in attrs:
            target = module
            for part in attr.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{mod_name}.{attr}")
    assert not missing, missing

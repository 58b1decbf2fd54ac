"""The perfbench tracer wraps ects_bench functions by name and reads their
arguments and results; a rename or a broken hook contract must fail here,
not only in a traced benchmark run."""

import collections
import importlib
import importlib.util
import json
import os
import subprocess
import sys

from ects_bench.data import generate_synthetic, save_dataset
from ects_bench.trigger import METHODS

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
GEN = os.path.join(ROOT, "perfbench", "gen.py")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_name_resolves():
    tracer = _load("perfbench_tracer", TRACER)
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


def test_generated_methods_are_the_method_table():
    # The generator may not import ects_bench, so it keeps its own copy.
    assert _load("perfbench_gen", GEN).METHODS == METHODS


def test_traced_run_and_report_count_their_work(tmp_path):
    save_dataset(generate_synthetic(9, 6, 3, 0.3, seed=0, name="tiny"), str(tmp_path / "ds"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "datasets": [str(tmp_path / "ds" / "manifest.json")],
        "methods": list(METHODS),
        "alpha_grid": [0.0, 0.5, 1.0],
        "output_dir": str(tmp_path / "out"),
    }))
    commands = {
        "run": ["--config", str(config)],
        "report": ["--results", str(tmp_path / "out"), "--out", str(tmp_path / "rebuilt")],
    }
    counts, spans_by_name = {}, {}
    for command, args in commands.items():
        spans = tmp_path / f"{command}.json"
        proc = subprocess.run(
            [sys.executable, TRACER, "--src", os.path.join(ROOT, "src"), "--spans", str(spans),
             "--trace-id", command, "--", command, *args],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        )
        assert proc.returncode == 0, proc.stderr
        traced = json.loads(spans.read_text())
        counts[command] = traced["counts"]
        spans_by_name[command] = collections.Counter(span[2] for span in traced["spans"])
    assert counts["run"]["data.series_loaded"] > 0
    assert counts["run"]["metrics.oracle_unique"] > 0
    assert counts["run"]["bench.records"] > 0
    assert counts["report"]["bench.records"] > 0
    # `report` calls these through the report module; the tracer still sees
    # each call under its bench.* name.
    report_spans = spans_by_name["report"]
    assert report_spans["bench.load_records_csv"] == 1
    assert report_spans["bench.bundle_from_records"] == 1
    # Each tuned method is fitted once over the whole sweep; each myopic
    # method takes its base method's sweep once.
    run_spans = spans_by_name["run"]
    for method in ("proba_threshold", "stopping_rule", "economy", "ecec", "calimera"):
        assert run_spans[f"trigger.fit_{method}"] == 1, method
    assert run_spans["trigger.make_myopic"] == 2

"""perfbench's seed-0 report hashes as a test: each workload's inputs come
from perfbench/gen.py, its commands run as perfbench/run.py runs them (in
fresh processes with single-threaded BLAS), and every report file must hash
as perfbench/reference.json records it."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load_perfbench_run():
    """perfbench/run.py as a module. It is registered in sys.modules before
    it runs, because its dataclasses look their module up there, and the
    BLAS thread pins it sets in os.environ are taken back out."""
    saved_env, saved_path = dict(os.environ), list(sys.path)
    sys.path.insert(0, PERFBENCH)  # run.py imports its sibling modules by name
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        for key in set(os.environ) - set(saved_env):
            del os.environ[key]
        os.environ.update(saved_env)
    return module


RUN = _load_perfbench_run()


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_seed0_report_hashes_match_reference(tmp_path, name):
    workload, seed = RUN.WORKLOADS[name], RUN.REFERENCE_SEED
    src, path = os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **RUN.BLAS_THREADS)

    def cli(*args):
        proc = subprocess.run([sys.executable, "-m", "ects_bench.cli", *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    inputs, results = str(tmp_path / "inputs"), str(tmp_path / "results")
    if workload.command == "run":
        manifests = []
        for dataset, train, test in RUN.gen.make_raw_datasets(
                inputs, seed, workload.datasets, workload.classes, workload.length,
                workload.train_per_class, workload.test_per_class, workload.noise):
            out = str(tmp_path / "data" / dataset)
            cli("prepare", "--train", train, "--test", test, "--name", dataset, "--out", out)
            manifests.append(os.path.join(out, "manifest.json"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"datasets": manifests, "methods": list(workload.methods),
                                      "output_dir": results}))
        cli("run", "--config", str(config))
    else:
        RUN.gen.make_results(inputs, seed, workload.datasets, workload.classes, workload.length,
                             workload.test_per_class)
        cli("report", "--results", inputs, "--out", results)
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[name]
    assert RUN.file_hashes(results) == reference

"""Span tracer for the benchmark's traced runs.

Run as a launcher, it imports ``ects_bench`` from a source tree, wraps the
functions each layer offers the others, runs one CLI command and writes the
spans it recorded as JSON when the command ends:

    python3 perfbench/tracer.py --src SRC --spans OUT.json --trace-id ID -- run --config C

A span is ``[id, parent_id, name, start, end]`` with ``perf_counter`` times;
every span of one command shares the file's ``trace_id``. Only the calls
listed in ``BOUNDARY`` are wrapped: ``core`` is priced inside the other layers
and is not timed on its own, and no file under ``src/`` is changed.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# module -> attributes wrapped in a traced command ("Class.method" for methods).
BOUNDARY: Dict[str, Tuple[str, ...]] = {
    "cli": ("main",),
    "data": ("load_dataset", "save_dataset", "load_manifest", "stratified_split"),
    "classify": ("fit_collection", "ChronologicalClassifierCollection.prob_trace"),
    "trigger": (
        "fit_proba_threshold", "fit_stopping_rule", "fit_economy", "fit_ecec",
        "fit_calimera", "make_myopic", "simulate_online",
    ),
    "metrics": ("optimal_time", "summarize", "pareto_front"),
    "stats": ("per_dataset_ranks", "bootstrap_mean_ci", "pairwise_comparison", "holm_adjust"),
    "bench": (
        "run_benchmark", "run_dataset", "write_reports", "load_records_csv",
        "bundle_from_records",
    ),
}

Span = List  # [id, parent_id, name, start, end]


class Tracer:
    """Keeps spans and counters in memory until ``dump``."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._oracle_keys: set = set()

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, time.perf_counter(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def dump(self, path: str) -> None:
        counts = dict(self.counts, **{"metrics.oracle_unique": len(self._oracle_keys)})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trace_id": self.trace_id, "spans": self.spans, "counts": counts}, fh)

    # Counters taken from arguments and results at the same boundaries.

    def _on_load_dataset(self, args, dataset) -> None:
        self.add("data.series_loaded", len(dataset.train) + len(dataset.test))

    def _on_optimal_time(self, args, result) -> None:
        trace, label, cost, timeline = args[:4]
        self._oracle_keys.add((trace.tobytes(), label, cost.alpha, cost.mis_matrix,
                               timeline.series_length))

    def _on_run_benchmark(self, args, bundle) -> None:
        self.add("bench.datasets_skipped", len(bundle.skipped))

    def _on_write_reports(self, args, written) -> None:
        self.add("bench.records", len(args[0].records))
        self.add("bench.report_bytes", sum(os.path.getsize(p) for p in written))

    def install(self, package: str = "ects_bench") -> None:
        """Wrap every ``BOUNDARY`` function, replacing each reference to it
        held by any module of the package (``from .data import ...`` too)."""
        for mod_name in BOUNDARY:
            importlib.import_module(f"{package}.{mod_name}")
        modules = [m for n, m in sys.modules.items() if n.startswith(package + ".")]
        hooks = {
            "data.load_dataset": self._on_load_dataset,
            "metrics.optimal_time": self._on_optimal_time,
            "bench.run_benchmark": self._on_run_benchmark,
            "bench.write_reports": self._on_write_reports,
        }
        for mod_name, attrs in BOUNDARY.items():
            module = sys.modules[f"{package}.{mod_name}"]
            for attr in attrs:
                name = f"{mod_name}.{attr.split('.')[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth), hooks.get(name)))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original, hooks.get(name))
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)


def self_time(spans: Sequence[Span]) -> Dict[int, float]:
    """Per span id: its duration minus the part of its interval that its
    child spans cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    out = {}
    for span in spans:
        start, end = span[3], span[4]
        covered, reach = 0.0, start
        for child in sorted(children.get(span[0], ()), key=lambda s: s[3]):
            lo, hi = max(child[3], reach), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span[0]] = (end - start) - covered
    return out


def busy_time(spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
    """Per name: (summed duration, call count). A span nested inside another
    span of the same name adds to the count but not to the time."""
    by_id = {s[0]: s for s in spans}
    out: Dict[str, Tuple[float, int]] = {}
    for span in spans:
        total, calls = out.get(span[2], (0.0, 0))
        parent, nested = span[1], False
        while parent != -1 and not nested:
            nested = by_id[parent][2] == span[2]
            parent = by_id[parent][1]
        out[span[2]] = (total + (0.0 if nested else span[4] - span[3]), calls + 1)
    return out


def load(paths: Iterable[str]) -> Tuple[List[List[Span]], Dict[str, int]]:
    """Span lists (one per traced command) and counters summed over them."""
    traces, counts = [], {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        traces.append(doc["spans"])
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return traces, counts


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the ects_bench package")
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("--trace-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args
    sys.path.insert(0, os.path.abspath(opts.src))
    tracer = Tracer(opts.trace_id)
    tracer.install()
    from ects_bench import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(opts.spans)


if __name__ == "__main__":
    sys.exit(main())

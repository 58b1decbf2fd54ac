"""ects-bench performance benchmark: one command per workload.

    python3 perfbench/run.py --workload sweep_small --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout. It generates the workload's inputs
from the seed, runs the real CLI (``python3 -m ects_bench.cli`` on ``src/``)
in fresh single-client processes, one command at a time, times a fixed
reference workload (``perfbench/yardstick.py``) after each measured command,
checks every output outside the timed interval, and prints one JSON object as
its last line of stdout. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the measured command once untraced and once under
``perfbench/tracer.py`` and reports the per-layer metrics. ``--workload all``
runs every workload in turn.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# Pinned before numpy loads, here and in every child: the pipeline is serial,
# so on a small machine the numbers should measure the program, not the
# scheduler, and speed must not come from threads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
from yardstick import Yardstick  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPORT_FILES = ("records.csv", "summaries.csv", "ranks.csv", "pairwise.csv", "pareto.csv",
                "timelines.json")
REFERENCE_SEED = 0
YARDSTICK_SHARE = 0.15  # yardstick time after each command, as a share of the command's
TIME_LIMIT_S = 170.0  # a child still running at this point of the run is killed


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the measured CLI command: "run" or "report"
    datasets: int
    classes: int
    length: int
    train_per_class: int  # raw training series per class ("run" workloads)
    test_per_class: int  # test series per class; for "report", series per cell
    noise: float
    methods: Tuple[str, ...]
    setup_repeats: int
    focus: Tuple[str, ...]  # per-layer times that should dominate the traced command


WORKLOADS = {
    w.name: w for w in (
        # One dataset on the acceptance-scale timeline, every method: per-alpha trigger
        # refits, the per-record online replay and the oracle.
        Workload("sweep_small", "run", 1, 3, 15, 30, 30, 0.3, gen.METHODS, 10,
                 ("trigger.fit_proba_threshold_s", "trigger.fit_stopping_rule_s",
                  "trigger.fit_economy_s", "trigger.fit_ecec_s", "trigger.fit_calimera_s",
                  "trigger.make_myopic_s", "trigger.simulate_online_s",
                  "metrics.optimal_time_s")),
        # Long series with cheap triggers: ingest, prefix features, classifier.
        Workload("long_series", "run", 1, 3, 2000, 60, 60, 0.3,
                 ("asap", "alap", "proba_threshold"), 6,
                 ("data.load_manifest_s", "data.stratified_split_s",
                  "classify.fit_collection_s", "classify.prob_trace_s")),
        # Many records read back: record parsing, summaries and statistics.
        # 12 datasets is the largest count on the exact Wilcoxon path.
        Workload("report_many", "report", 12, 3, 15, 0, 60, 0.0, gen.METHODS, 10,
                 ("bench.load_records_csv_s", "bench.write_reports_self_s",
                  "stats.per_dataset_ranks_s", "stats.bootstrap_mean_ci_s",
                  "stats.pairwise_comparison_s", "stats.holm_adjust_s")),
    )
}

# Per-layer metrics of a traced run, by how they are computed.
LAYER_TIMES = (
    "trigger.fit_economy", "trigger.fit_calimera", "trigger.fit_stopping_rule",
    "trigger.fit_ecec", "trigger.fit_proba_threshold", "trigger.make_myopic",
    "trigger.simulate_online", "metrics.optimal_time", "classify.fit_collection",
    "classify.prob_trace", "data.load_manifest", "data.stratified_split", "data.load_dataset",
    "data.save_dataset", "bench.load_records_csv", "bench.bundle_from_records",
    "metrics.summarize", "metrics.pareto_front", "stats.pairwise_comparison",
    "stats.bootstrap_mean_ci", "stats.per_dataset_ranks", "stats.holm_adjust",
    "bench.write_reports", "bench.run_dataset",
)
LAYER_CALLS = (
    "trigger.fit_economy", "trigger.fit_calimera", "trigger.simulate_online",
    "metrics.optimal_time", "classify.prob_trace", "stats.pairwise_comparison",
)
LAYER_SELF_TIMES = ("bench.bundle_from_records", "bench.run_dataset", "bench.write_reports")
LAYER_COUNTS = {"data.series_loaded": "count", "bench.report_bytes": "bytes",
                "bench.records": "count", "bench.datasets_skipped": "count"}


def layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{n}_s": "s" for n in LAYER_TIMES}
    units.update({f"{n}_calls": "count" for n in LAYER_CALLS})
    units.update({f"{n}_self_s": "s" for n in LAYER_SELF_TIMES})
    units.update(LAYER_COUNTS)
    units.update({"metrics.oracle_unique_ratio": "ratio", "trace.command_s": "s",
                  "trace.overhead_frac": "ratio"})
    return units


END_TO_END_UNITS = {"setup_s": "s", "command_rel": "ratio", "peak_rss_mb": "MiB"}


class Runner:
    """Starts ects-bench commands in fresh processes, one at a time."""

    def __init__(self, root: str, work: str, started: float):
        self.src = os.path.join(root, "src")
        self.work = work
        self.deadline = started + TIME_LIMIT_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=self.src + (os.pathsep + path if path else ""))
        self.logs = os.path.join(work, "logs")
        os.makedirs(self.logs, exist_ok=True)
        self.count = 0
        self.trace_files: List[str] = []

    def cli(self, args: Sequence[str], traced: bool = False) -> Tuple[float, float, int]:
        """Run one CLI command: (wall seconds, peak RSS in MiB, exit code).
        A traced command records its spans for ``trace_files``."""
        self.count += 1
        argv = [sys.executable, "-m", "ects_bench.cli", *args]
        if traced:
            spans = os.path.join(self.work, f"spans-{self.count:03d}.json")
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), "--src", self.src,
                    "--spans", spans, "--trace-id", f"{os.path.basename(self.work)}-{self.count}",
                    "--", *args]
            self.trace_files.append(spans)
        log = os.path.join(self.logs, f"{self.count:03d}-{args[0] if args else 'cli'}")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return 0.0, 0.0, -1
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            previous = signal.signal(signal.SIGALRM, lambda *_: _kill(pid))
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                _kill(pid)
                os.waitpid(pid, 0)
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            with open(log + ".err", "r", encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:] or ["(no stderr)"]
            print(f"exit {code}: ects-bench {' '.join(args)}: {tail[0]}", file=sys.stderr)
        return elapsed, usage.ru_maxrss / 1024.0, code


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # already reaped
        pass


def file_hashes(directory: str) -> Dict[str, str]:
    out = {}
    for name in REPORT_FILES:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def environment(root: str, workload: Workload, seed: int, seconds: int, trace: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "commit": commit, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "workload": asdict(workload), "seed": seed, "seconds": seconds, "trace": trace,
    }


class Outcome:
    """Cells attempted and failed, plus problems that make the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def cells(self, total: int, failed: int, problems: Sequence[str] = ()) -> None:
        self.attempted += total
        self.failed += failed
        self.problems.extend(problems)


def run_workload(root: str, workload: Workload, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    work = os.path.join(root, ".perfbench", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(root, work, started)
    inputs, results = os.path.join(work, "inputs"), os.path.join(work, "results")
    outcome = Outcome()
    setup_times: List[float] = []
    runner.cli(["--help"])  # warm-up: byte-compiles the package once

    if workload.command == "run":
        pairs = gen.make_raw_datasets(inputs, seed, workload.datasets, workload.classes,
                                      workload.length, workload.train_per_class,
                                      workload.test_per_class, workload.noise)
        names = [name for name, _, _ in pairs]
        prepares = [["prepare", "--train", train, "--test", test, "--name", name,
                     "--out", os.path.join(work, "data", name)] for name, train, test in pairs]
        config = os.path.join(work, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"datasets": [os.path.join(work, "data", n, "manifest.json") for n in names],
                       "methods": list(workload.methods), "output_dir": results}, fh, indent=2)
        command = ["run", "--config", config]
        cells = checks.expected_cells(names, workload.methods, gen.ALPHAS)
        n_cells = len(cells)
        per_cell = workload.classes * workload.test_per_class

        def check() -> None:
            timelines, problems = checks.check_timelines(
                os.path.join(results, "timelines.json"), names, workload.length)
            failed, more = checks.check_records(
                os.path.join(results, "records.csv"), cells, per_cell, timelines)
            outcome.cells(len(cells), len(failed), problems + more)

        for _ in range(1 if trace else workload.setup_repeats):
            runs = [runner.cli(args, traced=bool(trace)) for args in prepares]
            if any(code != 0 for _, _, code in runs):
                outcome.problems.append("prepare failed")
                break
            setup_times.append(sum(s for s, _, _ in runs))
    else:
        means = gen.make_results(inputs, seed, workload.datasets, workload.classes,
                                 workload.length, workload.test_per_class)
        command = ["report", "--results", inputs, "--out", results]
        n_cells = len(means)
        total_records = n_cells * workload.test_per_class

        def check() -> None:
            failed, problems = checks.check_summaries(os.path.join(results, "summaries.csv"), means)
            rows = checks.count_rows(os.path.join(results, "records.csv"))
            if rows != total_records:
                failed = set(means)
                problems.append(f"records.csv has {rows} rows, expected {total_records}")
            outcome.cells(len(means), len(failed), problems)

        for _ in range(workload.setup_repeats):
            elapsed, _, code = runner.cli(["--help"])
            if code != 0:
                outcome.problems.append("the CLI does not start")
                break
            setup_times.append(elapsed)

    stick = Yardstick()
    sticks: List[List[float]] = []  # yardstick pass times after each command

    def measure(traced: bool = False) -> Tuple[float, float, int]:
        shutil.rmtree(results, ignore_errors=True)
        elapsed, rss, code = runner.cli(command, traced)
        sticks.append(stick.passes(YARDSTICK_SHARE * elapsed))
        if code == 0:
            check()
        else:
            outcome.cells(n_cells, n_cells, [f"{command[0]} exited {code}"])
        return elapsed, rss, code

    durations: List[float] = []
    rss_values: List[float] = []
    if not outcome.problems:
        if trace:
            durations = [measure()[0], measure(traced=True)[0]]
        else:
            window = time.monotonic()
            while True:
                elapsed, rss, code = measure()
                durations.append(elapsed)
                rss_values.append(rss)
                # Stop when the next command and its yardstick passes would
                # end more than half a step past the window, or too close to
                # the time limit.
                spent = time.monotonic() - window
                step = spent / len(durations)
                left = runner.deadline - time.monotonic()
                if code != 0 or spent + step / 2 >= seconds or left < 2.0 * max(durations) + 15.0:
                    break
    if outcome.attempted == 0:  # set-up failed: every cell of the command fails
        outcome.cells(n_cells, n_cells)

    hashes = file_hashes(results)
    if workload.command == "run" and outcome.failed == 0 and not outcome.problems:
        # `report` over the run's own records must rebuild every derived file.
        rebuilt = os.path.join(work, "rebuilt")
        _, _, code = runner.cli(["report", "--results", results, "--out", rebuilt])
        differ = checks.same_files(results, rebuilt, REPORT_FILES) if code == 0 else ["(report failed)"]
        if differ:
            outcome.problems.append(f"report did not rebuild: {', '.join(differ)}")
    mismatch = []
    if seed == REFERENCE_SEED:
        with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as fh:
            reference = json.load(fh).get(workload.name, {})
        mismatch = sorted(n for n in set(reference) | set(hashes) if reference.get(n) != hashes.get(n))

    passes = [t for after in sticks for t in after]
    relative = _median(durations) / _median(passes) if passes else 0.0
    if trace:
        overhead = 0.0
        if len(durations) == 2:  # each command's time over the yardstick's after it
            untraced, traced = (d / statistics.median(s) for d, s in zip(durations, sticks))
            overhead = traced / untraced - 1.0
        metrics = layer_metrics(runner.trace_files, durations[-1] if durations else 0.0, overhead)
        share = sum(metrics[name]["value"] for name in workload.focus) / max(
            metrics["trace.command_s"]["value"], 1e-9)
        notes = [f"focus_share {share:.3f} of trace.command_s (sum of {', '.join(workload.focus)})"]
    else:
        alias = "run_s" if workload.command == "run" else "report_s"
        values = {"setup_s": _median(setup_times), "command_rel": relative,
                  "peak_rss_mb": _median(rss_values)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        notes = [f"command_rel = median wall time of {len(durations)} x `ects-bench {command[0]}` "
                 f"over that of {len(passes)} yardstick passes",
                 f"{alias} {_median(durations):.4f} s, yardstick {_median(passes):.4f} s "
                 f"(medians, wall time)",
                 f"setup_s = median of {len(setup_times)} set-ups"]
    return {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "failed_frac": outcome.failed / outcome.attempted if outcome.attempted else 1.0,
        "problems": outcome.problems,
        "hash_mismatch": mismatch,
        "hashes": hashes,
        "notes": notes,
        "samples": {"setup_s": setup_times, "command_s": durations, "yardstick_s": sticks,
                    "peak_rss_mb": rss_values},
    }


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(trace_files: Sequence[str], traced_s: float, overhead: float) -> Dict[str, dict]:
    """Per-layer metrics from the spans of every traced command of a run."""
    traces, counts = tracer.load(trace_files)
    busy: Dict[str, Tuple[float, int]] = {}
    self_s: Dict[str, float] = {}
    for spans in traces:
        for name, (seconds, calls) in tracer.busy_time(spans).items():
            total = busy.get(name, (0.0, 0))
            busy[name] = (total[0] + seconds, total[1] + calls)
        selfs = tracer.self_time(spans)
        for span in spans:
            self_s[span[2]] = self_s.get(span[2], 0.0) + selfs[span[0]]
    values: Dict[str, float] = {}
    for name in LAYER_TIMES:
        values[f"{name}_s"] = busy.get(name, (0.0, 0))[0]
    for name in LAYER_CALLS:
        values[f"{name}_calls"] = busy.get(name, (0.0, 0))[1]
    for name in LAYER_SELF_TIMES:
        values[f"{name}_self_s"] = self_s.get(name, 0.0)
    for name in LAYER_COUNTS:
        values[name] = counts.get(name, 0)
    oracle_calls = busy.get("metrics.optimal_time", (0.0, 0))[1]
    values["metrics.oracle_unique_ratio"] = (
        counts.get("metrics.oracle_unique", 0) / oracle_calls if oracle_calls else 0.0)
    values["trace.command_s"] = traced_s
    values["trace.overhead_frac"] = overhead
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layer_metric_units().items()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=30, help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # A terminated benchmark unwinds through Runner.cli, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ects_bench", "cli.py")):
        print("perfbench: no ects_bench source under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
    for name in names:
        workload = WORKLOADS[name]
        env = environment(root, workload, opts.seed, opts.seconds, opts.trace)
        result = run_workload(root, workload, opts.seed, opts.seconds, opts.trace)
        os.makedirs(os.path.join(root, ".perfbench", "results"), exist_ok=True)
        record = os.path.join(root, ".perfbench", "results",
                              f"{name}-seed{opts.seed}-trace{opts.trace}.json")
        with open(record, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, **result}, fh, indent=2)
        print(f"workload {name}  seed {opts.seed}  environment {json.dumps(env, sort_keys=True)}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:36s} {entry['value']:.6g} {entry['unit']}")
        print(f"  {'failed_frac':36s} {result['failed_frac']:.6g} ratio "
              f"({result['failed']}/{result['attempted']} cells)")
        for line in result["notes"]:
            print(f"  {line}")
        for problem in result["problems"]:
            print(f"  problem: {problem}")
        if result["hash_mismatch"]:
            print(f"  hash mismatch at seed {REFERENCE_SEED}: {', '.join(result['hash_mismatch'])}")
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

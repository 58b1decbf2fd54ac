"""Records and reports: the records file and timelines a results directory
holds, the bundle of records and per-group summaries rebuilt from them, and
the byte-deterministic report files (records, summaries, ranks, pairwise
tests, Pareto fronts and an optional rank chart).

`run` writes its priced records through this module; `report` reads them
back and rebuilds every derived file. This module imports no fitting or
ingestion code, so `report` loads none.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import metrics, stats
from .core import COLUMN_DTYPE, RECORD_FIELDS, RECORD_TYPES, RecordTable, SampledTimeline, weighted_costs
from .errors import DataError, writing_to


@dataclass
class ReportBundle:
    records: RecordTable  # sorted by (dataset, method, alpha, series_id)
    summaries: List[metrics.RunSummary]  # one per (dataset, method, alpha) group, in that order
    timelines: Dict[str, SampledTimeline]
    skipped: List[Tuple[str, str]] = field(default_factory=list)  # (dataset, reason)


def derive_seed(master: int, *parts: object) -> int:
    digest = hashlib.sha256(repr((master,) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """One line per row, formatted a column at a time: repr for a column of
    floats and str for any other (each column holds values of one type)."""
    columns = [map(repr if isinstance(column[0], float) else str, column) for column in zip(*rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


PARSE_BLOCK_LINES = 4096
# alpha, the four costs (weighted, misclassification, delay, oracle), regret
FLOAT_FIELDS = tuple(name for name, kind in zip(RECORD_FIELDS, RECORD_TYPES) if kind is float)


def _parse_block(lines: List[str], timelines: Dict[str, SampledTimeline]) -> RecordTable:
    """Records lines (each ending in a newline) as a table that keeps each
    line as its row text. A bad line is a ValueError; given that line alone,
    the message says what is wrong with it."""
    width = len(RECORD_FIELDS)
    tokens = ",".join(lines).split(",")  # a line's last field keeps its newline
    # Each line holds one newline, at its end: every line has `width` fields
    # iff there are width * len(lines) tokens and every width-th ends a line.
    if len(tokens) != width * len(lines) or "".join(tokens[width - 1::width]).count("\n") != len(lines):
        raise ValueError(f"expected {width} fields, got {len(tokens)}")
    datasets = set(tokens[0::width])
    if not datasets <= timelines.keys():
        raise ValueError(f"dataset {min(datasets - timelines.keys())!r} has no timeline")
    columns = {}
    for k, (name, kind) in enumerate(zip(RECORD_FIELDS, RECORD_TYPES)):
        column = tokens[k::width]
        # Each distinct token is converted once, and a str column shares one
        # object per distinct value.
        try:
            value = {token: kind(token) for token in set(column)}
            columns[name] = np.array(list(map(value.__getitem__, column)), dtype=COLUMN_DTYPE[kind])
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    floats = np.array([columns[name] for name in FLOAT_FIELDS])  # (fields, lines)
    bad = ~np.isfinite(floats)
    bad[0] = ~((floats[0] >= 0.0) & (floats[0] <= 1.0))  # also false for nan
    # A cost is never negative; regret may be, by earliest_min's 1e-15 tie margin.
    bad[1:-1] |= floats[1:-1] < 0.0
    if bad.any():
        k = int(bad.any(axis=1).argmax())  # the first bad field
        value = float(floats[k][bad[k]][0])
        why = "not in [0, 1]" if k == 0 else "not finite" if not np.isfinite(value) else "negative"
        raise ValueError(f"{FLOAT_FIELDS[k]} {value!r} is {why}")
    # The derived fields are their float64 formula, bit for bit, as `run` writes them.
    weighted = columns["weighted_cost"]
    for name, formula, expected in (
        ("weighted_cost", "alpha * misclassification_cost + (1 - alpha) * delay_cost",
         weighted_costs(columns["alpha"], columns["misclassification_cost"], columns["delay_cost"])),
        ("regret", "weighted_cost - oracle_cost", weighted - columns["oracle_cost"]),
    ):
        off = columns[name] != expected
        if off.any():
            i = int(off.argmax())
            raise ValueError(f"{name} {float(columns[name][i])!r} is not {formula} = {float(expected[i])!r}")
    for dataset in datasets:
        rows = columns["dataset"] == dataset
        for name in ("trigger_time", "oracle_time"):
            times = columns[name][rows]
            off = ~np.isin(times, timelines[dataset].timestamps)
            if off.any():
                raise ValueError(f"{name} {times[off][0]} is not on the timeline of dataset {dataset!r}")
    return RecordTable(**columns, text=np.array(lines, dtype=object))


def load_records_csv(path: str, timelines: Dict[str, SampledTimeline]) -> RecordTable:
    """The records write_reports wrote, each line kept as its row's text and
    parsed in blocks of PARSE_BLOCK_LINES. A row whose field count or field
    types are wrong, whose float field is not finite, alpha not in [0, 1] or
    cost negative, whose dataset has no timeline, or whose trigger or oracle
    time is not on that timeline is a DataError naming its path:line."""
    blocks: List[RecordTable] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if tuple(fh.readline().strip().split(",")) != RECORD_FIELDS:
                raise DataError(f"{path}:1: unexpected records header")
            for start in itertools.count(2, PARSE_BLOCK_LINES):
                lines = list(itertools.islice(fh, PARSE_BLOCK_LINES))
                if not lines:
                    break
                if not lines[-1].endswith("\n"):
                    lines[-1] += "\n"
                try:
                    blocks.append(_parse_block(lines, timelines))
                except ValueError:  # name the first bad line
                    for lineno, line in enumerate(lines, start=start):
                        try:
                            _parse_block([line], timelines)
                        except ValueError as exc:
                            raise DataError(f"{path}:{lineno}: {exc}") from None
                    raise
    except OSError as exc:
        raise DataError(f"cannot read records file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    return RecordTable.concat(blocks)


def _ranks_svg(rank_rows: List[Tuple[float, str, float, float, float]], methods: Sequence[str]) -> str:
    """Minimal line chart: mean rank (y, inverted) vs alpha (x), one polyline
    per method."""
    width, height, margin = 640, 400, 50
    alphas = sorted({row[0] for row in rank_rows})
    max_rank = max(len(methods), 2)
    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
               "#e377c2", "#7f7f7f", "#bcbd22"]

    def x_of(a):
        return margin + a * (width - 2 * margin)

    def y_of(r):
        return margin + (r - 1) / (max_rank - 1) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 10}" font-size="12">alpha</text>',
        f'<text x="10" y="{height // 2}" font-size="12" transform="rotate(-90 14 {height // 2})">mean rank</text>',
    ]
    for m_idx, method in enumerate(methods):
        pts = [
            (x_of(a), y_of(rank))
            for a, meth, rank, _, _ in sorted(rank_rows)
            if meth == method
        ]
        if not pts:
            continue
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        color = palette[m_idx % len(palette)]
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * m_idx}" font-size="11" fill="{color}">{method}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def check_output_dir(out_dir: str) -> None:
    """Raise the ConfigError write_reports would raise for an output directory
    that cannot be made (an empty path, a file or a path under a file),
    without making anything, so that `run` fails before its work."""
    with writing_to("reports", out_dir):
        if not out_dir:
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT))
        path = out_dir
        while path and not os.path.isdir(path):
            if os.path.exists(path):
                code = errno.EEXIST if path == out_dir else errno.ENOTDIR
                raise OSError(code, os.strerror(code))
            path = os.path.dirname(path)


def write_reports(bundle: ReportBundle, out_dir: str, emit_svg: bool = False) -> List[str]:
    """Emit records/summaries/ranks/pairwise/pareto CSVs (plus an optional
    rank chart); byte-deterministic for a given bundle. An output directory
    that cannot be made or written is a ConfigError naming it."""
    with writing_to("reports", out_dir):
        return _write_report_files(bundle, out_dir, emit_svg)


def _write_report_files(bundle: ReportBundle, out_dir: str, emit_svg: bool) -> List[str]:
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []

    timelines_path = os.path.join(out_dir, "timelines.json")
    with open(timelines_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            {
                name: {"timestamps": list(tl.timestamps), "series_length": tl.series_length}
                for name, tl in sorted(bundle.timelines.items())
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    written.append(timelines_path)

    records_path = os.path.join(out_dir, "records.csv")
    with open(records_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(RECORD_FIELDS) + "\n")
        fh.writelines(bundle.records.text)
    written.append(records_path)

    summaries_path = os.path.join(out_dir, "summaries.csv")
    _write_csv(
        summaries_path,
        ("dataset", "method", "alpha", "avg_cost", "accuracy", "earliness",
         "mean_regret", "mean_trigger_index"),
        [
            (s.dataset, s.method, s.alpha, s.avg_cost, s.accuracy, s.earliness,
             s.mean_regret, s.mean_trigger_index)
            for s in bundle.summaries
        ],
    )
    written.append(summaries_path)

    # Ranks and pairwise tests read, per alpha, the costs of the datasets that
    # have every method, in dataset order.
    by_alpha: Dict[float, Dict[str, Dict[str, float]]] = {}
    methods = sorted({s.method for s in bundle.summaries})
    for s in bundle.summaries:
        by_alpha.setdefault(s.alpha, {}).setdefault(s.dataset, {})[s.method] = s.avg_cost
    complete_by_alpha: Dict[float, Dict[str, Dict[str, float]]] = {}
    for alpha, costs in sorted(by_alpha.items()):
        complete = {d: row for d, row in sorted(costs.items()) if all(m in row for m in methods)}
        if complete:
            complete_by_alpha[alpha] = complete

    # Per alpha: mean ranks with bootstrap CIs over per-dataset rank values,
    # each method drawing from its own seed, and pairwise comparisons with
    # Holm-adjusted Wilcoxon p-values.
    rank_rows: List[Tuple[float, str, float, float, float]] = []
    pair_rows = []
    first, second = np.triu_indices(len(methods), 1)  # each pair of methods, in order
    pairs = [(methods[i], methods[j]) for i, j in zip(first.tolist(), second.tolist())]
    for alpha, complete in complete_by_alpha.items():
        ranks = stats.per_dataset_ranks(complete, methods)
        values = np.array([ranks[m] for m in methods])  # (methods, datasets)
        cis = stats.bootstrap_mean_cis(values, [derive_seed(0, "rank-ci", alpha, m) for m in methods])
        rank_rows += zip(itertools.repeat(alpha), methods, values.mean(axis=1).tolist(), *cis.T.tolist())
        costs = np.array([[row[m] for m in methods] for row in complete.values()])  # (datasets, methods)
        raw = stats.pairwise_comparisons(costs[:, first], costs[:, second])
        adjusted = stats.holm_adjust([r[3] for r in raw])
        for (a, b), (wins, ties, losses, p), p_adj in zip(pairs, raw, adjusted):
            pair_rows.append((alpha, a, b, wins, ties, losses, p, p_adj))
    ranks_path = os.path.join(out_dir, "ranks.csv")
    _write_csv(ranks_path, ("alpha", "method", "mean_rank", "ci_low", "ci_high"), rank_rows)
    written.append(ranks_path)

    pairwise_path = os.path.join(out_dir, "pairwise.csv")
    _write_csv(
        pairwise_path,
        ("alpha", "method_a", "method_b", "wins", "ties", "losses", "p_value", "p_holm"),
        pair_rows,
    )
    written.append(pairwise_path)

    # Pareto fronts per dataset over (earliness, accuracy) across (method, alpha).
    pareto_rows = []
    for dataset, group in itertools.groupby(bundle.summaries, key=lambda s: s.dataset):
        group = list(group)
        on_front = metrics.pareto_front([(s.earliness, s.accuracy) for s in group])
        for s, flag in zip(group, on_front):
            pareto_rows.append((dataset, s.method, s.alpha, s.earliness, s.accuracy, int(flag)))
    pareto_path = os.path.join(out_dir, "pareto.csv")
    _write_csv(
        pareto_path,
        ("dataset", "method", "alpha", "earliness", "accuracy", "on_front"),
        pareto_rows,
    )
    written.append(pareto_path)

    if bundle.skipped:
        skipped_path = os.path.join(out_dir, "skipped.csv")
        _write_csv(skipped_path, ("dataset", "reason"), sorted(bundle.skipped))
        written.append(skipped_path)

    if emit_svg:
        svg_path = os.path.join(out_dir, "ranks.svg")
        with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_ranks_svg(rank_rows, methods))
        written.append(svg_path)
    return written


def load_timelines_json(path: str) -> Dict[str, SampledTimeline]:
    """The timelines write_reports wrote; a missing or malformed file, or a
    timestamp or series length that is not a JSON integer, is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        timelines = {}
        for name, entry in doc.items():
            timestamps, length = tuple(entry["timestamps"]), entry["series_length"]
            if not all(type(v) is int for v in timestamps + (length,)):  # JSON true is a bool
                raise DataError(f"{path}: dataset {name!r}: timestamps and series_length must be JSON integers")
            timelines[name] = SampledTimeline(timestamps, length)
        return timelines
    except OSError as exc:
        raise DataError(f"cannot read timelines file {path}: {exc.strerror or exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed timelines: {exc!r}") from None


def _str_order(column: np.ndarray) -> np.ndarray:
    """Each entry's rank among the column's distinct strings in Python's str
    order (numpy's fixed-width strings would drop trailing NULs)."""
    values = column.tolist()
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return np.fromiter(map(rank.__getitem__, values), dtype=np.int64, count=len(values))


def bundle_from_records(records: RecordTable, timelines: Dict[str, SampledTimeline]) -> ReportBundle:
    """Rebuild a full bundle from raw records: the rows sorted stably by
    (dataset, method, alpha, series_id), the given table itself if it is
    already in that order, and one summary per (dataset, method, alpha)
    group, each over its contiguous slice."""
    dataset, method = _str_order(records.dataset), _str_order(records.method)
    order = np.lexsort((_str_order(records.series_id), records.alpha, method, dataset))
    table = records if np.array_equal(order, np.arange(len(order))) else records.take(order)
    dataset, method, alpha = dataset[order], method[order], table.alpha
    new_group = np.ones(len(table), dtype=bool)
    new_group[1:] = (dataset[1:] != dataset[:-1]) | (method[1:] != method[:-1]) | (alpha[1:] != alpha[:-1])
    return ReportBundle(table, metrics.summarize_groups(table, np.flatnonzero(new_group), timelines), timelines)

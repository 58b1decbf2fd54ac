"""Records and reports: the records file and timelines a results directory
holds, the bundle of records and per-group summaries rebuilt from them, and
the byte-deterministic report files (records, summaries, ranks, pairwise
tests, Pareto fronts and an optional rank chart).

`run` writes its priced records through this module; `report` reads them
back and rebuilds every derived file. write_reports first builds every file
as one (name, lines) entry, its lines produced as they are written, then
writes the entries in one loop. This module imports no fitting or ingestion
code, so `report` loads none.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from . import metrics, stats
from .core import (COLUMN_DTYPE, OUTSIDE_FORMAT, RECORD_FIELDS, RECORD_TYPES, TIE_MARGIN, RecordTable,
                   SampledTimeline, weighted_costs)
from .errors import DataError, writing_to


@dataclass
class ReportBundle:
    records: RecordTable  # sorted by (dataset, method, alpha, series_id)
    summaries: List[metrics.RunSummary]  # one per (dataset, method, alpha) group, in that order
    timelines: Dict[str, SampledTimeline]
    skipped: List[Tuple[str, str]] = field(default_factory=list)  # (dataset, reason)


SUMMARY_FIELDS = tuple(f.name for f in fields(metrics.RunSummary))


def derive_seed(master: int, *parts: object) -> int:
    digest = hashlib.sha256(repr((master,) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _csv_lines(header: Sequence[str], rows: Sequence[Sequence[object]]) -> Iterator[str]:
    """The header line, then one line per row, formatted a column at a time:
    repr for a column of floats and str for any other (each column holds
    values of one type)."""
    yield ",".join(header) + "\n"
    columns = [map(repr if isinstance(column[0], float) else str, column) for column in zip(*rows)]
    yield from (",".join(row) + "\n" for row in zip(*columns))


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
        # Each distinct token is checked and converted once (the dataset
        # column's are the set checked above), and a str column shares one
        # object per value. A number's only byte outside the format is the
        # newline that ends a line's last field.
        distinct = datasets if k == 0 else set(column)
        if kind is not str:
            text = "".join(distinct).encode()
            if len(text.translate(None, OUTSIDE_FORMAT)) != len(text) - text.count(b"\n"):
                raise ValueError(f"{name} holds whitespace, '_' or a non-ASCII character")
        try:
            value = {token: kind(token) for token in distinct}
            columns[name] = np.fromiter(map(value.__getitem__, column), dtype=COLUMN_DTYPE[kind], count=len(lines))
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    floats = np.array([columns[name] for name in FLOAT_FIELDS])  # (fields, lines)
    bad = ~np.isfinite(floats)
    bad[0] = ~((floats[0] >= 0.0) & (floats[0] <= 1.0))  # also false for nan
    # A cost is never negative; regret may be, by earliest_min's tie margin.
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
    # The oracle's cost is the least weighted cost on the series' own decision
    # path, by core.earliest_min's tie test, so no decision on it costs less.
    above = weighted < columns["oracle_cost"] - TIE_MARGIN
    if above.any():
        i = int(above.argmax())
        raise ValueError(f"oracle_cost {float(columns['oracle_cost'][i])!r} is above "
                         f"weighted_cost {float(weighted[i])!r}")
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
    types are wrong, whose number holds whitespace, '_' or a non-ASCII
    character, whose float field is not finite, alpha not in [0, 1] or
    cost negative, whose derived field is not its formula, whose oracle cost
    is above its weighted cost, whose dataset has no timeline, or whose
    trigger or oracle time is not on that timeline is a DataError naming its
    path:line."""
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


def _ranks_svg(rank_rows: List[Tuple[float, str, float, float, float]], methods: Sequence[str]) -> List[str]:
    """The lines of a minimal line chart: mean rank (y, inverted) vs alpha
    (x), one polyline per method."""
    width, height, margin = 640, 400, 50
    max_rank = max(len(methods), 2)
    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
               "#e377c2", "#7f7f7f", "#bcbd22"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 10}" font-size="12">alpha</text>',
        f'<text x="10" y="{height // 2}" font-size="12" transform="rotate(-90 14 {height // 2})">mean rank</text>',
    ]
    rank_rows = sorted(rank_rows)
    for m_idx, method in enumerate(methods):
        path = " ".join(f"{margin + a * (width - 2 * margin):.1f},"
                        f"{margin + (rank - 1) / (max_rank - 1) * (height - 2 * margin):.1f}"
                        for a, meth, rank, _, _ in rank_rows if meth == method)
        if not path:
            continue
        color = palette[m_idx % len(palette)]
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * m_idx}" font-size="11" fill="{color}">{method}</text>'
        )
    parts.append("</svg>")
    return [part + "\n" for part in parts]


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


def _rank_and_pair_rows(summaries: Sequence[metrics.RunSummary]) -> Tuple[List[str], list, list]:
    """The methods, and per alpha the rank and pairwise rows over the
    datasets that have every method, in dataset order: mean ranks with
    bootstrap CIs over per-dataset rank values, each method drawing from its
    own seed, and pairwise comparisons with Holm-adjusted Wilcoxon p-values."""
    methods = sorted({s.method for s in summaries})
    datasets = sorted({s.dataset for s in summaries})
    avg_cost = {(s.alpha, s.dataset, s.method): s.avg_cost for s in summaries}
    first, second = np.triu_indices(len(methods), 1)  # each pair of methods, in order
    rank_rows: List[Tuple[float, str, float, float, float]] = []
    pair_rows = []
    for alpha in sorted({s.alpha for s in summaries}):
        complete = [d for d in datasets if all((alpha, d, m) in avg_cost for m in methods)]
        if not complete:
            continue
        costs = np.array([[avg_cost[alpha, d, m] for m in methods] for d in complete])  # (datasets, methods)
        ranks = stats.per_dataset_ranks(costs).T  # (methods, datasets)
        cis = stats.bootstrap_mean_cis(ranks, [derive_seed(0, "rank-ci", alpha, m) for m in methods])
        rank_rows += zip(itertools.repeat(alpha), methods, ranks.mean(axis=1).tolist(), *cis.T.tolist())
        raw = stats.pairwise_comparisons(costs[:, first], costs[:, second])
        adjusted = stats.holm_adjust([r[3] for r in raw])
        pair_rows += [(alpha, methods[i], methods[j], *r, p)
                      for i, j, r, p in zip(first.tolist(), second.tolist(), raw, adjusted)]
    return methods, rank_rows, pair_rows


def _pareto_rows(summaries: Sequence[metrics.RunSummary]) -> list:
    """Each dataset's Pareto front over (earliness, accuracy) across its
    (method, alpha) summaries."""
    rows = []
    for dataset, group in itertools.groupby(summaries, key=attrgetter("dataset")):
        group = list(group)
        on_front = metrics.pareto_front([(s.earliness, s.accuracy) for s in group])
        rows += [(dataset, s.method, s.alpha, s.earliness, s.accuracy, int(flag))
                 for s, flag in zip(group, on_front)]
    return rows


def write_reports(bundle: ReportBundle, out_dir: str, emit_svg: bool = False) -> List[str]:
    """Write timelines.json, records.csv, the summaries/ranks/pairwise/pareto
    CSVs (plus skipped.csv if any dataset was skipped) and an optional rank
    chart, and return their paths in that order; byte-deterministic for a
    given bundle. Each file is one (name, lines) entry: the records' lines
    are their own row text, chained after the header, and each CSV's lines
    are formatted as they are written. An output directory that cannot be
    made or written is a ConfigError naming it."""
    methods, rank_rows, pair_rows = _rank_and_pair_rows(bundle.summaries)
    timelines = {name: {"timestamps": list(tl.timestamps), "series_length": tl.series_length}
                 for name, tl in sorted(bundle.timelines.items())}
    entries = [
        ("timelines.json", [json.dumps(timelines, indent=2, sort_keys=True) + "\n"]),
        ("records.csv", itertools.chain([",".join(RECORD_FIELDS) + "\n"], bundle.records.text)),
        ("summaries.csv", _csv_lines(SUMMARY_FIELDS, list(map(attrgetter(*SUMMARY_FIELDS), bundle.summaries)))),
        ("ranks.csv", _csv_lines(("alpha", "method", "mean_rank", "ci_low", "ci_high"), rank_rows)),
        ("pairwise.csv", _csv_lines(("alpha", "method_a", "method_b", "wins", "ties", "losses", "p_value",
                                     "p_holm"), pair_rows)),
        ("pareto.csv", _csv_lines(("dataset", "method", "alpha", "earliness", "accuracy", "on_front"),
                                  _pareto_rows(bundle.summaries))),
    ]
    if bundle.skipped:
        entries.append(("skipped.csv", _csv_lines(("dataset", "reason"), sorted(bundle.skipped))))
    if emit_svg:
        entries.append(("ranks.svg", _ranks_svg(rank_rows, methods)))
    with writing_to("reports", out_dir):
        os.makedirs(out_dir, exist_ok=True)
        for name, lines in entries:
            # "\n" line ends on any platform, so every file is byte-deterministic.
            with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
    return [os.path.join(out_dir, name) for name, _ in entries]


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
    group, each over its contiguous slice. Two rows with one (dataset,
    method, alpha value, series_id) key are a DataError naming the key.
    Then each dataset's groups, one block, are checked (_check_same_series,
    _check_shared_fields) and summarised (metrics.summarize_groups) in table
    order; a dataset may lack a whole group."""
    dataset, method = _str_order(records.dataset), _str_order(records.method)
    series = _str_order(records.series_id)
    order = np.lexsort((series, records.alpha, method, dataset))
    table = records if np.array_equal(order, np.arange(len(order))) else records.take(order)
    dataset, method, series, alpha = dataset[order], method[order], series[order], table.alpha
    new_group = np.ones(len(table), dtype=bool)
    new_group[1:] = (dataset[1:] != dataset[:-1]) | (method[1:] != method[:-1]) | (alpha[1:] != alpha[:-1])
    repeated = np.flatnonzero(~new_group[1:] & (series[1:] == series[:-1]))
    if len(repeated):
        i = int(repeated[0])
        key = (table.dataset[i], table.method[i], float(table.alpha[i]), table.series_id[i])
        raise DataError(f"records repeat the (dataset, method, alpha, series_id) key {key!r}")
    bounds = np.append(np.flatnonzero(new_group), len(table))
    firsts = np.flatnonzero(np.diff(dataset[bounds[:-1]], prepend=-1)).tolist()  # each dataset's first group
    summaries = []
    for lo, hi in zip(firsts, firsts[1:] + [len(bounds) - 1]):
        block = bounds[lo : hi + 1]
        _check_same_series(table, series, block)
        _check_shared_fields(table, block)
        summaries += metrics.summarize_groups(table, block, timelines[table.dataset[block[0]]])
    return ReportBundle(table, summaries, timelines)


def _check_same_series(table: RecordTable, series: np.ndarray, bounds: np.ndarray) -> None:
    """Every (method, alpha) group of one dataset holds the series ids of its
    first group, else a DataError names a group and one id that it lacks and
    another group holds. Group g is the rows bounds[g]:bounds[g + 1] of the
    sorted table, and series holds the rows' series ranks, sorted within
    each group: one (groups, size) comparison with the first group."""
    sizes = np.diff(bounds)
    block = series[bounds[0] : bounds[-1]]
    if (sizes == sizes[0]).all() and (block.reshape(len(sizes), sizes[0]) == block[: sizes[0]]).all():
        return
    ids = [set(table.series_id[lo:hi].tolist()) for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    g = next(g for g in range(1, len(ids)) if ids[g] != ids[0])
    short, full = (0, g) if ids[g] - ids[0] else (g, 0)
    key = [(table.dataset[i], table.method[i], float(table.alpha[i])) for i in bounds[[short, full]].tolist()]
    raise DataError(f"records of (dataset, method, alpha) {key[0]!r} lack series_id "
                    f"{min(ids[full] - ids[short])!r}, which {key[1]!r} holds")


def _check_shared_fields(table: RecordTable, bounds: np.ndarray) -> None:
    """`run` writes one true label per (dataset, series) and one oracle time
    and cost per (dataset, alpha, series). One dataset's groups are the rows
    bounds[g]:bounds[g + 1] of the sorted table, each holding the same series
    in the same order: a group that gives a series another true label than
    the first group does, or another oracle field than the first group of
    its alpha does, is a DataError naming the series and both groups. One
    (groups, size) comparison per field with the reference groups."""
    groups, size = len(bounds) - 1, bounds[1] - bounds[0]
    _, first_of_alpha, alpha = np.unique(table.alpha[bounds[:-1]], return_index=True, return_inverse=True)
    for name, reference in (("true_label", np.zeros(groups, dtype=np.int64)),
                            ("oracle_time", first_of_alpha[alpha]), ("oracle_cost", first_of_alpha[alpha])):
        column = getattr(table, name)
        block = column[bounds[0] : bounds[-1]].reshape(groups, size)
        off = block != block[reference]
        if off.any():
            g, i = np.argwhere(off)[0].tolist()
            pair = (bounds[g] + i, bounds[reference[g]] + i)
            key, value = zip(*[((table.dataset[r], table.method[r], float(table.alpha[r])), column[r].item())
                               for r in pair])
            raise DataError(f"records of (dataset, method, alpha) {key[0]!r} and {key[1]!r} give series_id "
                            f"{table.series_id[pair[0]]!r} {name} {value[0]!r} and {value[1]!r}")

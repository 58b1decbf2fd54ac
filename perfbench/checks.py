"""Output checks run after each timed command, outside the timed interval.

An operation is one (dataset, method, alpha) cell. A cell fails when it is
missing from the output or any of its rows breaks a check; the caller counts
failed cells into ``failed_frac``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Set, Tuple

Cell = Tuple[str, str, float]
TOLERANCE = 1e-12


def expected_cells(datasets: Sequence[str], methods: Sequence[str],
                   alphas: Sequence[float]) -> List[Cell]:
    return [(d, m, a) for d in datasets for m in methods for a in alphas]


def check_timelines(path: str, datasets: Sequence[str], length: int) -> Tuple[Dict[str, List[int]], List[str]]:
    """Timelines of the run: strictly increasing, in [1, T], ending at T."""
    problems = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return {}, [f"timelines.json unreadable: {exc}"]
    out = {}
    for name in datasets:
        entry = doc.get(name)
        ts = entry.get("timestamps") if isinstance(entry, dict) else None
        if (not ts or entry.get("series_length") != length or ts[-1] != length or ts[0] < 1
                or any(b <= a for a, b in zip(ts, ts[1:]))):
            problems.append(f"timelines.json: bad timeline for {name}")
            continue
        out[name] = ts
    return out, problems


def check_records(path: str, cells: Sequence[Cell], series_per_cell: int,
                  timelines: Dict[str, List[int]]) -> Tuple[Set[Cell], List[str]]:
    """Failed cells of a ``records.csv`` under the standard cost model, and
    one message per kind of problem found.

    Each cell must hold exactly ``series_per_cell`` distinct series. In every
    row weighted_cost = alpha * C_m + (1 - alpha) * C_d, regret >= 0, and the
    trigger and oracle times lie on the dataset's timeline; ``asap`` halts at
    the first timestamp and ``alap`` at T."""
    wanted = set(cells)
    seen: Dict[Cell, Set[str]] = {c: set() for c in cells}
    failed: Set[Cell] = set()
    problems: Dict[str, int] = {}

    def flag(cell, what):
        failed.add(cell)
        problems[what] = problems.get(what, 0) + 1

    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        return set(cells), [f"records.csv unreadable: {exc}"]
    with fh:
        fh.readline()
        for line in fh:
            f = line.rstrip("\n").split(",")
            try:
                cell = (f[0], f[1], float(f[2]))
                t, w, c_m, c_d = int(f[6]), float(f[7]), float(f[8]), float(f[9])
                t_oracle, regret = int(f[10]), float(f[12])
            except (IndexError, ValueError):
                problems["unparsable row"] = problems.get("unparsable row", 0) + 1
                continue
            if cell not in wanted:
                problems["row outside the expected cells"] = problems.get(
                    "row outside the expected cells", 0) + 1
                continue
            if f[3] in seen[cell]:
                flag(cell, "duplicate series in a cell")
            seen[cell].add(f[3])
            alpha = cell[2]
            if abs(w - (alpha * c_m + (1.0 - alpha) * c_d)) > TOLERANCE:
                flag(cell, "weighted_cost != alpha*C_m + (1-alpha)*C_d")
            if not regret >= 0.0:
                flag(cell, "negative regret")
            ts = timelines.get(cell[0])
            if ts is None or t not in ts or t_oracle not in ts:
                flag(cell, "time off the timeline")
            elif cell[1] == "asap" and t != ts[0]:
                flag(cell, "asap not at the first timestamp")
            elif cell[1] == "alap" and t != ts[-1]:
                flag(cell, "alap not at T")
    for cell, ids in seen.items():
        if len(ids) != series_per_cell:
            flag(cell, "cell missing or with the wrong series count")
    return failed, [f"{what} ({n} rows or cells)" for what, n in sorted(problems.items())]


def check_summaries(path: str, expected_means: Dict[Cell, float]) -> Tuple[Set[Cell], List[str]]:
    """Failed summary groups: missing, or avg_cost off the generator's mean."""
    found: Dict[Cell, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()
            for line in fh:
                f = line.rstrip("\n").split(",")
                found[(f[0], f[1], float(f[2]))] = float(f[3])
    except (OSError, IndexError, ValueError) as exc:
        return set(expected_means), [f"summaries.csv unreadable: {exc}"]
    failed = {c for c, mean in expected_means.items()
              if c not in found or abs(found[c] - mean) > TOLERANCE}
    problems = [f"summaries.csv: {len(failed)} groups missing or off the generator's mean"] if failed else []
    return failed, problems


def count_rows(path: str) -> int:
    """Data rows of a CSV with a header line; -1 if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
    except OSError:
        return -1


def same_files(dir_a: str, dir_b: str, names: Sequence[str]) -> List[str]:
    """Names whose bytes differ between the two directories (or are missing)."""
    differ = []
    for name in names:
        try:
            with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
                if fa.read() != fb.read():
                    differ.append(name)
        except OSError:
            differ.append(name)
    return differ

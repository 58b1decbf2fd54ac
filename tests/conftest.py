"""Shared pytest plumbing: collects one status line per acceptance criterion
and prints them in the terminal summary so they are visible on green runs,
and writes the series text files the tests feed to `prepare` and manifests."""

import numpy as np

ACCEPTANCE_LINES = []


def write_series_text(path, labels, values):
    """Write a series text file, one ``label,v1,...,vT`` line per row with
    each value as its repr, so that it reads back bit for bit; returns path."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(",".join([str(label)] + list(map(repr, row))) + "\n"
                      for label, row in zip(np.asarray(labels).tolist(), np.asarray(values, float).tolist()))
    return path


def record_acceptance(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:02d}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append((number, line))
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)

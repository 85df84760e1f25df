"""Mutation map of `check`: which one-field edits of a golden CSV it flags.

Every field of up to 40 data rows of each golden (the first, the last and
rows spread evenly between them) is edited one at a time: an int + 1, a
float x (1 + 1e-9) and a float + 0.01. `check_output` must flag every edited
file, except for the (table, column, edit) gaps below, each of which some
edit in the goldens still passes. Each gap names the ROADMAP item that
closes it; closing one shrinks the list.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np
from test_golden import CASES, GOLDEN_DIR

from cavityqubits.check import check_output
from cavityqubits.config import QUALITY_TABLE, STEP_TABLE, TRAPPING_TABLE

TABLES = {"step": STEP_TABLE, "trapping": TRAPPING_TABLE, "quality": QUALITY_TABLE}
ROWS = 40
EDITS = {
    int: {"+1": lambda x: str(int(x) + 1)},
    float: {
        "*(1+1e-9)": lambda x: repr(float(x) * (1 + 1e-9)),
        "+0.01": lambda x: repr(float(x) + 0.01),
    },
}

GAPS = {
    # item 7: an exact path law bounds fig4's mean quality and its spread
    ("quality", "mean_quality", "*(1+1e-9)"): 7,
    ("quality", "mean_quality", "+0.01"): 7,
    ("quality", "stderr", "*(1+1e-9)"): 7,
    ("quality", "stderr", "+0.01"): 7,
    # item 10: a replay of each step; today the weights only sum within WEIGHT_TOL
    ("step", "p_n", "*(1+1e-9)"): 10,
    # item 1's tail bound on a geometric sample's variance; the mean has a
    # Chernoff bound that a small edit stays inside
    ("trapping", "a_mean_mc", "*(1+1e-9)"): 1,
    ("trapping", "a_mean_mc", "+0.01"): 1,
    ("trapping", "mc_stderr", "*(1+1e-9)"): 1,
    ("trapping", "mc_stderr", "+0.01"): 1,
}


def edited_files(path: Path):
    """(table, column, edit, text) of each one-field edit of `path`."""
    lines = path.read_text().splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names = tuple(lines[head].rstrip("\n").split(","))
    table, columns = next(
        (name, cols) for name, cols in TABLES.items() if tuple(c for c, _ in cols) == names
    )
    rows = len(lines) - head - 1
    for row in sorted(set(np.linspace(0, rows - 1, min(ROWS, rows)).round().astype(int))):
        at = head + 1 + row
        fields = lines[at].rstrip("\n").split(",")
        for j, (column, kind) in enumerate(columns):
            for edit, change in EDITS[kind].items():
                new = change(fields[j])
                if new == fields[j]:  # x (1 + 1e-9) leaves 0.0 as it is
                    continue
                line = ",".join([*fields[:j], new, *fields[j + 1:]]) + "\n"
                yield table, column, edit, "".join([*lines[:at], line, *lines[at + 1:]])


def test_check_flags_every_edit_but_the_listed_gaps(tmp_path):
    passed, tried = Counter(), Counter()
    out = tmp_path / "edited.csv"
    for name in sorted(CASES):
        for table, column, edit, text in edited_files(GOLDEN_DIR / name):
            out.write_text(text)
            tried[table, column, edit] += 1
            if not check_output(out):
                passed[table, column, edit] += 1
    assert set(tried) == {
        (table, column, edit)
        for table, columns in TABLES.items()
        for column, kind in columns
        for edit in EDITS[kind]
    }
    unlisted = {key: f"{passed[key]}/{tried[key]}" for key in passed if key not in GAPS}
    assert not unlisted, f"edits check passes, not in GAPS: {unlisted}"
    closed = set(GAPS) - set(passed)
    assert not closed, f"gaps check now flags every time; drop them from GAPS: {closed}"

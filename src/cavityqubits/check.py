"""The `check` subcommand: re-ingest an output CSV and recompute every
column it can, from its metadata and its other columns. It reads the file
once, front to back, as the CLI writes it: the metadata block, the header,
then the rows, holding one step of a step table at a time."""

from __future__ import annotations

import csv
import itertools
import math
import sys
from pathlib import Path

from . import cloning, protocol, trapping
from .config import EXPERIMENTS, QUALITY_TABLE, STEP_TABLE, TRAPPING_TABLE, read_echo

# False-alarm probability of `check`'s bound on a fig3 row's a_mean_mc,
# split evenly between the two tails.
MC_FALSE_ALARM = 1e-6


def check_output(path: Path) -> list[str]:
    """Recompute whatever is recomputable in an output CSV; returns a list
    of problems (empty = file is consistent), in the order the file holds
    what they are about. An unreadable file, a missing table and rows that
    do not parse are problems too, never exceptions."""
    try:
        with path.open() as file:
            return _check(file)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        return [f"cannot read: {exc}"]


def _check(file) -> list[str]:
    """`check_output` of an open file."""
    lines = (line for line in file if line.strip())
    metadata: dict[str, str] = {}
    line = next(lines, "")
    while line.startswith("#"):
        key, _, value = line.lstrip("# ").partition("=")
        metadata[key.strip()] = value.strip()
        line = next(lines, "")
    rows = csv.reader(itertools.chain([line], lines))
    header = next(rows, [])
    if not metadata and not header:
        return ["empty file"]
    config, problems = read_echo(metadata)
    if problems:
        return [f"metadata: {problem}" for problem in problems]
    table = EXPERIMENTS[config.experiment].table
    # what the run adds to the config echo: not config keys
    added = {STEP_TABLE: ("terminal_reason", "transferred_total"), QUALITY_TABLE: ("resolved_tau",)}
    for key in added.get(table, ()):
        if key not in metadata:
            return [f"metadata: {key}: missing"]
    try:
        configured = config.initial_weights()
        if table is STEP_TABLE:  # the run's count of transfers
            transferred_total = int(metadata["transferred_total"])
        elif table is QUALITY_TABLE:  # the fixed tau every run took
            initial = protocol.WeightedEnsemble.from_weights(configured)
            resolved_tau = repr(float(config.resolved_tau(initial)))
    except ValueError as exc:
        return [f"metadata: {exc}"]
    if table is QUALITY_TABLE and (echoed := metadata["resolved_tau"]) != resolved_tau:
        return [f"metadata: resolved_tau: {echoed!r} != recomputed {resolved_tau}"]
    n_max, runs, cutoffs = config.distribution.max_photon_number(), config.runs, config.cutoffs
    if header != [name for name, _ in table]:
        return [f"unexpected header {header}" if header else "no header row"]
    if (first := next(rows, None)) is None:
        return ["no data rows"]
    rows = itertools.chain([first], rows)

    def parsed(rows):
        """(index, fields by the table's column types) of each row that parses."""
        for i, row in enumerate(rows):
            if row and row[0].startswith("#"):
                problems.append(f"row {i}: a '#' line after the header")
            elif len(row) != len(table):
                problems.append(f"row {i}: {len(row)} fields, expected {len(table)}")
            else:
                try:  # a ValueError can only come from the field types
                    yield i, [kind(field) for (_, kind), field in zip(table, row)]
                except ValueError as exc:
                    problems.append(f"row {i}: {exc}")

    if table is TRAPPING_TABLE:
        # the sample mean of `trials` geometric escape counts: beyond the
        # Chernoff bound of either tail with probability <= MC_FALSE_ALARM / 2.
        # The closed form ignores the truncation to theta > 0, of mass p0, so
        # the escape probability lies in [(p - p0) / (1 - p0), p / (1 - p0)]
        # for the closed form's p; a row is flagged only beyond the bound of
        # every mean in that range, that is of the one nearest to a_mean_mc.
        tail_exponent = math.log(2.0 / MC_FALSE_ALARM)
        rows = list(rows)  # one per (m_rabi, sigma_rel) cell
        cells = config.trapping_grid()
        # the writer's order, listed only for a file of as many rows
        grid = list(cells) if len(rows) == len(cells) else []
        good = 0
        for i, (m_rabi, sigma_rel, closed, mc, stderr) in parsed(rows):
            good += 1
            if grid and (cell := (m_rabi, sigma_rel)) != grid[i]:
                problems.append(f"row {i}: (m_rabi, sigma_rel) {cell} != metadata {grid[i]}")
            # escape counts are ints >= 1 with mean a_mean_mc, so their standard
            # error is at most a_mean_mc - 1, all the excess in one count, up to
            # a rounding of 1e-12 a_mean_mc; one trial has none (inf)
            if config.trials == 1:
                ok, want = stderr == math.inf, "inf"
            else:  # a NaN fails too
                ok, want = 0.0 <= stderr <= mc - 1.0 + 1e-12 * mc, f"in [0, {mc!r} - 1]"
            if not ok:
                problems.append(f"row {i}: mc_stderr {stderr!r} is not {want}")
            try:
                expected = trapping.mean_atoms_rel(m_rabi, sigma_rel)
            except (ValueError, ArithmeticError) as exc:
                problems.append(f"row {i}: cannot recompute a_mean_closed: {exc}")
                continue
            if not math.isclose(closed, expected, rel_tol=1e-12):
                problems.append(f"row {i}: a_mean_closed {closed!r} != recomputed {expected!r}")
                continue
            p = 1.0 / expected
            p0 = math.erfc(1.0 / (sigma_rel * math.sqrt(2.0))) / 2 if sigma_rel else 0.0
            lo, hi = expected * (1.0 - p0), (1.0 - p0) / (p - p0) if p > p0 else math.inf
            nearest = min(mc, hi) if mc > lo else lo  # lo for a NaN
            if not config.trials * trapping.escape_mean_rate(nearest, mc) <= tail_exponent:
                problems.append(
                    f"row {i}: a_mean_mc {mc!r} is outside the {MC_FALSE_ALARM:g} tail bound "
                    f"of {config.trials} trials around a_mean_closed {expected!r}"
                )
        if good == len(rows) != len(cells):
            problems.append(f"{len(rows)} rows, but metadata lists {len(cells)} cells")
    elif table is QUALITY_TABLE:
        # the largest sample standard deviation of `runs` values in [0, 1.5],
        # half at each end, over sqrt(runs), or over sqrt(the largest float)
        stderr_max = 0.75 / math.sqrt(min(runs - 1, sys.float_info.max)) if runs > 1 else 0.0
        rows = list(rows)  # one per cutoff
        good = 0
        for i, (cutoff, mean_quality, stderr, row_n_max) in parsed(rows):
            good += 1
            if len(rows) == len(cutoffs) and cutoff != cutoffs[i]:
                problems.append(f"row {i}: cutoff {cutoff} != metadata cutoff {cutoffs[i]}")
            if row_n_max != n_max:
                problems.append(f"row {i}: n_max {row_n_max} != distribution maximum {n_max}")
            if not 0.0 <= mean_quality <= 1.5:
                problems.append(f"row {i}: mean_quality {mean_quality!r} out of range")
            if not 0.0 <= stderr <= stderr_max:  # a NaN fails too
                problems.append(
                    f"row {i}: stderr {stderr!r} outside [0, {stderr_max!r}] for {runs} runs"
                )
        if good == len(rows) != len(cutoffs):
            problems.append(f"{len(rows)} rows, but metadata lists {len(cutoffs)} cutoffs")
    else:  # step table, one group of consecutive same-step rows at a time
        step0 = "step-0 weights differ from the configured distribution"
        groups = itertools.groupby((fields for _, fields in parsed(rows)), lambda f: f[0])
        # one transferred count per step: 0 at step 0, then growing by 0 or 1
        # per atom, with no weight left on a branch it has passed
        m = None  # the step's transferred count, if it has exactly one
        last, ordered = -1, True  # the index of the last group; steps 0, 1, ... so far
        streak, known, stop = 0, None, None  # ground steps; the last known count; the stop
        for last, (step, group) in enumerate(groups):
            _, ns, ps, f_atoms, counts = zip(*group)
            if last == 0 and (step != 0 or dict(zip(ns, ps)) != configured):
                problems.append(step0)
            ordered = ordered and step == last
            counts = set(counts)
            previous, m = m, min(counts) if len(counts) == 1 else None
            if m is None:
                problems.append(f"step {step}: {len(counts)} transferred values, expected 1")
            elif step == 0 and m != 0:
                problems.append(f"step 0: transferred {m} != 0")
            elif previous is not None and m - previous not in (0, 1):
                problems.append(f"step {step}: transferred goes from {previous} to {m}")
            streak = 0 if last == 0 or m not in (None, known) else streak + 1
            known = known if m is None else m
            stop = last if stop is None and streak == config.cutoff else stop  # first reached
            if ns != tuple(configured):
                problems.append(f"step {step}: photon numbers differ from the distribution's")
                continue
            total = sum(ps)
            if not abs(total - 1.0) <= cloning.WEIGHT_TOL:  # a NaN total fails too
                problems.append(f"step {step}: weights sum to {total!r}")
                continue
            problems.extend(
                f"step {step}: p_n {p!r} < 0 at n = {n}" for n, p in zip(ns, ps) if p < 0
            )
            low, p_low = next((n, p) for n, p in zip(ns, ps) if p != 0)  # the fewest clones
            if m is not None and low < m:
                problems.append(f"step {step}: p_n {p_low!r} at n = {low} < transferred {m}")
            try:
                expected = float(cloning.atom_fidelity(ns, ps, config.n_originals))
            except ValueError as exc:
                problems.append(f"step {step}: cannot recompute F_atom: {exc}")
                continue
            # every row of the step carries it; the first one off is named
            off = [f for f in f_atoms if not math.isclose(f, expected, rel_tol=1e-12)]
            if off:
                problems.append(f"step {step}: F_atom {off[0]!r} != recomputed {expected!r}")
        if last < 0:
            problems.append(step0)
        if not ordered:
            problems.append(f"step numbers are not 0..{last}")
        if m is not None and m != transferred_total:
            problems.append(
                f"transferred {m} at the last step != transferred_total {transferred_total}"
            )
        reason, cutoff, budget = metadata["terminal_reason"], config.cutoff, config.atom_budget
        alive = [n for n, p in zip(ns, ps) if p > 0] if last >= 0 else None
        ok, want = {  # what each stop leaves in the table
            "cutoff-reached": (stop == last, f"its first {cutoff} grounds in a row at the end"),
            "atom-budget-exhausted": (last == budget, f"budget + 1 = {budget + 1} steps"),
            "vacuum-certain": (alive == [m], "a vacuum-certain last posterior"),
        }.get(reason, (False, "to be a stop reason"))
        if not ok:
            problems.append(f"terminal_reason {reason} needs {want}")
    return problems

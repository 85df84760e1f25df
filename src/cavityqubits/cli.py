"""Experiment harness: named reproductions of the three figure datasets.

Each experiment in `config.EXPERIMENTS` is a subcommand (fig2, fig3, fig4,
custom) with the flags listed there; `validate` checks a configuration
without running it, and `check` re-ingests an output CSV and confirms its
closed-form columns (`check.check_output`).

Outputs are CSV with a `# key = value` metadata block (full config echo,
seed, package version, RNG identity). No timestamps: identical
(config, seed) pairs produce bit-identical files. Default output
directory comes from $CAVITYQUBITS_OUTDIR.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__, cloning, protocol, trapping
from .check import check_output
from .config import (
    EXPERIMENTS,
    HALF_RABI,
    JITTERED,
    KEYS,
    OUTDIR_ENV,
    QUALITY_TABLE,
    TIMED_POLICIES,
    TRAPPING_TABLE,
    DistributionSpec,
    ExperimentConfig,
    parse_config_file,
    parse_float_list,
    split_rng,
    value_problem,
)

DEFAULT_SIGMA_REL_GRID = tuple(parse_float_list("0.01:0.20:0.01"))

# Most (cutoff, run) pairs one fig4 call may grade: the states `run_batch`
# returns for cutoffs x runs.
MAX_STREAMS = 100_000

# Most weights in those states (cutoffs x runs x photon numbers 0..n_max),
# about 3x the script default (330000): 8 MB of floats.
MAX_STREAM_WEIGHTS = 1_000_000

# Most work one fig4 call may take, in weight updates: runs x the atoms a run
# can pass, min(atom_budget, (n_max + 1) x the largest cutoff), x photon
# numbers 0..n_max, plus QUALITY_ATOM_UNITS per lockstep atom. On a 2-vCPU
# host a unit takes about 0.13 us at 2 or 3 photon numbers, the costliest per
# unit (0.02 us at 101), and a lockstep atom about 50 us however few streams
# are left, so the bound is about 5 s. It is about 10x the script default
# (330 x (1000 x 11 + 400) = 3.8e6).
MAX_QUALITY_WORK = 40_000_000
QUALITY_ATOM_UNITS = 400

# Most rows one fig2 or custom table may hold, (atoms + 1) x photon numbers:
# the default budget's table at photon numbers 0..1000. A run keeps its
# weights in one stack and the CSV streams to its file: at binomial:1000
# that measured 51 and 99 MB peak RSS at 1000 and 4000 atoms, and `check`
# reads either file in 30 MB.
MAX_STEP_ROWS = 10_011_001

# Most atoms one fig3 grid may send, as `trials` x the closed-form mean
# escape counts of its cells (1/sigma_rel^2 at small jitter): about 8x the
# script default (20000 x 635 = 1.3e7), and far inside int64.
MAX_TRAPPING_ATOMS = 100_000_000

# Most Monte Carlo proposals one fig3 grid may draw, per cell trials x its
# mean escape count x `thinning`'s alpha + beta, plus TRAPPING_CELL_PROPOSALS:
# 22x the script default (2.11e6 + 60 x 2000). On one worker of a 2-vCPU host
# a proposal takes 40 to 80 ns and a one-trial cell 80 us: the bound is 2-4 s.
MAX_TRAPPING_PROPOSALS = 50_000_000
TRAPPING_CELL_PROPOSALS = 2000

# Largest Rabi phase sqrt(n)*gamma*tau a run may reach. Below 2^40 adjacent
# floats are at most 2^-12 apart, small next to the period pi of sin^2;
# beyond about 2^52*pi they are more than a period apart, and every sin^2
# is rounding noise.
MAX_PHASE = 2**40

# numpy's normal sampler returns no draw beyond about 12.3 standard
# deviations from its mean (its ziggurat tail takes the log of a 53-bit
# uniform); `validate` bounds the Rabi phase out to this many.
NORMAL_DRAW_SPAN = 16.0

# subcommand -> experiment
COMMANDS = {e.command: name for name, e in EXPERIMENTS.items()}


@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error" | "warning"
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.level}: {self.field}: {self.message}"


def _trapping_work(config: ExperimentConfig, sigma_rels) -> tuple[float, float]:
    """Atoms the fig3 grid is expected to send and Monte Carlo proposals it is
    expected to draw, as MAX_TRAPPING_ATOMS and MAX_TRAPPING_PROPOSALS price
    them; a grid of more cells than the proposal bound pays for is not summed."""
    calls = len(config.rabi_cycles_values) * len(sigma_rels) * TRAPPING_CELL_PROPOSALS
    if calls > MAX_TRAPPING_PROPOSALS:
        return 0.0, float(calls)
    n = config.trap_photon_number
    specs = [trapping.TrapSpec(n, m, s) for m in config.rabi_cycles_values for s in sigma_rels]
    try:
        means = [trapping.mean_atoms_rel(spec.rabi_cycles, spec.sigma_rel) for spec in specs]
    except ZeroDivisionError:  # 1 - exp(-x) rounds to 0 for a tiny jitter
        return math.inf, math.inf
    proposals = math.fsum(mu * sum(trapping.thinning(sp)[3:5]) for mu, sp in zip(means, specs))
    return config.trials * math.fsum(means), calls + config.trials * proposals


def _largest_phase(config: ExperimentConfig, table, n: int) -> float:
    """The largest Rabi phase sqrt(n)*gamma*tau a run of `config` can reach,
    n being its largest photon number: tau is at most pi/gamma (the longest
    optimal or half-Rabi time), or a draw around the configured tau or
    fig3's dwell time tau0 = 2*pi*m/(gamma*sqrt(n)) within
    `NORMAL_DRAW_SPAN` spreads of its jitter."""
    rabi, longest = math.sqrt(n) * config.gamma, math.pi / config.gamma
    center, jitter = longest, 0.0
    if table is TRAPPING_TABLE:
        # capped below where an int's float conversion raises: 2*pi*m is then inf
        m = min(max(config.rabi_cycles_values), 2**1023)
        center = 2 * math.pi * m / rabi
        jitter = max(config.sigma_rel_values or DEFAULT_SIGMA_REL_GRID)
    elif config.policy in TIMED_POLICIES:
        center = config.tau if config.tau is not None else longest
        jitter = config.sigma_rel if config.policy == JITTERED else 0.0
    return rabi * max(longest, center * (1 + NORMAL_DRAW_SPAN * jitter))


def validate(config: ExperimentConfig) -> list[Diagnostic]:
    """Pure configuration check; never runs anything. Each key's own range
    is `config.value_problem`'s; the rules here involve more than one key."""
    problems = ((key, value_problem(key, getattr(config, key))) for key in KEYS)
    diags = [Diagnostic("error", key, problem) for key, problem in problems if problem]
    invalid = {d.field for d in diags}  # the keys whose own value is wrong

    def error(field: str, msg: str) -> None:
        diags.append(Diagnostic("error", field, msg))

    def warn(field: str, msg: str) -> None:
        diags.append(Diagnostic("warning", field, msg))

    experiment = EXPERIMENTS.get(config.experiment)
    table = experiment.table if experiment else None
    try:
        weights = config.initial_weights()
        # the runs' own ensemble checks, with their tolerance cloning.WEIGHT_TOL
        protocol.WeightedEnsemble.from_weights(weights)
    except ValueError as exc:
        error("distribution", str(exc))
        weights = {}
    occupied = [n for n, p in weights.items() if p > 0]
    if occupied and table is not TRAPPING_TABLE:
        n_min = min(occupied)
        if n_min < 1:
            error("distribution", "clone-fidelity tracking needs every branch at n >= 1")
        elif "n_originals" not in invalid and config.n_originals > n_min:
            error(
                "n_originals",
                f"{config.n_originals} exceeds the smallest occupied photon number {n_min}",
            )
    if experiment and "policy" not in invalid and config.policy not in experiment.policies:
        error(
            "policy",
            f"{config.experiment} runs only {', '.join(experiment.policies)}, "
            f"got {config.policy!r}",
        )
    elif config.policy == HALF_RABI and len(occupied) > 1:
        error(
            "policy",
            f"{config.policy} needs a single known photon number, the distribution has "
            f"{len(occupied)} occupied branches",
        )

    # one bound covers every overflow of the Rabi phase, and its resolution;
    # it and the prices of the work are computed once the config has no error
    if diags:
        return diags
    n = config.trap_photon_number if table is TRAPPING_TABLE else max(occupied)
    phase = _largest_phase(config, table, n)
    if phase > MAX_PHASE:
        error(
            "Rabi phase",
            f"sqrt({n})*gamma*tau can reach {phase:.3g}, above the maximum 2^40, "
            "where adjacent floats are 2^-12 apart",
        )
        return diags
    if table is TRAPPING_TABLE:
        # the phase bound keeps each cycle count and jitter squarable as a float
        sigma_rels = config.sigma_rel_values or DEFAULT_SIGMA_REL_GRID
        atoms, proposals = _trapping_work(config, sigma_rels)
        if atoms > MAX_TRAPPING_ATOMS:
            error(
                "trials",
                f"{config.trials} trials x the grid's mean escape counts = {atoms:.3g} "
                f"atoms exceeds the maximum {MAX_TRAPPING_ATOMS:.3g}",
            )
        elif proposals > MAX_TRAPPING_PROPOSALS:
            error(
                "trials",
                f"{config.trials} trials x the grid's mean escape counts x alpha + beta, plus "
                f"{TRAPPING_CELL_PROPOSALS} per cell, = {proposals:.3g} Monte Carlo proposals "
                f"exceeds the maximum {MAX_TRAPPING_PROPOSALS:.3g}",
            )
        return diags
    # each excitation ends a ground streak, so a run ends within n_max + 1 streaks
    branches = max(weights) + 1
    if table is QUALITY_TABLE:
        streams = len(config.cutoffs) * config.runs
        atoms = min(config.atom_budget, branches * max(config.cutoffs))
        work = atoms * (config.runs * branches + QUALITY_ATOM_UNITS)
        if streams > MAX_STREAMS:
            error(
                "runs",
                f"{len(config.cutoffs)} cutoffs x {config.runs} runs = {streams} streams "
                f"exceeds the maximum {MAX_STREAMS}",
            )
        elif streams * branches > MAX_STREAM_WEIGHTS:
            error(
                "runs",
                f"{streams} streams x {branches} photon numbers = {streams * branches} "
                f"weights exceeds the maximum {MAX_STREAM_WEIGHTS}",
            )
        elif work > MAX_QUALITY_WORK:
            error(
                "atom_budget",
                f"{config.runs} runs x {atoms} atoms x {branches} photon numbers, plus "
                f"{QUALITY_ATOM_UNITS} per atom, = {work} weight updates exceeds the maximum "
                f"{MAX_QUALITY_WORK}",
            )
    else:
        steps = min(config.atom_budget, branches * config.cutoff) + 1
        rows = steps * len(weights)
        if rows > MAX_STEP_ROWS:
            error(
                "atom_budget",
                f"{steps} steps x {len(weights)} photon numbers = {rows} rows exceeds the "
                f"maximum {MAX_STEP_ROWS}",
            )

    # a fixed tau that puts the top branch's phase at pi or beyond can hit a
    # trapping point of some occupied branch and stall the run
    if config.policy in TIMED_POLICIES and config.tau:
        top = math.sqrt(n) * config.gamma * config.tau
        if top >= math.pi:
            warn(
                "tau",
                f"tau = {config.tau!r} puts sqrt({n})*gamma*tau at {top!r} >= pi; "
                "a trapping point is reachable for some branch",
            )
    return diags


# --- output ---------------------------------------------------------------


def _output_path(config: ExperimentConfig) -> Path:
    if config.out is not None:
        return Path(config.out)
    base = Path(os.environ.get(OUTDIR_ENV, "."))
    return base / f"{config.experiment}.csv"


def _write_csv(
    config: ExperimentConfig, metadata: list[tuple[str, str]], rows: Iterable[tuple]
) -> Path:
    """Write the metadata block, the experiment's header and `rows` straight
    to the file, one row at a time, each by its table's column types: a
    float as its repr, an int as its digits. Returns the path."""
    table = EXPERIMENTS[config.experiment].table
    template = ",".join("%r" if kind is float else "%s" for _, kind in table) + "\n"
    path = _output_path(config)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.writelines(f"# {key} = {value}\n" for key, value in metadata)
            out.write(",".join(name for name, _ in table) + "\n")
            out.writelines(template % row for row in rows)
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc}")
    return path


# --- experiment runners -----------------------------------------------------


def _run_weights_evolution(config: ExperimentConfig) -> Path:
    rng = split_rng(config.seed)
    if config.policy in TIMED_POLICIES:  # echo the tau the run uses
        initial = protocol.WeightedEnsemble.from_weights(config.initial_weights())
        config = replace(config, tau=config.resolved_tau(initial))
    trace = protocol.run(config, rng)
    ns = trace.final.photon_numbers.tolist()
    f_atoms = cloning.atom_fidelity(ns, trace.weights, config.n_originals).tolist()
    steps = enumerate(zip(trace.weights, f_atoms, trace.transferred.tolist()))
    # one stack row at a time: the prior's, then each atom's posterior's
    rows = ((step, n, p, f, m) for step, (w, f, m) in steps for n, p in zip(ns, w.tolist()))
    metadata = config.metadata(__version__)
    metadata.append(("terminal_reason", trace.reason.value))
    metadata.append(("transferred_total", str(trace.final.transferred)))
    return _write_csv(config, metadata, rows)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS and Windows
        return os.cpu_count() or 1


def _parallel_map(fn, jobs: list[tuple]) -> list:
    """`[fn(*job) for job in jobs]`, run by one worker per usable CPU (never
    more workers than jobs): the calling thread and plain threads, which take
    the jobs in order from one shared queue. With one worker that is the
    plain loop on the calling thread. Only calls that release the
    interpreter lock gain from this. Once a call raises, no worker starts
    another job, and its exception is raised here after every thread has
    ended."""
    queue = iter(range(len(jobs)))
    results: list = [None] * len(jobs)
    errors: list[BaseException] = []
    lock = threading.Lock()

    def work() -> None:
        try:
            while True:
                with lock:
                    i = None if errors else next(queue, None)
                if i is None:
                    return
                results[i] = fn(*jobs[i])
        except BaseException as exc:  # re-raised on the calling thread
            with lock:
                errors.append(exc)

    workers = min(_usable_cpus(), len(jobs))
    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    try:
        for thread in threads:
            thread.start()
        work()
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[0]
    return results


def _run_trapping_curves(config: ExperimentConfig) -> Path:
    """One Monte Carlo estimate per (m_rabi, sigma_rel) cell; cell i draws
    from `split_rng(seed, i)`, so no cell's numbers depend on which thread
    runs it or when."""
    sigma_rels = config.sigma_rel_values or DEFAULT_SIGMA_REL_GRID
    config = replace(config, sigma_rel_values=tuple(sigma_rels))
    cells = [(m, sigma_rel) for m in config.rabi_cycles_values for sigma_rel in sigma_rels]
    jobs = [
        (
            trapping.TrapSpec(
                photon_number=config.trap_photon_number,
                rabi_cycles=m_rabi,
                gamma=config.gamma,
                sigma_rel=sigma_rel,
            ),
            config.trials,
            split_rng(config.seed, cell),
        )
        for cell, (m_rabi, sigma_rel) in enumerate(cells)
    ]
    closed = [trapping.mean_atoms_rel(m_rabi, sigma_rel) for m_rabi, sigma_rel in cells]
    estimates = _parallel_map(trapping.monte_carlo_escape, jobs)
    rows = [
        (m_rabi, sigma_rel, mean, estimate.mean, estimate.stderr)
        for (m_rabi, sigma_rel), mean, estimate in zip(cells, closed, estimates)
    ]
    metadata = config.metadata(__version__)
    metadata.append(("stream_layout", "(seed, cell), thinned candidates in blocks"))
    return _write_csv(config, metadata, rows)


def _run_quality_cutoff(config: ExperimentConfig) -> Path:
    """Average clone quality at each cutoff, over `runs` repetitions.

    Every atom takes `config.tau_policy`'s fixed tau: the configured one,
    or the optimum for the initial mixture. Run r draws from
    `split_rng(seed, r)`; one `run_batch` call steps every run in lockstep
    and returns its state at each distinct cutoff, which is graded here.
    Runs that stop before `n_originals` transfers have no clones; they count
    as quality 0.
    """
    initial = protocol.WeightedEnsemble.from_weights(config.initial_weights())
    policy = config.tau_policy(initial)
    ns = initial.photon_numbers
    runs = config.runs
    levels = np.array(sorted(set(config.cutoffs)))
    final = protocol.run_batch(
        initial, policy, config.gamma, levels, config.atom_budget,
        [split_rng(config.seed, r) for r in range(runs)],
    )

    # F_atom of the whole stack, and each state's quality; a state short of
    # n_orig transfers is graded as if it had them, then counted as 0
    n_orig, m = config.n_originals, final.transferred
    f_atom = cloning.atom_fidelity(ns, final.weights, n_orig)
    qualities = np.where(m >= n_orig, cloning.quality(f_atom, n_orig, np.maximum(m, n_orig)), 0.0)

    # every requested cutoff at once, graded along the runs axis: each row
    # reduces in the same order as a 1-d array of its runs would
    q = qualities[np.searchsorted(levels, config.cutoffs)]
    means = q.mean(axis=1).tolist()
    stderrs = (q.std(axis=1, ddof=1) / math.sqrt(runs)).tolist() if runs > 1 else [0.0] * len(q)
    n_max = config.distribution.max_photon_number()
    rows = [(c, mean, se, n_max) for c, mean, se in zip(config.cutoffs, means, stderrs)]
    metadata = config.metadata(__version__)
    metadata.append(("resolved_tau", repr(float(policy.tau))))
    metadata.append(("stream_layout", "(seed, run)"))
    return _write_csv(config, metadata, rows)


def run_experiment(config: ExperimentConfig) -> Path:
    """Validate, run, and write the experiment's CSV; returns the path."""
    diags = validate(config)
    errors = [d for d in diags if d.level == "error"]
    for d in diags:
        print(d, file=sys.stderr)
    if errors:
        raise SystemExit(f"invalid configuration ({len(errors)} error(s))")
    table = EXPERIMENTS[config.experiment].table
    if table is TRAPPING_TABLE:
        return _run_trapping_curves(config)
    if table is QUALITY_TABLE:
        return _run_quality_cutoff(config)
    return _run_weights_evolution(config)


# --- argument parsing -------------------------------------------------------


def _flag_type(parse):
    """`parse` for argparse, which then shows the message of its ValueError."""

    def flag_type(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return flag_type


def _add_subcommand(subs, command: str, help: str, keys) -> None:
    sub = subs.add_parser(command, help=help)
    sub.add_argument("--config", help="key = value config file; flags override it")
    sub.add_argument("--nmax", type=int, help="shorthand for --dist binomial:NMAX")
    for key in [*(k for k, meta in KEYS.items() if meta["common"]), *keys]:
        meta = KEYS[key]
        parse = meta["parse"] if isinstance(meta["parse"], type) else _flag_type(meta["parse"])
        sub.add_argument(
            meta["flag"], dest=key, type=parse, choices=meta["choices"], help=meta["help"]
        )


# one parser per process: parse_args never changes it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityqubits",
        description="Cavity-to-atom qubit transfer experiments (CSV output).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for experiment in EXPERIMENTS.values():
        _add_subcommand(subs, experiment.command, experiment.help, experiment.keys)
    # validate takes the flags of the default experiment and may name another
    default = EXPERIMENTS[ExperimentConfig.experiment]
    _add_subcommand(
        subs, "validate", "check a configuration without running", ("experiment", *default.keys)
    )
    chk = subs.add_parser("check", help="verify closed-form columns of an output CSV")
    chk.add_argument("paths", nargs="+", help="CSV files produced by this tool")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        try:
            items = parse_config_file(args.config).items()
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            raise SystemExit(f"invalid configuration: {exc}")
        for key, raw in items:
            if key not in KEYS:
                raise SystemExit(f"invalid configuration: unknown key {key!r} in {args.config}")
            try:
                values[key] = KEYS[key]["parse"](raw)
            except ValueError as exc:
                raise SystemExit(f"invalid configuration: {key}: {exc}")
    values.update((k, v) for k, v in vars(args).items() if k in KEYS and v is not None)
    if args.nmax is not None:
        try:
            values["distribution"] = DistributionSpec("binomial", n_max=args.nmax)
        except ValueError as exc:
            raise SystemExit(f"invalid configuration: nmax: {exc}")
    if args.command in COMMANDS:
        values["experiment"] = COMMANDS[args.command]
    return ExperimentConfig(**values)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        status = 0
        for p in args.paths:
            problems = check_output(Path(p))
            if problems:
                status = 1
                for problem in problems:
                    print(f"{p}: {problem}", file=sys.stderr)
            else:
                print(f"{p}: OK")
        return status
    config = _config_from_args(args)
    if args.command == "validate":
        diags = validate(config)
        for d in diags:
            print(d)
        if any(d.level == "error" for d in diags):
            return 1
        print("ok")
        return 0
    path = run_experiment(config)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

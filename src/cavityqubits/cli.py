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
    OPTIMAL_EACH_STEP,
    OUTDIR_ENV,
    QUALITY_TABLE,
    TIMED_POLICIES,
    TRAPPING_TABLE,
    DistributionSpec,
    ExperimentConfig,
    parse_config_file,
    split_rng,
    value_problem,
)

# (seconds, bytes) of each unit of work: what a run and the `check` of its
# output take per unit, and what the unit holds at the run's peak. Measured
# on a 2-vCPU x86 host (Python 3.11.7, numpy 2.4.6) in fresh processes, the
# runner on one worker then `check_output`: best of 3 by perf_counter, and
# tracemalloc's peak. Each is the measured figure below, rounded up.
COST = {
    # fig4: 30000 runs; binomial:2 trapped, 1 to 10^4 runs; 1 to 3000 runs x 1 to 10^5 cutoffs
    "run": (35e-6, 1800),  # its generator and lockstep row: 32 us, 1.4 KB
    "lockstep atom": (20e-6, 0),  # however few runs are live: 15 us
    "run atom": (1e-7, 0),  # a run's share of one: 80 ns
    "weight update": (1.2e-8, 0),  # 10.5 ns
    "graded weight": (6e-8, 48),  # a run's state's weight at a cutoff: 55 ns, 42 B
    "quality row": (7e-6, 400),  # a cutoff's row, written and checked: 5 us, 300 B
    # fig3: 2000 one-trial cells; one cell of 5e6 trials; 200 cells of 2000
    "cell": (1.5e-4, 2_000_000),  # its call, row and block buffers: 113 us, 1.4 MB
    "proposal": (1.5e-7, 0),  # 80 to 130 ns
    "trial": (0.0, 18),  # its escape count, and its share of their spread: 16.3 B
    # fig2 and custom: 10^5 atoms at one branch, trapped; binomial:10 to 1000, and searching
    "step": (1.2e-4, 800),  # an atom's walk and posterior, written, checked: 105 us, 606 B
    "step row": (7.5e-6, 20),  # a (step, n) row, written and checked: 5.5 to 6.8 us, 17 B
    "search": (4e-4, 0),  # an `optimal_tau` search: 370 us at 1 to 10 branches
    "search branch": (6e-6, 0),  # each branch it weighs: 5.1 us at 1000
}

# Most seconds a run and the `check` of its output may be priced at, and most
# bytes it may hold beyond the interpreter's own (about 30 MB RSS). fig3 runs as
# many cells at once as MAX_BYTES holds: two of `config.MAX_TRIALS` trials.
MAX_SECONDS = 10.0
MAX_BYTES = 200_000_000

# Most atoms one fig3 cell may be expected to send, trials x its mean escape
# count: `trapping.monte_carlo_escape` counts them in int64, which holds 1024
# times this, and a sum of geometric counts passes k times its mean with
# probability below e^-(k - 1 - ln k), here e^-1000.
MAX_TRAPPING_ATOMS = 2**53

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


def price(config: ExperimentConfig, weights: dict[int, float]) -> tuple[float, float]:
    """(seconds, bytes): what a run of `config` and the `check` of its output
    take at most, and what the run holds at its peak, by `COST`; `weights` is
    the resolved distribution (fig3 reads none). A run passes at most
    min(atom_budget, (n_max + 1) x cutoff) atoms, as each excitation ends a
    ground streak. fig3's bytes are one cell's; a cell expected to send over
    MAX_TRAPPING_ATOMS atoms costs inf, and cells that alone pass MAX_SECONDS
    are priced alone."""
    table = EXPERIMENTS[config.experiment].table
    if table is TRAPPING_TABLE:
        grid = config.trapping_grid()
        done = {"cell": len(grid), "proposal": 0.0}
        held = {"cell": 1, "trial": config.trials}
        if done["cell"] * COST["cell"][0] <= MAX_SECONDS:
            for m, s in grid:
                try:
                    atoms = config.trials * trapping.mean_atoms_rel(m, s)
                except ZeroDivisionError:  # 1 - exp(-x) rounds to 0 for a tiny jitter
                    atoms = math.inf
                if atoms > MAX_TRAPPING_ATOMS:
                    done["proposal"] = math.inf
                    break
                spec = trapping.TrapSpec(config.trap_photon_number, m, s)
                done["proposal"] += atoms * sum(trapping.thinning(spec)[3:5])
    else:
        k = len(weights)
        cutoff = max(config.cutoffs) if table is QUALITY_TABLE else config.cutoff
        atoms = min(config.atom_budget, (max(weights) + 1) * cutoff)
        if table is QUALITY_TABLE:
            runs, rows = min(config.runs, 10**200), len(config.cutoffs)  # runs has no maximum
            held = {"run": runs, "graded weight": rows * runs * k, "quality row": rows}
            done = {**held, "lockstep atom": atoms, "run atom": atoms * runs,
                    "weight update": atoms * runs * k}
        else:
            held = {"step": atoms + 1, "step row": (atoms + 1) * k}
            searches = atoms if config.policy == OPTIMAL_EACH_STEP else 0
            done = {**held, "search": searches, "search branch": searches * k}
    seconds = math.fsum(n * COST[unit][0] for unit, n in done.items())
    return seconds, math.fsum(n * COST[unit][1] for unit, n in held.items())


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
        jitter = max(config.trapping_grid().sigma_rels)
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
    # the phase bound keeps each fig3 cycle count and jitter squarable as a float
    seconds, peak = price(config, weights)
    if seconds > MAX_SECONDS or peak > MAX_BYTES:
        error("price", f"the run and its check are priced at {seconds:.3g} s and {peak / 1e6:.3g} "
              f"MB, above the maximum {MAX_SECONDS:g} s and {MAX_BYTES / 1e6:g} MB")

    # a fixed tau that puts the top branch's phase at pi or beyond can hit a
    # trapping point of some occupied branch and stall the run
    if table is not TRAPPING_TABLE and config.policy in TIMED_POLICIES and config.tau:
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


def _parallel_map(fn, jobs: list[tuple], most: int) -> list:
    """`[fn(*job) for job in jobs]`, run by one worker per usable CPU (never
    more workers than jobs, nor than `most`): the calling thread and plain
    threads, which take the jobs in order from one shared queue. With one
    worker that is the plain loop on the calling thread. Only calls that
    release the interpreter lock gain from this. Once a call raises, no
    worker starts another job, and its exception is raised here after every
    thread has ended."""
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

    workers = min(_usable_cpus(), len(jobs), most)
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
    grid = config.trapping_grid()
    config = replace(config, sigma_rel_values=tuple(grid.sigma_rels))
    cells = list(grid)
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
    # the cells that run at once hold at most MAX_BYTES
    most = int(MAX_BYTES // price(config, {})[1])
    estimates = _parallel_map(trapping.monte_carlo_escape, jobs, most)
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

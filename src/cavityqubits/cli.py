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
import io
import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, cloning, protocol, trapping
from .check import check_output
from .config import (
    EXPERIMENTS,
    HALF_RABI,
    JITTERED,
    KEYS,
    OUTDIR_ENV,
    POLICIES,
    QUALITY_TABLE,
    STEP_TABLE,
    TIMED_POLICIES,
    TRAPPING_TABLE,
    DistributionSpec,
    ExperimentConfig,
    parse_config_file,
    parse_float_list,
    split_rng,
)

DEFAULT_SIGMA_REL_GRID = tuple(parse_float_list("0.01:0.20:0.01"))

# Most (cutoff, run) pairs one fig4 call may grade: the states `run_batch`
# returns for cutoffs x runs.
MAX_STREAMS = 100_000

# Most weights in those states (cutoffs x runs x photon numbers 0..n_max),
# about 3x the script default (330000): 8 MB of floats.
MAX_STREAM_WEIGHTS = 1_000_000

# Most rows one fig2 or custom table may hold, (atoms + 1) x photon numbers:
# the default budget's table at photon numbers 0..1000. The CLI keeps every
# weight of every atom until it writes the CSV; at binomial:1000 that
# measured 343, 572 and 1087 MB RSS at 1000, 2000 and 4000 atoms, so about
# 2.6 GB at this bound (10^4 atoms) by linear extrapolation.
MAX_STEP_ROWS = 10_011_001

# Largest cutoff a run may take. It keeps every cutoff well inside int64,
# and it stays where it was, so the set of accepted configs does not change.
MAX_CUTOFF = 1_000_000

# Most atoms one fig3 grid may send, as `trials` x the closed-form mean
# escape counts of its cells: about 8x the script default (20000 trials x
# 635 = 1.3e7). Each trial keeps drawing until it escapes, and the mean
# escape count grows as 1/sigma_rel^2 for small jitter. Atom blocks draw
# some atoms no trial uses: 2 % more at the script default, up to about a
# quarter more for a lone trial.
MAX_TRAPPING_ATOMS = 100_000_000

# Most Monte Carlo rounds one fig3 grid may take, about 100x the script
# default (6900). Giving each live trial one atom per round, a cell runs
# until its last trial escapes, about mean x (1 + ln trials) rounds of
# about 20 us each, so the bound is about 15 s. `monte_carlo_escape` gives
# late rounds blocks of atoms and takes far fewer rounds (1761 at the
# script default; a lone trial with a mean escape count of 2533 takes one
# round per 570 atoms or so), so this count over-counts and the bound is
# conservative.
MAX_TRAPPING_ROUNDS = 700_000

# Largest Rabi phase sqrt(n)*gamma*tau a run may reach. Below 2^40 adjacent
# floats are at most 2^-12 apart, small next to the period pi of sin^2;
# beyond about 2^52*pi they are more than a period apart, and every sin^2
# is rounding noise.
MAX_PHASE = 2**40

# numpy's normal sampler returns no draw beyond about 12.3 standard
# deviations from its mean (its ziggurat tail takes the log of a 53-bit
# uniform); `validate` bounds the Rabi phase out to this many.
NORMAL_DRAW_SPAN = 16.0

# the config keys the largest Rabi phase is computed from
PHASE_KEYS = {
    "distribution", "gamma", "policy", "tau", "sigma_rel", "sigma_rel_values",
    "rabi_cycles_values", "trap_photon_number",
}

# subcommand -> experiment
COMMANDS = {e.command: name for name, e in EXPERIMENTS.items()}


@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error" | "warning"
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.level}: {self.field}: {self.message}"


def _trapping_work(trials: int, rabi_cycles_values, sigma_rels) -> tuple[float, float]:
    """Atoms the fig3 grid is expected to send and Monte Carlo rounds it
    would take at one atom per live trial per round: the closed-form mean
    escape counts of its (m_rabi, sigma_rel) cells, summed, times `trials`
    and 1 + ln `trials`. Atom blocks take fewer rounds, so the second is an
    upper estimate."""
    try:
        means = math.fsum(
            trapping.mean_atoms_rel(m, s) for m in rabi_cycles_values for s in sigma_rels
        )
    except ZeroDivisionError:  # 1 - exp(-x) rounds to 0 for a tiny jitter
        means = math.inf
    # capped below where an int's float conversion raises; far above any bound
    trials = float(min(trials, 2**1023))
    return trials * means, (1.0 + math.log(trials)) * means


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
    """Pure configuration check; never runs anything."""
    diags: list[Diagnostic] = []

    def error(field: str, msg: str) -> None:
        diags.append(Diagnostic("error", field, msg))

    def warn(field: str, msg: str) -> None:
        diags.append(Diagnostic("warning", field, msg))

    for key, meta in KEYS.items():
        value = getattr(config, key)
        if meta["choices"] and value not in meta["choices"]:
            error(key, f"unknown {key} {value!r}")
        elif meta["parse"] is float and value is not None and not math.isfinite(value):
            error(key, f"must be finite, got {value!r}")
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
        elif config.n_originals > n_min:
            error(
                "n_originals",
                f"{config.n_originals} exceeds the smallest occupied photon number {n_min}",
            )
    if not config.gamma > 0:
        error("gamma", f"must be positive, got {config.gamma}")
    if config.sigma_rel < 0:
        error("sigma_rel", f"must be non-negative, got {config.sigma_rel}")
    if experiment and config.policy in POLICIES and config.policy not in experiment.policies:
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
    if config.tau is not None and not config.tau > 0:
        error("tau", f"must be positive, got {config.tau}")
    if config.cutoff < 1:
        error("cutoff", f"must be >= 1, got {config.cutoff}")
    elif config.cutoff > MAX_CUTOFF:
        error("cutoff", f"{config.cutoff} exceeds the maximum {MAX_CUTOFF}")
    if config.atom_budget < 1:
        error("atom_budget", f"must be >= 1, got {config.atom_budget}")
    if config.trials < 1:
        error("trials", f"must be >= 1, got {config.trials}")
    if config.runs < 1:
        error("runs", f"must be >= 1, got {config.runs}")
    if config.n_originals < 1:
        error("n_originals", f"must be >= 1, got {config.n_originals}")
    if config.seed is None:
        error("seed", "a master seed is required for reproducible runs")
    elif config.seed < 0:
        error("seed", f"must be non-negative, got {config.seed}")
    if table is TRAPPING_TABLE:
        cycles = config.rabi_cycles_values
        sigma_rels = config.sigma_rel_values or DEFAULT_SIGMA_REL_GRID
        if not all(0 < s < math.inf for s in sigma_rels):  # NaN or inf never escapes
            error("sigma_rel_values", "jitter values must be positive and finite")
        if not cycles:
            error("rabi_cycles_values", "needs at least one Rabi cycle count")
        elif not all(m >= 1 for m in cycles):
            error("rabi_cycles_values", "Rabi cycle counts must be >= 1")
        if config.trap_photon_number < 1:
            error("trap_photon_number", f"must be >= 1, got {config.trap_photon_number}")

    # one bound covers every overflow of the Rabi phase, and its resolution;
    # it is checked once nothing it is computed from has an error
    n = config.trap_photon_number if table is TRAPPING_TABLE else max(occupied, default=0)
    phase_ok = False
    if table and not any(d.field in PHASE_KEYS for d in diags):
        phase = _largest_phase(config, table, n)
        phase_ok = phase <= MAX_PHASE
        if not phase_ok:
            error(
                "Rabi phase",
                f"sqrt({n})*gamma*tau can reach {phase:.3g}, above the maximum 2^40, "
                "where adjacent floats are 2^-12 apart",
            )
    if table is TRAPPING_TABLE and phase_ok and config.trials >= 1:
        # the phase bound keeps each cycle count and jitter squarable as a float
        atoms, rounds = _trapping_work(config.trials, cycles, sigma_rels)
        if atoms > MAX_TRAPPING_ATOMS:
            error(
                "trials",
                f"{config.trials} trials x the grid's mean escape counts = {atoms:.3g} "
                f"atoms exceeds the maximum {MAX_TRAPPING_ATOMS:.3g}",
            )
        elif rounds > MAX_TRAPPING_ROUNDS:
            error(
                "trials",
                f"the grid's mean escape counts x (1 + ln {config.trials} trials) = "
                f"{rounds:.3g} Monte Carlo rounds exceeds the maximum "
                f"{MAX_TRAPPING_ROUNDS:.3g}",
            )
    if table is QUALITY_TABLE:
        if not config.cutoffs:
            error("cutoffs", "needs at least one cutoff")
        elif any(c < 1 for c in config.cutoffs):
            error("cutoffs", "cutoff values must be >= 1")
        elif max(config.cutoffs) > MAX_CUTOFF:
            error("cutoffs", f"{max(config.cutoffs)} exceeds the maximum {MAX_CUTOFF}")
        streams = len(config.cutoffs) * config.runs
        branches = config.distribution.max_photon_number() + 1
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

    if table is STEP_TABLE and weights and config.cutoff >= 1 and config.atom_budget >= 1:
        # each excitation ends a ground streak, so a run ends within n_max + 1 streaks
        steps = min(config.atom_budget, (max(weights) + 1) * config.cutoff) + 1
        rows = steps * len(weights)
        if rows > MAX_STEP_ROWS:
            error(
                "atom_budget",
                f"{steps} steps x {len(weights)} photon numbers = {rows} rows exceeds the "
                f"maximum {MAX_STEP_ROWS}",
            )

    # a fixed tau that puts the top branch's phase at pi or beyond can hit a
    # trapping point of some occupied branch and stall the run
    if phase_ok and table is not TRAPPING_TABLE and config.policy in TIMED_POLICIES and config.tau:
        top = math.sqrt(n) * config.gamma * config.tau
        if top >= math.pi:
            warn(
                "tau",
                f"tau = {config.tau!r} puts sqrt({n})*gamma*tau at {top!r} >= pi; "
                "a trapping point is reachable for some branch",
            )
    return diags


# --- output ---------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _output_path(config: ExperimentConfig) -> Path:
    if config.out is not None:
        return Path(config.out)
    base = Path(os.environ.get(OUTDIR_ENV, "."))
    return base / f"{config.experiment}.csv"


def _write_csv(
    config: ExperimentConfig, metadata: list[tuple[str, str]], rows: list[tuple]
) -> Path:
    """Write the metadata block, the experiment's header and `rows`; returns
    the path."""
    path = _output_path(config)
    buf = io.StringIO()
    for key, value in metadata:
        buf.write(f"# {key} = {value}\n")
    buf.write(",".join(name for name, _ in EXPERIMENTS[config.experiment].table) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(buf.getvalue())
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc}")
    return path


# --- experiment runners -----------------------------------------------------


def _run_weights_evolution(config: ExperimentConfig) -> Path:
    rng = split_rng(config.seed)
    initial = config.initial_weights()
    if config.policy in TIMED_POLICIES:  # echo the tau the run uses
        config = replace(
            config, tau=config.resolved_tau(protocol.WeightedEnsemble.from_weights(initial))
        )
    trace = protocol.run(config, rng)

    rows: list[tuple] = []
    f_atom0 = cloning.atom_fidelity(initial, config.n_originals)
    # the initial weights and every event's come in ascending n
    for n, p in initial.items():
        rows.append((0, n, p, f_atom0, 0))
    for event in trace.events:
        for n, p in event.weights_after.items():
            rows.append(
                (event.atom_index + 1, n, p, event.atom_fidelity_after, event.transferred_after)
            )
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
    metadata.append(("stream_layout", "(seed, cell), atom blocks"))
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

    # atom_fidelity and quality over the whole stack, in their float order:
    # F_atom accumulates left to right over the nonzero weights in ascending n
    n_orig = config.n_originals
    f_atom = np.zeros(final.transferred.shape)
    for k, n in enumerate(ns.tolist()):
        if n >= n_orig:  # lower branches carry no weight once validated
            f_atom += final.weights[..., k] * cloning.clone_fidelity(n_orig, n)
    optimum = np.array(
        [cloning.clone_fidelity(n_orig, max(m, n_orig)) for m in range(int(ns.max()) + 1)]
    )
    qualities = np.where(final.transferred >= n_orig, f_atom / optimum[final.transferred], 0.0)

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
        parse = KEYS[key]["parse"]
        sub.add_argument(
            KEYS[key]["flag"],
            dest=key,
            type=parse if isinstance(parse, type) else _flag_type(parse),
            choices=KEYS[key]["choices"],
            help=KEYS[key]["help"],
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

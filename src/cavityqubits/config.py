"""Experiment configuration, seeding, and the key=value config-file format.

`EXPERIMENTS`, `POLICIES` and the `ExperimentConfig` fields (`KEYS`) are
the one table of experiment names, policy names and config keys that the
CLI's flags, parsers, range checks, dispatch and `check`'s echo reader use.

Config files are plain text, one `key = value` per line, `#` comments;
command-line flags override file values. Every stochastic experiment
requires an explicit master seed, and derived streams always come from
`split_rng` so identical configs reproduce bit-identical outputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from . import cloning, protocol

# Recorded in output metadata so results stay attributable to a generator.
RNG_DESCRIPTION = "numpy PCG64 via default_rng(SeedSequence([seed, *stream]))"

OUTDIR_ENV = "CAVITYQUBITS_OUTDIR"

# Largest photon number a distribution may hold. Exact binomial weights and
# fig4's per-transfer branch tables grow with it (0.03 s at 1000, 91 s at
# 20000 for the binomial weights alone).
MAX_PHOTON_NUMBER = 1000

# Most values an 'a:b:step' or 'a..b' range may hold; `cli.price` then
# prices each fig4 cutoff and fig3 cell.
MAX_RANGE_VALUES = 1_000_000

# Largest cutoff a run may take. It keeps every cutoff well inside int64,
# and it stays where it was, so the set of accepted configs does not change.
MAX_CUTOFF = 1_000_000

# Most Monte Carlo trials of one fig3 cell, 8 bytes each in `monte_carlo_escape`
# (16 while it takes their spread); the cells run at once hold at most twice
# that: `fig3 --sigma-rel 0.5 --m 1 --trials 5000000` peaks at 113 MB RSS on a
# 2-vCPU x86 host, `--m 1,2` at 152 to 156 MB, and `--m 1,2,3,4` with 8 CPUs
# (two cells at once) at 190 MB, against 219 to 320 MB with all four at once.
MAX_TRIALS = 5_000_000

# lower bounds of a config key's number, or of each number of its tuple:
# (least value, whether it is allowed, the rule's text); a count is >= 1
POSITIVE, NON_NEGATIVE, COUNT = (0, False, "positive"), (0, True, "non-negative"), (1, True, ">= 1")


def split_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream indices).

    The split rule is SeedSequence([seed, *stream]). fig4 uses the run
    index alone: each run's one trajectory serves every cutoff. fig3 uses
    the flat cell index, and a single run the bare seed.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


@dataclass(frozen=True)
class DistributionSpec:
    """Initial photon-number distribution: a binomial or uniform preset, or
    explicit weights."""

    kind: str
    n_max: int | None = None
    n_min: int = 1
    weights: Mapping[int, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("binomial", "uniform", "explicit"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind in ("binomial", "uniform") and (self.n_max is None or self.n_max < 1):
            raise ValueError(f"distribution {self.kind!r} needs n_max >= 1")
        if self.kind == "explicit" and not self.weights:
            raise ValueError("explicit distribution needs weights")
        if self.max_photon_number() > MAX_PHOTON_NUMBER:
            raise ValueError(
                f"photon number {self.max_photon_number()} exceeds the maximum {MAX_PHOTON_NUMBER}"
            )

    def resolve(self) -> dict[int, float]:
        if self.kind == "binomial":
            return cloning.binomial_distribution(self.n_max)
        if self.kind == "uniform":
            return cloning.uniform_distribution(self.n_min, self.n_max)
        return {int(n): float(p) for n, p in sorted(self.weights.items())}

    def max_photon_number(self) -> int:
        if self.kind == "explicit":
            return max(self.weights)
        return self.n_max

    def describe(self) -> str:
        if self.kind == "binomial":
            return f"binomial:{self.n_max}"
        if self.kind == "uniform":
            return f"uniform:{self.n_min}..{self.n_max}"
        return "explicit:" + ",".join(f"{n}={p!r}" for n, p in sorted(self.weights.items()))

    @classmethod
    def parse(cls, text: str) -> "DistributionSpec":
        """Parse 'binomial:6', 'uniform:1..10' or 'explicit:1=0.5,2=0.5'."""
        kind, _, rest = text.strip().partition(":")
        if kind == "binomial":
            return cls("binomial", n_max=int(rest))
        if kind == "uniform":
            lo, _, hi = rest.partition("..")
            return cls("uniform", n_min=int(lo), n_max=int(hi))
        if kind == "explicit":
            weights = {}
            for item in rest.split(","):
                n_s, _, p = item.partition("=")
                n = int(n_s)
                if n in weights:
                    raise ValueError(f"photon number {n} appears twice in {text.strip()!r}")
                weights[n] = float(p)
            return cls("explicit", weights=weights)
        raise ValueError(f"cannot parse distribution spec {text!r}")


# --- experiments and policies -----------------------------------------------

# CSV column names and field types of each kind of table
STEP_TABLE = (("step", int), ("n", int), ("p_n", float), ("F_atom", float), ("transferred", int))
TRAPPING_TABLE = (
    ("m_rabi", int), ("sigma_rel", float), ("a_mean_closed", float), ("a_mean_mc", float),
    ("mc_stderr", float),
)
QUALITY_TABLE = (("cutoff", int), ("mean_quality", float), ("stderr", float), ("n_max", int))

# interaction-time policies, in `--policy` order
FIXED, OPTIMAL_EACH_STEP, HALF_RABI, JITTERED = POLICIES = (
    "fixed", "optimal-each-step", "half-rabi", "jittered"
)
# the policies that run at the configured tau, or the optimum for the initial mixture
TIMED_POLICIES = (FIXED, JITTERED)


@dataclass(frozen=True)
class Experiment:
    command: str  # CLI subcommand
    help: str
    table: tuple[tuple[str, type], ...]  # CSV columns
    policies: tuple[str, ...]  # the policies it runs
    keys: tuple[str, ...]  # its subcommand's flags besides the common keys


_RUN_KEYS = ("tau", "cutoff", "atom_budget", "n_originals")
EXPERIMENTS = {
    "weights-evolution": Experiment(
        "fig2", "single seeded run: weight evolution table", STEP_TABLE, POLICIES, _RUN_KEYS
    ),
    # fig3 runs no policy, so only the default is accepted
    "trapping-curves": Experiment(
        "fig3", "trapping escape curves (closed form + Monte Carlo)", TRAPPING_TABLE, (FIXED,),
        ("sigma_rel_values", "rabi_cycles_values", "trap_photon_number", "trials"),
    ),
    # one fixed tau for every run, so all streams can step in one batch
    "quality-cutoff": Experiment(
        "fig4", "mean clone quality versus cutoff", QUALITY_TABLE, (FIXED,),
        ("tau", "atom_budget", "cutoffs", "runs", "n_originals"),
    ),
    "custom": Experiment(
        "custom", "fully configured single run (fig2-style table)", STEP_TABLE, POLICIES,
        (*_RUN_KEYS, "policy", "sigma_rel"),
    ),
}


@dataclass(frozen=True)
class TrappingGrid:
    """fig3's (m_rabi, sigma_rel) cells, m_rabi-major as the runner lists
    them; counted and iterated without holding them all."""

    rabi_cycles: tuple[int, ...]
    sigma_rels: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.rabi_cycles) * len(self.sigma_rels)

    def __iter__(self):
        return itertools.product(self.rabi_cycles, self.sigma_rels)


def _key(default, parse, flag, help, choices=None, common=False, low=None, high=None, missing=None):
    """An `ExperimentConfig` field that is a config key, with the parser of
    its text value, its CLI flag and help, its allowed values, whether every
    subcommand takes it, and its range: the lower bound `low` and maximum
    `high` of a number, or of each number of a tuple, and the problem with a
    None or an empty tuple, if that is one."""
    meta = dict(default=default, parse=parse, flag=flag, help=help, choices=choices)
    meta.update(common=common, low=low, high=high, missing=missing)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    """Everything a run needs; which fields matter depends on the
    experiment (single protocol run, trapping-curve grid, or the
    quality-versus-cutoff average). Fields echo in this order."""

    experiment: str = _key(
        "custom", str, "--experiment", "experiment the config is meant for", tuple(EXPERIMENTS)
    )
    distribution: DistributionSpec = _key(
        DistributionSpec("binomial", n_max=6), DistributionSpec.parse, "--dist",
        "binomial:N | uniform:LO..HI | explicit:n=p,...", common=True,
    )
    # taus are in units of 1/gamma
    gamma: float = _key(
        1.0, float, "--gamma", "coupling constant, defines the time unit", common=True, low=POSITIVE
    )
    policy: str = _key(FIXED, str, "--policy", "interaction-time policy", POLICIES)
    # None -> optimum for the initial mixture
    tau: float | None = _key(
        None, float, "--tau", "fixed interaction time (default: optimal)", low=POSITIVE
    )
    sigma_rel: float = _key(
        0.0, float, "--sigma-rel", "relative jitter of the jittered policy", low=NON_NEGATIVE
    )
    cutoff: int = _key(
        20, int, "--cutoff", "consecutive ground measurements before stopping", low=COUNT,
        high=MAX_CUTOFF,
    )
    atom_budget: int = _key(10_000, int, "--budget", "maximum atoms to send per run", low=COUNT)
    seed: int | None = _key(
        None, int, "--seed", "master RNG seed (required to run)", common=True, low=NON_NEGATIVE,
        missing="a master seed is required for reproducible runs",
    )
    out: str | None = _key(
        None, str, "--out", f"output CSV path (default ${OUTDIR_ENV}/<experiment>.csv)",
        common=True,
    )
    # never above the smallest occupied photon number
    n_originals: int = _key(
        1, int, "--n-originals", "cloner input count", low=COUNT, high=MAX_PHOTON_NUMBER
    )
    # trapping-curve grid; no jitter values means the default grid
    sigma_rel_values: tuple[float, ...] = _key(
        (), lambda s: tuple(parse_float_list(s)), "--sigma-rel", "jitter grid, e.g. 0.01:0.20:0.01",
        low=POSITIVE,
    )
    rabi_cycles_values: tuple[int, ...] = _key(
        (1, 2, 3), lambda s: tuple(parse_int_list(s)), "--m", "Rabi-cycle counts, e.g. 1,2,3",
        low=COUNT, missing="needs at least one Rabi cycle count",
    )
    trap_photon_number: int = _key(
        1, int, "--n", "photon number for the Monte Carlo", low=COUNT, high=MAX_PHOTON_NUMBER
    )
    trials: int = _key(
        10_000, int, "--trials", "Monte Carlo trials per grid cell", low=COUNT, high=MAX_TRIALS
    )
    # quality-cutoff grid
    cutoffs: tuple[int, ...] = _key(
        tuple(range(1, 31)), lambda s: tuple(parse_int_list(s)), "--cutoffs",
        "cutoff grid, e.g. 1..30", low=COUNT, high=MAX_CUTOFF, missing="needs at least one cutoff",
    )
    runs: int = _key(1000, int, "--runs", "repetitions per cutoff", low=COUNT)

    def initial_weights(self) -> dict[int, float]:
        return self.distribution.resolve()

    def resolved_tau(self, initial: protocol.WeightedEnsemble) -> float:
        """The configured interaction time, or (tau = None) the optimum for
        the initial mixture, from the root of its optimal-each-step tree."""
        return self.tau if self.tau is not None else protocol.prior_optimal_tau(initial, self.gamma)

    def tau_policy(self, initial: protocol.WeightedEnsemble) -> protocol.TauPolicy:
        """The configured policy for a run that starts from `initial`."""
        if self.policy == OPTIMAL_EACH_STEP:
            return protocol.OptimalEachStep()
        if self.policy == HALF_RABI:
            alive = initial.photon_numbers[initial.weights > 0]
            if len(alive) != 1:
                raise ValueError(f"{self.policy} needs a single known photon number")
            return protocol.HalfRabiTau(int(alive[0]))
        tau = self.resolved_tau(initial)
        if self.policy == JITTERED:
            return protocol.JitteredTau(tau, self.sigma_rel * tau)
        if self.policy == FIXED:
            return protocol.FixedTau(tau)
        raise ValueError(f"unknown policy {self.policy!r}")

    def trapping_grid(self) -> TrappingGrid:
        """fig3's cells: `rabi_cycles_values` by `sigma_rel_values`, or by
        DEFAULT_SIGMA_REL_GRID where that is unset."""
        return TrappingGrid(self.rabi_cycles_values, self.sigma_rel_values or DEFAULT_SIGMA_REL_GRID)

    def metadata(self, version: str) -> list[tuple[str, str]]:
        """Config echo for the CSV header block (deterministic order)."""
        keys = [(f.name, _echo(getattr(self, f.name))) for f in fields(self)]
        return [("version", version), ("rng", RNG_DESCRIPTION), *keys]


# config key -> its default, parser, flag, help, choices, commonness and range
KEYS = {f.name: f.metadata for f in fields(ExperimentConfig)}


def _echo(value) -> str:
    """A config value as the metadata block writes it."""
    if isinstance(value, DistributionSpec):
        return value.describe()
    if isinstance(value, tuple):
        return ",".join(map(_echo, value))
    return repr(value) if isinstance(value, float) else str(value)


def value_problem(key: str, value) -> str | None:
    """What is wrong with `value` as config key `key`, or None: a value not
    among its choices, a None or empty tuple it does not allow, or a number
    (or a tuple's number) that is not finite or not in its range."""
    meta = KEYS[key]
    if meta["choices"]:
        return None if value in meta["choices"] else f"unknown {key} {value!r}"
    if value is None or value == ():
        return meta["missing"]
    if meta["low"] is None:
        return None
    (least, allowed, rule), high = meta["low"], meta["high"]
    for v in value if isinstance(value, tuple) else (value,):
        if isinstance(v, float) and not math.isfinite(v):
            return f"must be finite, got {v!r}"
        if v < least or v == least and not allowed:
            return f"must be {rule}, got {v!r}"
        if high is not None and v > high:
            return f"{v} exceeds the maximum {high}"
    return None


def read_echo(echo: Mapping[str, str]) -> tuple[ExperimentConfig | None, list[str]]:
    """The config a CSV's metadata block echoes, None if it has problems,
    and its problems as 'key: message'. Each key is read by its parser, or
    as its unset default (None, the empty tuple) where it echoes that, is
    checked by `value_problem`, and must echo back to its own text."""
    problems = [f"{key}: missing" for key in ("version", "rng", *KEYS) if key not in echo]
    values = {}
    for key, text in [(key, echo[key]) for key in KEYS if key in echo]:
        default = KEYS[key]["default"]
        try:
            unset = default in (None, ()) and text == _echo(default)
            values[key] = value = default if unset else KEYS[key]["parse"](text)
            problem = value_problem(key, value)
            if problem is None and _echo(value) != text:
                problem = f"{text!r} echoes back as {_echo(value)!r}"
        except ValueError as exc:
            problem = str(exc)
        if problem:
            problems.append(f"{key}: {problem}")
    return (None if problems else ExperimentConfig(**values)), problems


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read `key = value` lines; keys are normalized to snake_case."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        values[key.strip().lower().replace("-", "_")] = value.strip()
    return values


def parse_float_list(text: str) -> list[float]:
    """'a:b:step' (inclusive range), 'x,y,z', or a single value."""
    text = text.strip()
    if ":" in text:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
        if step <= 0:
            raise ValueError(f"range step must be positive in {text!r}")
        steps = (stop - start) / step
        if not abs(steps) < MAX_RANGE_VALUES:  # NaN and inf too
            raise ValueError(f"range {text!r} must hold at most {MAX_RANGE_VALUES} values")
        count = int(round(steps))
        values = [start + k * step for k in range(count + 1)]
        values = [v for v in values if v <= stop + step * 1e-9]
    else:
        values = [float(v) for v in text.split(",") if v.strip()]
    if not values:  # an empty grid would mean the default one
        raise ValueError(f"empty float {'range' if ':' in text else 'list'} {text!r}")
    return values


# fig3's jitter grid where sigma_rel_values is unset
DEFAULT_SIGMA_REL_GRID = tuple(parse_float_list("0.01:0.20:0.01"))


def parse_int_list(text: str) -> list[int]:
    """'a..b' (inclusive range), 'x,y,z', or a single value."""
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty integer range {text!r}")
        if hi - lo >= MAX_RANGE_VALUES:
            raise ValueError(f"range {text!r} must hold at most {MAX_RANGE_VALUES} values")
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",") if v.strip()]
